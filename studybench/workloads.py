"""The benchmark's workloads: one `experiments.run_scenario` study each.

A workload is a scenario config whose master seed (and training seed) is the
benchmark's `--seed`, so the seed picks every channel, pilot draw and
ensemble start.  The step schedules of `sweep-4x4` and `oracle-2x2` and the
initial step of `train-3x3` are frozen inputs under `inputs/`, made by
`make_inputs.py`.

Sizes are cut from the full studies so that one study takes 3 to 13 s on a
2-core x86-64 box and a run of `run_seconds` holds two or more of them: the
box's throughput swings by up to 2x for seconds at a time, so only a median
over several studies is steady.
"""

from __future__ import annotations

import json
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

# Each entry: the scenario config (paths and seeds are added per run), the
# passes one study makes, and the summary columns behind `quality_ratio`: a
# learned schedule's mean min rate over a reference mean on the same
# channels.  A ratio of paired means varies little with the seed, where the
# mean itself swings by 20-50% over a few test channels.
WORKLOADS: dict[str, dict] = {
    # Only workload with forward-mode tangents (engine.unrolled_loss) and
    # pilots, in noisy training and noisy inference: the one for an adjoint
    # step-size gradient.  Calibration is skipped by the pinned init step.
    "train-3x3": {
        "config": {
            "scenario": "noisy-robustness",
            "hop_sizes": [3, 3],
            "noise_db": [0.0],
            "train_size": 200,
            "test_size": 20,
            "ensemble_size": 6,
            "train": {"iterations": 40, "epochs": 3, "batch_count": 10},
        },
        "init_step": "init_step_3x3_0db.json",
        "tiny": {"train_size": 8, "test_size": 2, "ensemble_size": 2,
                 "train": {"iterations": 4, "epochs": 1, "batch_count": 2}},
        "passes": ("study",),
        "quality": ("noisy_robustness.csv", "noisy_full_mean", "clean_full_mean"),
    },
    # Fixed-step calibration (7 candidates x 5000 iterations) and 200
    # per-channel ensemble inferences, bypassing training and the grid: the
    # one for a single batch axis.  calib_size stays at the package default:
    # on 10 channels the calibration can settle on step 1.0 for some seeds,
    # which skips most of its work and wrecks the fixed-step baseline.
    "sweep-4x4": {
        "config": {
            "scenario": "noise-sweep",
            "hop_sizes": [4, 4],
            "noise_db": [-10.0],
            "test_size": 200,
            "calib_size": 50,
            "fixed_long_iterations": 1000,
            "train": {"iterations": 40},
        },
        "schedule": "mu_4x4_m10db.json",
        "tiny": {"test_size": 4, "calib_size": 2, "fixed_long_iterations": 10},
        "passes": ("study",),
        "quality": ("noise_sweep.csv", "unfolded_mean", "fixed_long_mean"),
    },
    # The grid reference: engine.rate_pass on chunks of 131 072 points rather
    # than 6 to 200 elements per call, separating per-element cost from
    # per-call overhead.  A cold pass fills the grid cache, a warm pass on the
    # same cache must be served from it.  The one for a separable grid.
    "oracle-2x2": {
        "config": {
            "scenario": "oracle-compare",
            "hop_sizes": [2, 2],
            "noise_db": [0.0],
            "test_size": 4,
            "train": {"iterations": 40},
        },
        "schedule": "mu_2x2_0db.json",
        "tiny": {"test_size": 1},
        "passes": ("cold", "warm"),
        "quality": ("oracle_summary.csv", "ensemble_mean", "oracle_mean"),
    },
}

# Slack of the grid reference: the ensemble may beat the grid optimum by up
# to the grid modulus documented in manetopt.gridsearch.
GRID_MODULUS = 0.01


class InputError(Exception):
    """A frozen input is missing or does not fit its workload."""


def _read_input(name: str) -> dict:
    path = INPUTS / name
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read frozen input {path}: {exc}") from exc


def build_config(name: str, seed: int, tiny: bool) -> dict:
    """Scenario config of one workload, without `out_dir` and `cache_dir`."""
    spec = WORKLOADS[name]
    config = json.loads(json.dumps(spec["config"]))
    if tiny:
        for key, value in spec["tiny"].items():
            if isinstance(value, dict):
                config[key].update(value)
            else:
                config[key] = value
    config["seed"] = seed
    config["threads"] = 1
    config["train"]["seed"] = seed
    if "init_step" in spec:
        config["train"]["init_step"] = float(_read_input(spec["init_step"])["init_step"])
    if "schedule" in spec:
        path = INPUTS / spec["schedule"]
        doc = _read_input(spec["schedule"])
        steps = config["train"]["iterations"]
        if len(doc.get("steps", ())) != steps or doc.get("iterations") != steps:
            raise InputError(f"{path} does not hold a K={steps} step schedule")
        config["mu_artifact"] = str(path)
    return config
