#!/usr/bin/env python3
"""Pre-compute the cached artifacts the acceptance suite needs.

Runs the schedule trainings and grid-reference values into
.acceptance_cache/ so `pytest tests/test_acceptance.py` only has to evaluate.
Safe to re-run; everything is keyed by content.  Only the trained schedules
(`mu_*.json`) are tracked in git; a fresh checkout recomputes the 200 grid
values (job `oracle_2x2_0`), under a second in all on a 2-core x86-64 box.
Optional argv: a subset of job tags to run (default: all).  The scenario's
own copies of the schedules go to a temporary directory; only the cache is
kept.
"""

import sys
import tempfile
import time
from pathlib import Path

import manetopt as mo
from manetopt.experiments import (
    TEST_DATA,
    ExperimentConfig,
    _trained_schedules,
    derive_seed,
    noise_profile,
)
from manetopt.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
CACHE = str(ROOT / ".acceptance_cache")
LEVELS = (-10.0, -5.0, 0.0, 5.0, 10.0)


def config_for(sizes, out) -> ExperimentConfig:
    return ExperimentConfig(
        scenario="oracle-compare",
        hop_sizes=sizes,
        noise_db=(0.0,),
        out_dir=out,
        seed=0,
        train_size=1000,
        test_size=200,
        calib_size=50,
        train=TrainConfig(iterations=40, epochs=100, batch_count=10, seed=0),
        cache_dir=CACHE,
    )


def jobs():
    for db in LEVELS:
        yield f"train_2x2_{db:g}", ((2, 2), db, "full-csi")
        yield f"train_3x3_{db:g}", ((3, 3), db, "full-csi")
    yield "train_3x3_0_noisy", ((3, 3), 0.0, "noisy-csi")
    yield "train_4x4_0", ((4, 4), 0.0, "full-csi")
    yield "oracle_2x2_0", ((2, 2), 0.0, "oracle")


def main() -> None:
    wanted = set(sys.argv[1:])
    with tempfile.TemporaryDirectory() as out:
        for tag, (sizes, db, mode) in jobs():
            if wanted and tag not in wanted:
                continue
            t0 = time.time()
            config = config_for(sizes, out)
            topology = mo.Topology(sizes)
            if mode == "oracle":
                noise = noise_profile(db, topology.num_hops)
                test = mo.build_dataset(topology, noise, 200, derive_seed(0, TEST_DATA))
                for ch in test.channels():
                    mo.grid_capacity(ch, noise, 1e-2, cache_dir=CACHE)
            else:
                _trained_schedules(config, topology, db, [(mode, None, f"warm_{tag}")])
            print(f"{tag}: {time.time() - t0:.0f}s", flush=True)


if __name__ == "__main__":
    main()
