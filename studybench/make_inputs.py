#!/usr/bin/env python3
"""Regenerate the frozen inputs stored under studybench/inputs/.

The benchmark never trains the step schedules that `sweep-4x4` and
`oracle-2x2` consume, and `train-3x3` starts training from a pinned step
instead of calibrating, so that each workload times only the layers it is
meant to exercise.  This script records how those inputs were made.  Run it
from the repository root:

    python3 studybench/make_inputs.py

Every input is produced with the public manetopt API from seed SEED; each
file carries a `provenance` entry with the exact recipe.  Rerunning it on
unchanged numerics reproduces the files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path(__file__).resolve().parent / "inputs"
SEED = 0
TRAIN_SIZE = 200
CALIB_SIZE = 50
TRAIN = {"iterations": 40, "epochs": 10, "batch_count": 10, "seed": SEED}

# (file, hop sizes, noise level in dB)
SCHEDULES = (
    ("mu_2x2_0db.json", (2, 2), 0.0),
    ("mu_4x4_m10db.json", (4, 4), -10.0),
)
INIT_STEP = ("init_step_3x3_0db.json", (3, 3), 0.0)


def _write(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import manetopt as mo
    from manetopt.experiments import noise_profile

    INPUTS.mkdir(exist_ok=True)
    for name, sizes, db in SCHEDULES:
        topology = mo.Topology(sizes)
        noise = noise_profile(db, topology.num_hops)
        data = mo.build_dataset(topology, noise, TRAIN_SIZE, seed=SEED)
        config = mo.TrainConfig(**TRAIN)
        mu = mo.train(data, config)
        path = INPUTS / name
        mo.save_schedule(str(path), mu, topology, config.mode, config.seed, config)
        doc = json.loads(path.read_text())
        doc["provenance"] = {
            "recipe": (
                "mo.train(mo.build_dataset(Topology(hop_sizes), "
                "noise_profile(noise_db, hops), train_size, seed=dataset_seed), "
                "TrainConfig(**train)); init_step calibrated by train()"
            ),
            "hop_sizes": list(sizes),
            "noise_db": db,
            "train_size": TRAIN_SIZE,
            "dataset_seed": SEED,
            "train": TRAIN,
        }
        _write(path, doc)
        print(name, hashlib.sha256(path.read_bytes()).hexdigest()[:16])

    name, sizes, db = INIT_STEP
    topology = mo.Topology(sizes)
    noise = noise_profile(db, topology.num_hops)
    calib = mo.build_dataset(topology, noise, CALIB_SIZE, seed=SEED)
    step = mo.calibrate_fixed_step(list(calib.channels()), noise)
    _write(
        INPUTS / name,
        {
            "init_step": step,
            "provenance": {
                "recipe": (
                    "mo.calibrate_fixed_step(mo.build_dataset(Topology(hop_sizes), "
                    "noise_profile(noise_db, hops), calib_size, seed=dataset_seed)"
                    ".channels(), noise)"
                ),
                "hop_sizes": list(sizes),
                "noise_db": db,
                "calib_size": CALIB_SIZE,
                "dataset_seed": SEED,
            },
        },
    )
    print(name, step)


if __name__ == "__main__":
    main()
