#!/usr/bin/env python3
"""Kernel and stage timings of this checkout: writes ``BENCH_<id>.json``.

    python3 scripts/bench.py [--repeats N] [--out DIR] [--tiny]

Run from anywhere; it imports manetopt from this checkout's ``src`` with
BLAS pinned to one thread.  Every entry is the best of N repeats, timed with
``time.perf_counter``, on the networks 1x2x2, 1x3x3 and 1x4x4 (one source,
M relays, M end users) at batch sizes q = 20 and 350:

- ``step``: one projected-gradient step of ``engine.iterate_schedule``, per
  batch element (K steps over q elements);
- ``loss`` and ``loss_grad``: ``engine.unrolled_loss`` at K steps without
  and with the step-size gradient, per call and per element step;
- ``calibrate``: ``pgd.calibrate_fixed_step`` on q // 7 channels (the seven
  default candidates make q runs) at a reduced iteration count;
- ``infer``: ``ensemble.infer_batch`` on q // E channels of E members;
- ``grid``: ``gridsearch.grid_capacity`` on one channel (two-user network
  only, so 1x2x2);
- ``train`` and ``train_pair``: one epoch of ``training.train`` over 200
  channels in 10 batches of 20 at K steps, for one full-CSI schedule and for
  a full- and a noisy-CSI schedule trained together in one call (per element
  step of each schedule).

The file id is the git sha of HEAD when the package source matches it, and
``src-<digest>`` of the source otherwise.  The environment record reuses the
study benchmark's helpers (``studybench/run.py``) and the version fields of
``studybench/worker.py``.  ``--tiny`` runs every entry at a few elements and
steps, for the schema test; its timings mean nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "studybench"))
sys.path.insert(0, str(ROOT / "src"))

import run as studyrun  # noqa: E402  (studybench/run.py; imports no numpy)

os.environ.update(studyrun.PINNED_THREADS)

import numpy as np  # noqa: E402

import manetopt as mo  # noqa: E402
from manetopt import engine, ensemble, gridsearch, pgd  # noqa: E402
from manetopt.training import iteration_weights  # noqa: E402

NETWORKS = ((2, 2), (3, 3), (4, 4))
BATCHES = (20, 350)
STEPS = 40
CALIB_ITERATIONS = 500
ENSEMBLE = 6
TRAIN_CHANNELS = 200
TRAIN_BATCHES = 10
TINY = {"batches": (7,), "steps": 2, "calib_iterations": 3, "train_channels": 4,
        "train_batches": 2}


def best_of(repeats: int, fn) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _channels(topology, count, seed):
    rng = np.random.default_rng(seed)
    return [mo.sample_channel(topology, 1.0, rng) for _ in range(count)]


def _network(hop_sizes) -> str:
    return "1x" + "x".join(str(m) for m in hop_sizes)


def bench_network(hop_sizes, q, steps, calib_iterations, repeats) -> list[dict]:
    topology = mo.Topology(hop_sizes)
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
    net = engine.net_index(topology)
    channels = _channels(topology, q, seed=[17, q, *hop_sizes])
    ops = engine.operands_from(channels, noise)
    rng = np.random.default_rng([18, q])
    p0 = np.stack([mo.random_init(topology, rng) for _ in range(q)])
    mu = np.full(steps, 0.1)
    weights = iteration_weights(steps)
    base = {"network": _network(hop_sizes), "q": q, "K": steps, "repeats": repeats}
    records = []

    def record(name, seconds, elements, **extra):
        records.append(
            dict(base, name=name, best_s=seconds,
                 us_per_element=1e6 * seconds / elements if elements else None, **extra)
        )

    record("step", best_of(repeats, lambda: list(engine.iterate_schedule(net, ops, p0, mu))),
           q * steps)
    for name, want_grad in (("loss", False), ("loss_grad", True)):
        seconds = best_of(repeats, lambda: engine.unrolled_loss(
            net, ops, ops, p0, mu, weights, want_grad=want_grad))
        record(name, seconds, q * steps)
    calib = channels[: max(1, q // 7)]
    seconds = best_of(repeats, lambda: pgd.calibrate_fixed_step(
        calib, noise, iterations=calib_iterations))
    record("calibrate", seconds, None, channels=len(calib), iterations=calib_iterations)
    infer = channels[: max(1, q // ENSEMBLE)]
    seeds = list(range(len(infer)))
    seconds = best_of(repeats, lambda: ensemble.infer_batch(infer, noise, mu, ENSEMBLE, seeds))
    record("infer", seconds, len(infer) * ENSEMBLE * steps, channels=len(infer),
           ensemble=ENSEMBLE)
    return records


def bench_train(hop_sizes, steps, channels, batches, repeats) -> list[dict]:
    topology = mo.Topology(hop_sizes)
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
    data = mo.build_dataset(topology, noise, channels, seed=20)
    full = mo.TrainConfig(
        iterations=steps, epochs=1, batch_count=batches, seed=21, init_step=0.1
    )
    noisy = dataclasses.replace(full, mode="noisy-csi")
    records = []
    for name, configs in (("train", [full]), ("train_pair", [full, noisy])):
        seconds = best_of(repeats, lambda: mo.train(data, configs))
        records.append({
            "name": name, "network": _network(hop_sizes), "q": channels // batches,
            "K": steps, "repeats": repeats, "best_s": seconds,
            "us_per_element": 1e6 * seconds / (channels * steps * len(configs)),
            "channels": channels, "batches": batches, "schedules": len(configs),
        })
    return records


def bench_grid(repeats, resolution) -> dict:
    topology = mo.Topology((2, 2))
    channel = _channels(topology, 1, seed=19)[0]
    noise = mo.NoiseProfile((1.0, 1.0))
    seconds = best_of(repeats, lambda: gridsearch.grid_capacity(channel, noise, resolution))
    return {"name": "grid", "network": "1x2x2", "q": 1, "repeats": repeats,
            "best_s": seconds, "us_per_element": None, "resolution": resolution}


def _bench_id(environment: dict) -> str:
    sha = environment["git_sha"]
    if sha is not None:
        diff = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT, capture_output=True
        )
        if diff.returncode == 0:
            return sha[:12]
    return "src-" + environment["source_sha256"][:12]


def environment_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": studyrun._git_sha(),
        "source_sha256": studyrun._source_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "manetopt": mo.__version__,
        "blas_threads": studyrun.PINNED_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT))
    parser.add_argument("--tiny", action="store_true", help="schema-check scale")
    args = parser.parse_args(argv)
    batches, steps, calib_iterations = BATCHES, STEPS, CALIB_ITERATIONS
    train_channels, train_batches = TRAIN_CHANNELS, TRAIN_BATCHES
    resolution = 1e-2
    if args.tiny:
        batches, steps, calib_iterations = TINY["batches"], TINY["steps"], TINY["calib_iterations"]
        train_channels, train_batches = TINY["train_channels"], TINY["train_batches"]
        resolution = 0.25
    records = []
    for hop_sizes in NETWORKS:
        for q in batches:
            records += bench_network(hop_sizes, q, steps, calib_iterations, args.repeats)
        records += bench_train(hop_sizes, steps, train_channels, train_batches, args.repeats)
    records.append(bench_grid(args.repeats, resolution))
    environment = environment_record()
    doc = {"environment": environment, "tiny": args.tiny, "records": records}
    path = Path(args.out) / f"BENCH_{_bench_id(environment)}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for r in records:
        per = "" if r["us_per_element"] is None else f" {r['us_per_element']:9.3f} us/elem"
        print(f"{r['name']:10s} {r['network']:7s} q={r['q']:<4d} {1e3 * r['best_s']:10.3f} ms{per}")
    print(f"wrote {path}")
    return path


if __name__ == "__main__":
    main()
