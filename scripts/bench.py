#!/usr/bin/env python3
"""Kernel and stage timings of this checkout: writes ``BENCH_<id>.json``.

    python3 scripts/bench.py [--repeats N] [--out DIR] [--tiny]

Run from anywhere; it imports manetopt from this checkout's ``src`` with
BLAS pinned to one thread.  Every entry is the best of N repeats, timed with
``time.perf_counter``, on the networks 1x2x2, 1x3x3 and 1x4x4 (one source,
M relays, M end users) at batch sizes q = 20 and 350:

- ``step``: one projected-gradient step of ``engine.iterate_schedule``, per
  batch element (K steps over q elements);
- ``fixed_baseline``: the noise sweep's fixed-step run on 1x4x4 at -10 dB,
  ``pgd.run_pgd_batch`` at ``pgd.FIXED_STEP`` from uniform starts on 200
  channels, cut to 200 steps and keeping the two rows the sweep reads
  (iterations K and 200), per element step.  Unlike ``step``'s random
  starts, most of its steps move only the source row;
- ``sweep_infer``: the noise sweep's inference on 1x4x4 at -10 dB,
  ``ensemble.infer_batch`` on 200 channels of E members at the frozen K=40
  schedule of the study benchmark's ``sweep-4x4`` workload
  (``studybench/inputs/mu_4x4_m10db.json``), per element step;
  ``fixed_baseline``, ``sweep_infer`` and ``grid`` also give
  ``peak_traced_mb``, the ``tracemalloc`` peak (MB of 2^20 bytes) of one
  more, untimed call;
- ``rate_pass``, ``gradient_pass``, ``project_with_tangent`` and
  ``project_adjoint``: the kernels of one step, each called K times on the
  same random feasible iterates (the projection at the point one step of
  size 0.1 reaches, the adjoint of the gradient there), per batch element;
- ``loss`` and ``loss_grad``: ``engine.unrolled_loss`` at K steps without
  and with the step-size gradient, per call and per element step;
  ``loss_grad_noisy``: the same with the step-size gradient, driven by
  pilot estimates of the channels and scored on the channels themselves;
- ``calibrate``: ``pgd.calibrate_fixed_step`` on q // 7 channels (the seven
  default candidates make q runs) at a reduced iteration count;
- ``infer``: ``ensemble.infer_batch`` on q // E channels of E members;
- ``grid``: ``gridsearch.grid_capacity`` on one channel of a two-user
  network: 1x2x2 at resolution 0.01 (101^2 + 101 points) and 1x3x2 at 0.02
  (51^3 + 51 points, a relay block that spans many chunks);
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
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "studybench"))
sys.path.insert(0, str(ROOT / "src"))

import run as studyrun  # noqa: E402  (studybench/run.py; imports no numpy)

os.environ.update(studyrun.PINNED_THREADS)

import numpy as np  # noqa: E402

import manetopt as mo  # noqa: E402
from manetopt import engine, ensemble, experiments, gridsearch, pgd, power  # noqa: E402
from manetopt.training import iteration_weights  # noqa: E402

NETWORKS = ((2, 2), (3, 3), (4, 4))
BATCHES = (20, 350)
STEPS = 40
CALIB_ITERATIONS = 500
ENSEMBLE = 6
TRAIN_CHANNELS = 200
TRAIN_BATCHES = 10
FIXED_CHANNELS = 200
FIXED_STEPS = 200
GRIDS = (((2, 2), 1e-2), ((3, 2), 0.02))  # (hop sizes, resolution)
TINY = {"batches": (7,), "steps": 2, "calib_iterations": 3, "train_channels": 4,
        "train_batches": 2}


def best_of(repeats: int, fn) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def peak_traced_mb(fn) -> float:
    """The ``tracemalloc`` peak of one call of ``fn``, in MB of 2^20 bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _channels(topology, count, seed):
    rng = np.random.default_rng(seed)
    return [mo.sample_channel(topology, 1.0, rng) for _ in range(count)]


def _network(hop_sizes) -> str:
    return "1x" + "x".join(str(m) for m in hop_sizes)


def bench_network(hop_sizes, q, steps, calib_iterations, repeats) -> list[dict]:
    topology = mo.Topology(hop_sizes)
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
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

    record("step", best_of(repeats, lambda: list(engine.iterate_schedule(topology, ops, p0, mu))),
           q * steps)
    p = engine.batch_last(p0)
    rp = engine.rate_pass(topology, ops, p)
    grad = engine.gradient_pass(topology, ops, rp)[0]
    x = p + 0.1 * grad
    for name, kernel in (
        ("rate_pass", lambda: engine.rate_pass(topology, ops, p)),
        ("gradient_pass", lambda: engine.gradient_pass(topology, ops, rp)),
        ("project_with_tangent", lambda: power.project_with_tangent(x)),
        ("project_adjoint", lambda: power.project_adjoint(x, grad)),
    ):
        record(name, best_of(repeats, lambda: [kernel() for _ in range(steps)]), q * steps)
    estimates = mo.lmmse_estimates(channels, [noise] * q, [rng] * q)
    est_ops = engine.operands_from(estimates, noise)
    for name, drive, want_grad in (
        ("loss", ops, False), ("loss_grad", ops, True), ("loss_grad_noisy", est_ops, True)
    ):
        seconds = best_of(repeats, lambda: engine.unrolled_loss(
            topology, drive, ops, p0, mu, weights, want_grad=want_grad))
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


def bench_fixed_baseline(channels, steps, long_steps, repeats) -> dict:
    topology = mo.Topology((4, 4))
    noise = experiments.noise_profile(-10.0, topology.num_hops)
    test = _channels(topology, channels, seed=22)
    starts = np.broadcast_to(
        power.uniform_init(topology), (channels, topology.stacked_rows, topology.end_users)
    )
    mu = np.full(max(steps, long_steps), pgd.FIXED_STEP)

    def run():
        pgd.run_pgd_batch(test, noise, starts, mu, keep=(steps, long_steps))

    seconds = best_of(repeats, run)
    return {"name": "fixed_baseline", "network": "1x4x4", "q": channels, "K": len(mu),
            "repeats": repeats, "best_s": seconds,
            "us_per_element": 1e6 * seconds / (channels * len(mu)), "noise_db": -10.0,
            "peak_traced_mb": peak_traced_mb(run)}


def bench_sweep_infer(channels, steps, repeats) -> dict:
    topology = mo.Topology((4, 4))
    noise = experiments.noise_profile(-10.0, topology.num_hops)
    test = _channels(topology, channels, seed=23)
    schedule = json.loads((ROOT / "studybench" / "inputs" / "mu_4x4_m10db.json").read_text())
    mu = np.asarray(schedule["steps"][:steps], dtype=np.float64)
    seeds = list(range(channels))

    def run():
        ensemble.infer_batch(test, noise, mu, ENSEMBLE, seeds)

    seconds = best_of(repeats, run)
    return {"name": "sweep_infer", "network": "1x4x4", "q": channels * ENSEMBLE, "K": len(mu),
            "repeats": repeats, "best_s": seconds,
            "us_per_element": 1e6 * seconds / (channels * ENSEMBLE * len(mu)),
            "noise_db": -10.0, "channels": channels, "ensemble": ENSEMBLE,
            "peak_traced_mb": peak_traced_mb(run)}


def bench_grid(hop_sizes, repeats, resolution) -> dict:
    topology = mo.Topology(hop_sizes)
    channel = _channels(topology, 1, seed=19)[0]
    noise = mo.NoiseProfile((1.0, 1.0))

    def run():
        gridsearch.grid_capacity(channel, noise, resolution)

    seconds = best_of(repeats, run)
    return {"name": "grid", "network": _network(hop_sizes), "q": 1, "repeats": repeats,
            "best_s": seconds, "us_per_element": None, "resolution": resolution,
            "peak_traced_mb": peak_traced_mb(run)}


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
    fixed_channels, fixed_steps = FIXED_CHANNELS, FIXED_STEPS
    grids = GRIDS
    if args.tiny:
        batches, steps, calib_iterations = TINY["batches"], TINY["steps"], TINY["calib_iterations"]
        train_channels, train_batches = TINY["train_channels"], TINY["train_batches"]
        fixed_channels, fixed_steps = TINY["batches"][0], TINY["steps"]
        grids = tuple((hop_sizes, 0.25) for hop_sizes, _ in GRIDS)
    records = []
    for hop_sizes in NETWORKS:
        for q in batches:
            records += bench_network(hop_sizes, q, steps, calib_iterations, args.repeats)
        records += bench_train(hop_sizes, steps, train_channels, train_batches, args.repeats)
    records.append(bench_fixed_baseline(fixed_channels, steps, fixed_steps, args.repeats))
    records.append(bench_sweep_infer(fixed_channels, steps, args.repeats))
    records += [bench_grid(hop_sizes, args.repeats, res) for hop_sizes, res in grids]
    environment = environment_record()
    doc = {"environment": environment, "tiny": args.tiny, "records": records}
    path = Path(args.out) / f"BENCH_{_bench_id(environment)}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for r in records:
        per = "" if r["us_per_element"] is None else f" {r['us_per_element']:9.3f} us/elem"
        print(f"{r['name']:20s} {r['network']:7s} q={r['q']:<4d} {1e3 * r['best_s']:10.3f} ms{per}")
    print(f"wrote {path}")
    return path


if __name__ == "__main__":
    main()
