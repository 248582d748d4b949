"""Projected gradient ascent on the min-rate objective.

``run_pgd_batch`` applies K ascent steps with a per-iteration step size to
a batch of (channel, start) pairs in lockstep and returns the min rates, and
optionally the iterates, of the iterations it is asked to ``keep``: all K+1
by default.  The scenarios' fixed-step baseline keeps the one or two rows
its tables read; ``iter-curve`` and ``run_pgd``, which runs one channel from
one start, keep every iterate.  Training and the ensemble do not come here:
they run ``engine.unrolled_loss`` and ``engine.iterate_schedule``.  The
classic fixed-step baseline runs at ``FIXED_STEP``; ``calibrate_fixed_step``
is the rule that value comes from.
"""

from __future__ import annotations

import csv
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, topology_of
from .power import is_feasible, uniform_init

__all__ = [
    "PgdTrajectory",
    "run_pgd",
    "run_pgd_batch",
    "calibrate_fixed_step",
    "write_trajectory_csv",
    "FIXED_STEP",
    "STEP_CANDIDATES",
]

STEP_CANDIDATES = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)

# The constant step of the fixed-step baseline, and the initial value of every
# learned schedule.  It is what ``calibrate_fixed_step`` returns on a
# calibration set of the default 50 channels: no larger candidate settles
# there within 5000 iterations, so the rule falls back to its smallest
# candidate.  On a set of a few channels the rule can settle on a larger
# step; the baseline does not follow it there.
FIXED_STEP = 0.01


@dataclass
class PgdTrajectory:
    """Every iterate P^(0)..P^(K) and its min rate on the driving channel."""

    iterates: list[np.ndarray]
    min_rates: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.iterates) - 1


def run_pgd(
    channel: ChannelRealization,
    noise: NoiseProfile,
    p0: np.ndarray,
    mu: Sequence[float] | np.ndarray,
) -> PgdTrajectory:
    """Apply the step schedule ``mu`` from ``p0``, keeping all iterates."""
    p0 = np.asarray(p0, dtype=np.float64)
    if not is_feasible(p0):
        raise ValueError("run_pgd requires a feasible starting point")
    rates, iterates = run_pgd_batch([channel], noise, p0[None], mu, record_iterates=True)
    return PgdTrajectory(iterates=list(iterates[:, 0]), min_rates=rates[:, 0])


def run_pgd_batch(
    channels: Sequence[ChannelRealization],
    noise: NoiseProfile,
    p0: np.ndarray,
    mu: Sequence[float] | np.ndarray,
    record_iterates: bool = False,
    keep: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the schedule over a batch: a sequence of q channels and the
    (q, rows, N) stack ``p0`` of their starts (several starts on one
    channel repeat it in the sequence).  Returns the min rates on the
    driving channels, of shape (len(keep), q) with row i at iteration
    ``keep[i]``, and, optionally, the iterates of those rows.  ``keep``
    lists iterations in 0..K in any order, repeats allowed; ``None`` keeps
    all K+1.  An empty batch, starts and channels of different counts, or a
    kept iteration outside 0..K are refused (``ValueError``) before any step.
    """
    mu = np.asarray(mu, dtype=np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    if not len(channels):
        raise ValueError("a PGD batch needs at least one channel")
    keep = range(len(mu) + 1) if keep is None else [operator.index(k) for k in keep]
    if not all(0 <= k <= len(mu) for k in keep):
        raise ValueError(f"every kept iteration must lie in 0..{len(mu)}")
    rows: dict[int, list[int]] = {}
    for i, k in enumerate(keep):
        rows.setdefault(k, []).append(i)
    topology = topology_of(channels[0])
    schedule = engine.iterate_schedule(topology, engine.operands_from(channels, noise), p0, mu)
    rates = np.empty((len(keep), len(p0)))
    iterates = np.empty((len(keep),) + p0.shape) if record_iterates else None
    for k, (p, rate) in enumerate(schedule):
        for i in rows.get(k, ()):
            rates[i] = rate
            if record_iterates:
                iterates[i] = p
    return rates, iterates


def calibrate_fixed_step(
    channels: Sequence[ChannelRealization],
    noise: NoiseProfile,
    candidates: Sequence[float] = STEP_CANDIDATES,
    iterations: int = 5000,
    tail_fraction: float = 0.1,
    tol: float = 1e-12,
) -> float:
    """Constant step size for the classic fixed-step baseline.

    Picks the largest candidate whose channel-averaged min-rate sequence is
    non-decreasing (within ``tol``) over the final ``tail_fraction`` of the
    run, i.e. the largest step that has settled rather than oscillating, and
    the smallest candidate if none of the larger ones settles.  So the
    smallest candidate never runs.  The others run as one batch, candidates
    first, and only the tail of each candidate's mean sequence is kept.
    Every candidate must be finite (``ValueError`` otherwise).
    """
    if not np.isfinite(np.asarray(candidates, dtype=np.float64)).all():
        # the smallest candidate never runs, so iterate_schedule cannot refuse it
        raise ValueError("every step size must be finite")
    topology = topology_of(channels[0])
    ordered = sorted(float(c) for c in candidates)[::-1]
    tried = ordered[:-1]
    if not tried:
        return ordered[-1]
    count = len(channels)
    q = len(tried) * count
    p0 = np.broadcast_to(
        uniform_init(topology), (q, topology.stacked_rows, topology.end_users)
    )
    mu = np.broadcast_to(np.repeat(tried, count), (iterations, q))
    ops = engine.operands_from(list(channels) * len(tried), noise)
    keep = min(iterations + 1, max(2, int(round(tail_fraction * iterations))))
    tail = np.empty((keep, len(tried)))
    for k, (_, rates) in enumerate(engine.iterate_schedule(topology, ops, p0, mu)):
        row = k - (iterations + 1 - keep)
        if row >= 0:
            tail[row] = rates.reshape(len(tried), count).mean(axis=1)
    settled = np.all(np.diff(tail, axis=0) >= -tol, axis=0)
    return tried[int(np.argmax(settled))] if settled.any() else ordered[-1]


def write_trajectory_csv(trajectory: PgdTrajectory, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "min_rate"])
        for k, rate in enumerate(trajectory.min_rates):
            writer.writerow([k, format(float(rate), ".17g")])
