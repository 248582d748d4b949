"""Projected gradient ascent on the min-rate objective.

``run_pgd_batch`` applies K ascent steps with a per-iteration step size to
a batch of (channel, start) pairs in lockstep and returns the min rates, and
optionally the iterates, of the iterations it is asked to ``keep``: all K+1
by default.  It is PGD's one entry point: one channel from one start is a
batch of one.  The scenarios' fixed-step baseline keeps the one or two rows
its tables read, ``iter-curve`` keeps every row, and ``calibrate_fixed_step``
keeps the tail of each candidate's run.  Training and the ensemble do not
come here: they run ``engine.unrolled_loss`` and ``engine.iterate_schedule``.
The classic fixed-step baseline runs at ``FIXED_STEP``;
``calibrate_fixed_step`` is the rule that value comes from.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, topology_of
from .power import is_feasible, uniform_init

__all__ = [
    "run_pgd_batch",
    "calibrate_fixed_step",
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
    all K+1.  An empty batch, starts and channels of different counts, a
    start that ``is_feasible`` rejects, or a kept iteration outside 0..K are
    refused (``ValueError``) before any step.
    """
    mu = np.asarray(mu, dtype=np.float64)
    p0 = np.asarray(p0, dtype=np.float64)
    if not len(channels):
        raise ValueError("a PGD batch needs at least one channel")
    if not is_feasible(p0):
        raise ValueError("every start of a PGD batch must be feasible")
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
    smallest candidate never runs.  The others run as one ``run_pgd_batch``
    call, candidates first, that keeps only the tail iterations.
    Every candidate must be finite (``ValueError`` otherwise).
    """
    if not np.isfinite(np.asarray(candidates, dtype=np.float64)).all():
        # the smallest candidate never runs, so run_pgd_batch cannot refuse it
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
    kept = min(iterations + 1, max(2, int(round(tail_fraction * iterations))))
    rates, _ = run_pgd_batch(
        list(channels) * len(tried), noise, p0, mu,
        keep=range(iterations + 1 - kept, iterations + 1),
    )
    tail = rates.reshape(kept, len(tried), count).mean(axis=2)
    settled = np.all(np.diff(tail, axis=0) >= -tol, axis=0)
    return tried[int(np.argmax(settled))] if settled.any() else ordered[-1]

