"""Multi-start inference: E unrolled runs, best candidate wins.

The objective is cheap to evaluate, so the ensemble scores every iterate of
every member under the available CSI and returns the argmax — scanning all
iterations dominates keeping only the final ones.  Ties go to the lowest
(member, iteration) pair.  A NaN candidate never beats a number; if every
candidate is NaN, member 0's first iterate is selected.  Member 0 starts from
the equal-power allocation, the rest from seeded uniform draws over the
feasible set, so ensembles with growing E are nested and the selected rate is
non-decreasing in E.

Under noisy CSI the channels passed in are LMMSE estimates
(``pilots.lmmse_estimates``); selection then uses the estimate (the true
channel is unavailable at inference time) and callers evaluate the realized
rate separately.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, topology_of
from .power import project, uniform_init

__all__ = ["BatchResult", "infer_batch", "member_starts"]

# Batch columns (channels x members) per batch in ``infer_batch``; bounds its
# peak memory whatever the ensemble size.  A step costs about a hundred numpy
# calls whatever its width, so wider batches are cheaper per column: 2048
# runs the noise sweep's 200 channels x E=6 (1200 columns) and train-3x3's
# 480 as one batch.  On 1x4x4 at K=40 the sweep's inference took 2.39 us per
# column step at 384 columns (four batches) and 1.32 us at 1200 (2-core
# x86-64, one BLAS thread, medians of 16 interleaved runs, start draws
# excluded); the study's peak RSS grows by about 2 MB (``sweep-4x4``,
# ``studybench/run.py --seconds 10``, 2 seeds: 37.6 MB in four batches,
# 39.6 MB in one).
_CHUNK = 2048


@dataclass
class BatchResult:
    """Per-channel best allocation over all members and iterations, one row
    per channel.

    ``selected_min_rate_eval`` is measured under the CSI used for selection
    (the estimate, in noisy mode).  ``iteration_index`` counts iterates, so 1
    is the first update; initial guesses are never candidates.
    """

    selected: np.ndarray                # (channels, rows, N)
    selected_min_rate_eval: np.ndarray  # (channels,)
    member_index: np.ndarray
    iteration_index: np.ndarray


def member_starts(topology, ensemble_size: int, seeds: Sequence[int]) -> np.ndarray:
    """Initial guesses of every seed, stacked seed-major into
    (len(seeds) * E, rows, N): for each seed, equal power first, then for
    member m a uniform draw from ``default_rng([seed, m])``, projected as by
    ``random_init``.  One projection serves all of them: it acts on each row
    alone, and returns the feasible uniform row unchanged."""
    shape = (topology.stacked_rows, topology.end_users)
    raw = np.empty((len(seeds), ensemble_size) + shape)
    raw[:, 0] = uniform_init(topology)
    for i, seed in enumerate(seeds):
        for member in range(1, ensemble_size):
            raw[i, member] = np.random.default_rng([seed, member]).uniform(0.0, 1.0, size=shape)
    return project(raw).reshape((-1,) + shape)


def infer_batch(
    channels: Sequence[ChannelRealization],
    noise: NoiseProfile,
    mu: np.ndarray,
    ensemble_size: int,
    seeds: Sequence[int],
) -> BatchResult:
    """Multi-start inference on many channels; channel ``i`` uses ``seeds[i]``.

    ``mu`` is (K,), or (S, K) for S schedules on S equal contiguous groups of
    the channels, as in ``engine.unrolled_loss``: group s is channels
    ``s*C/S`` to ``(s+1)*C/S - 1`` of C and steps by ``mu[s]``.  Each
    channel's result is the one a call on it alone would give.

    Every (channel, member) pair of a chunk of channels runs in one batch of
    at most ``_CHUNK`` columns (of one channel at least) and keeps its best
    iterate so far (strict ``>``: the earliest iteration wins a tie, and a
    number replaces a NaN); the lowest member holding the channel's best
    value is selected.  A chunk's starts are ``member_starts`` of its seeds.
    """
    if ensemble_size < 1:
        raise ValueError("the ensemble needs at least one member")
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape[-1] < 1:
        raise ValueError("the step schedule must contain at least one step")
    channels = list(channels)
    if not channels:
        raise ValueError("inference needs at least one channel")
    if len(seeds) != len(channels):
        raise ValueError(f"{len(seeds)} seeds for {len(channels)} channels")
    groups = mu.reshape(-1, mu.shape[-1])
    if len(channels) % len(groups):
        raise ValueError(
            f"{len(channels)} channels do not split into {len(groups)} equal groups"
        )
    size = len(channels) // len(groups)
    topology = topology_of(channels[0])
    per_chunk = max(1, _CHUNK // ensemble_size)
    parts = []
    for start in range(0, len(channels), per_chunk):
        chunk = channels[start : start + per_chunk]
        steps = mu
        if mu.ndim == 2:
            # each element's step per iteration, (K, elements)
            owner = np.arange(start, start + len(chunk)) // size
            steps = np.repeat(groups[owner].T, ensemble_size, axis=1)
        parts.append(_chunk_best(
            topology, chunk, noise, steps, ensemble_size, seeds[start : start + per_chunk]
        ))
    return BatchResult(*(np.concatenate(field) for field in zip(*parts)))


def _chunk_best(topology, chunk, noise, steps, ensemble_size: int, seeds) -> tuple:
    """``infer_batch``'s per-channel fields for the channels ``chunk``, run
    as one batch at ``steps``.  Nothing the batch builds outlives the call,
    so a single chunk's arrays are alive at a time."""
    ops = engine.operands_from(chunk, noise, repeat=ensemble_size)
    trajectory = engine.iterate_schedule(
        topology, ops, member_starts(topology, ensemble_size, seeds), steps
    )
    next(trajectory)  # initial guesses are never candidates
    p, best = next(trajectory)
    # batch-last, as the iterates are laid out
    best_p = p.transpose(1, 2, 0).copy()
    iteration = np.ones(len(best), dtype=np.int64)
    for k, (p, rate) in enumerate(trajectory, start=2):
        better = (rate > best) | (np.isnan(best) & ~np.isnan(rate))
        best = np.where(better, rate, best)
        np.copyto(best_p, p.transpose(1, 2, 0), where=better)
        iteration[better] = k
    ranked = np.where(np.isnan(best), -np.inf, best)
    member = np.argmax(ranked.reshape(len(chunk), ensemble_size), axis=1)
    pick = np.arange(len(chunk)) * ensemble_size + member
    return engine.batch_first(best_p[..., pick]), best[pick], member, iteration[pick]
