"""Multi-start inference: E unrolled runs, best candidate wins.

The objective is cheap to evaluate, so the ensemble scores every iterate of
every member under the available CSI and returns the argmax — scanning all
iterations dominates keeping only the final ones.  Ties go to the lowest
(member, iteration) pair.  A NaN candidate never beats a number; if every
candidate is NaN, member 0's first iterate is selected.  Member 0 starts from
the equal-power allocation, the rest from seeded uniform draws over the
feasible set, so ensembles with growing E are nested and the selected rate is
non-decreasing in E.

When the input is a pilot block the CSI is first estimated; selection then
uses the estimate (the true channel is unavailable at inference time) and
callers evaluate the realized rate separately.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, topology_of
from .pilots import PilotBlock, lmmse_estimate
from .power import random_init, uniform_init

__all__ = ["EnsembleResult", "BatchResult", "infer", "infer_batch", "member_starts"]

# Channels per batch in ``infer_batch``; bounds its peak memory.
_CHUNK = 64


@dataclass
class EnsembleResult:
    """Best allocation over all members and iterations.

    ``selected_min_rate_eval`` is measured under the CSI used for selection
    (the estimate, in noisy mode).  ``iteration_index`` counts iterates, so 1
    is the first update; initial guesses are never candidates.
    """

    selected: np.ndarray
    selected_min_rate_eval: float
    member_index: int
    iteration_index: int

    def to_json(self) -> dict:
        return {
            "selected": self.selected.tolist(),
            "selected_min_rate_eval": self.selected_min_rate_eval,
            "member_index": self.member_index,
            "iteration_index": self.iteration_index,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


@dataclass
class BatchResult:
    """Per-channel selections of ``infer_batch``, one row per channel; the
    fields mean what they mean in ``EnsembleResult``."""

    selected: np.ndarray                # (channels, rows, N)
    selected_min_rate_eval: np.ndarray  # (channels,)
    member_index: np.ndarray
    iteration_index: np.ndarray


def member_starts(topology, ensemble_size: int, seed: int) -> np.ndarray:
    """Initial guesses: equal power first, then seeded uniform draws."""
    starts = [uniform_init(topology)]
    for member in range(1, ensemble_size):
        starts.append(random_init(topology, np.random.default_rng([seed, member])))
    return np.stack(starts)


def infer(
    input_csi: ChannelRealization | PilotBlock,
    noise: NoiseProfile,
    mu: np.ndarray,
    ensemble_size: int,
    seed: int = 0,
    channel_var: float = 1.0,
) -> EnsembleResult:
    """``infer_batch`` on one channel, or on the LMMSE estimate of one pilot
    block."""
    if isinstance(input_csi, PilotBlock):
        csi = lmmse_estimate(input_csi, noise, channel_var)
    else:
        csi = input_csi
    batch = infer_batch([csi], noise, mu, ensemble_size, [seed])
    return EnsembleResult(
        selected=batch.selected[0],
        selected_min_rate_eval=float(batch.selected_min_rate_eval[0]),
        member_index=int(batch.member_index[0]),
        iteration_index=int(batch.iteration_index[0]),
    )


def infer_batch(
    channels: Sequence[ChannelRealization],
    noise: NoiseProfile,
    mu: np.ndarray,
    ensemble_size: int,
    seeds: Sequence[int],
) -> BatchResult:
    """Multi-start inference on many channels; channel ``i`` uses ``seeds[i]``.

    Every (channel, member) pair of a chunk of channels runs in one batch and
    keeps its best iterate so far (strict ``>``: the earliest iteration wins a
    tie, and a number replaces a NaN); the lowest member holding the
    channel's best value is selected.
    """
    if ensemble_size < 1:
        raise ValueError("the ensemble needs at least one member")
    mu = np.asarray(mu, dtype=np.float64)
    if len(mu) < 1:
        raise ValueError("the step schedule must contain at least one step")
    channels = list(channels)
    if not channels:
        raise ValueError("inference needs at least one channel")
    if len(seeds) != len(channels):
        raise ValueError(f"{len(seeds)} seeds for {len(channels)} channels")
    topology = topology_of(channels[0])
    net = engine.net_index(topology)
    parts = []
    for start in range(0, len(channels), _CHUNK):
        chunk = channels[start : start + _CHUNK]
        ops = engine.operands_from([ch for ch in chunk for _ in range(ensemble_size)], noise)
        starts = np.concatenate(
            [member_starts(topology, ensemble_size, s) for s in seeds[start : start + _CHUNK]]
        )
        trajectory = engine.iterate_schedule(net, ops, starts, mu)
        next(trajectory)  # initial guesses are never candidates
        best_p, best = next(trajectory)
        best_p = best_p.copy()
        iteration = np.ones(len(best), dtype=np.int64)
        for k, (p, rate) in enumerate(trajectory, start=2):
            better = (rate > best) | (np.isnan(best) & ~np.isnan(rate))
            best = np.where(better, rate, best)
            best_p[better] = p[better]
            iteration[better] = k
        ranked = np.where(np.isnan(best), -np.inf, best)
        member = np.argmax(ranked.reshape(len(chunk), ensemble_size), axis=1)
        pick = np.arange(len(chunk)) * ensemble_size + member
        parts.append((best_p[pick], best[pick], member, iteration[pick]))
    return BatchResult(*(np.concatenate(field) for field in zip(*parts)))
