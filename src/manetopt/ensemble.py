"""Multi-start inference: E unrolled runs, best candidate wins.

The objective is cheap to evaluate, so the ensemble scores every iterate of
every member under the available CSI and returns the argmax — scanning all
iterations dominates keeping only the final ones (a flag restores that
behaviour for ablations).  Member 0 starts from the equal-power allocation,
the rest from seeded uniform draws over the feasible set, so ensembles with
growing E are nested and the selected rate is non-decreasing in E.

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
from .pgd import PgdTrajectory, run_pgd_batch
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
    trajectories: tuple[PgdTrajectory, ...] | None = None

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
    final_only: bool = False,
    keep_trajectories: bool = False,
) -> EnsembleResult:
    if ensemble_size < 1:
        raise ValueError("the ensemble needs at least one member")
    if isinstance(input_csi, PilotBlock):
        csi = lmmse_estimate(input_csi, noise, channel_var)
    else:
        csi = input_csi
    topology = topology_of(csi)
    mu = np.asarray(mu, dtype=np.float64)
    steps = len(mu)
    if steps < 1:
        raise ValueError("the step schedule must contain at least one step")

    starts = member_starts(topology, ensemble_size, seed)
    rates, iterates = run_pgd_batch(csi, noise, starts, mu, record_iterates=True)

    # Candidate table (member, iteration); C-order argmax ties break to the
    # lowest (member, iteration) pair.
    if final_only:
        table = rates[steps:].T
        offset = steps
    else:
        table = rates[1:].T
        offset = 1
    flat = int(np.argmax(table))
    member, slot = divmod(flat, table.shape[1])
    iteration = slot + offset
    trajectories = None
    if keep_trajectories:
        trajectories = tuple(
            PgdTrajectory(
                iterates=[iterates[k, e] for k in range(steps + 1)],
                min_rates=rates[:, e],
            )
            for e in range(ensemble_size)
        )
    return EnsembleResult(
        selected=iterates[iteration, member].copy(),
        selected_min_rate_eval=float(table[member, slot]),
        member_index=member,
        iteration_index=iteration,
        trajectories=trajectories,
    )


def infer_batch(
    channels: Sequence[ChannelRealization],
    noise: NoiseProfile,
    mu: np.ndarray,
    ensemble_size: int,
    seeds: Sequence[int],
) -> BatchResult:
    """``infer`` on many channels at once; channel ``i`` uses ``seeds[i]``.

    The results are bit-identical to one ``infer`` call per channel.  Every
    (channel, member) pair of a chunk of channels runs in one batch and keeps
    its best iterate so far (strict ``>``: the earliest iteration wins a tie);
    the lowest member holding the channel's best value is selected.
    """
    if ensemble_size < 1:
        raise ValueError("the ensemble needs at least one member")
    mu = np.asarray(mu, dtype=np.float64)
    if len(mu) < 1:
        raise ValueError("the step schedule must contain at least one step")
    channels = list(channels)
    topology = topology_of(channels[0])
    net = engine.net_index(topology)
    sig2 = np.asarray(noise.hop_noise_vars)
    parts = []
    for start in range(0, len(channels), _CHUNK):
        chunk = channels[start : start + _CHUNK]
        first, later = engine.stack_channels(chunk)
        ops = engine.prepare_operands(
            np.repeat(first, ensemble_size, axis=0),
            tuple(np.repeat(mat, ensemble_size, axis=0) for mat in later),
            sig2,
        )
        starts = np.concatenate(
            [member_starts(topology, ensemble_size, s) for s in seeds[start : start + _CHUNK]]
        )
        trajectory = engine.iterate_schedule(net, ops, starts, mu)
        next(trajectory)  # initial guesses are never candidates
        best_p, best = next(trajectory)
        best_p = best_p.copy()
        iteration = np.ones(len(best), dtype=np.int64)
        for k, (p, rate) in enumerate(trajectory, start=2):
            better = rate > best
            best = np.where(better, rate, best)
            best_p[better] = p[better]
            iteration[better] = k
        member = np.argmax(best.reshape(len(chunk), ensemble_size), axis=1)
        pick = np.arange(len(chunk)) * ensemble_size + member
        parts.append((best_p[pick], best[pick], member, iteration[pick]))
    return BatchResult(*(np.concatenate(field) for field in zip(*parts)))
