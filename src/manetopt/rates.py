"""SIC achievable rates and the max-min objective.

Reception at hop 1 is the source broadcast: relay m decodes message n at up to
``log2(1 + |h_m|^2 phi_n^2 / (|h_m|^2 I_n + sigma_1^2))`` where the
interference sum ``I_n`` runs over the other messages whose source coefficient
does not exceed ``phi_n`` (ties interfere).  At hop b >= 2 the transmitting
relays combine coherently into per-message gains ``g_{l,n}`` and the same SIC
structure applies to the gains.  A message's rate is the minimum over every
relay constraint and over the end users obliged to decode it on their SIC
path; the objective is the smallest message rate.

Rates are computed in double precision with log2 taken as log1p over ln 2.
Every function takes a batch: a sequence of q channels and a (q, rows, N)
stack of power matrices, one per channel, and returns per-element arrays
with the batch axis first.  One channel is a batch of one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, Topology, topology_of

__all__ = [
    "RateReport",
    "compute_report",
    "min_rate",
]


@dataclass(frozen=True)
class RateReport:
    """Every reception rate, the per-hop gains and the max-min summary."""

    first_hop_rates: np.ndarray                 # (q, M1, N)
    later_hop_rates: tuple[np.ndarray, ...]     # per hop b >= 2: (q, M_b, N)
    gains: tuple[np.ndarray, ...]               # per hop b >= 2: (q, M_b, N)
    message_rates: np.ndarray                   # (q, N)
    min_rate: np.ndarray                        # (q,)
    min_index: np.ndarray                       # (q,)

    def to_json(self) -> dict:
        return {
            "first_hop_rates": self.first_hop_rates.tolist(),
            "later_hop_rates": [r.tolist() for r in self.later_hop_rates],
            "gains": [g.tolist() for g in self.gains],
            "message_rates": self.message_rates.tolist(),
            "min_rate": self.min_rate.tolist(),
            "min_index": self.min_index.tolist(),
        }


def _batch(
    channels: Sequence[ChannelRealization], p: np.ndarray, noise: NoiseProfile
) -> tuple[Topology, engine.ChannelOperands, np.ndarray]:
    """The topology, the operands and the batch-last power matrices of a
    batch, after checking that ``p`` holds one matrix per channel."""
    channels = list(channels)
    if not channels:
        raise ValueError("a batch needs at least one channel")
    topology = topology_of(channels[0])
    if len(noise.hop_noise_vars) != topology.num_hops:
        raise ValueError("noise profile length does not match the hop count")
    p = np.asarray(p, dtype=np.float64)
    expected = (len(channels), topology.stacked_rows, topology.end_users)
    if p.shape != expected:
        raise ValueError(f"power matrices must have shape {expected}, got {p.shape}")
    return topology, engine.operands_from(channels, noise), engine.batch_last(p)


def compute_report(
    channels: Sequence[ChannelRealization], p: np.ndarray, noise: NoiseProfile
) -> RateReport:
    topology, ops, pq = _batch(channels, p, noise)
    rp = engine.rate_pass(topology, ops, pq)
    message = engine.batch_first(rp.message)
    return RateReport(
        first_hop_rates=engine.batch_first(rp.rates[0]),
        later_hop_rates=tuple(engine.batch_first(r) for r in rp.rates[1:]),
        gains=tuple(engine.batch_first(engine._hop_views(hop)[2]) for hop in rp.relay),
        message_rates=message,
        min_rate=message.min(axis=-1),
        min_index=message.argmin(axis=-1),
    )


def min_rate(
    channels: Sequence[ChannelRealization], p: np.ndarray, noise: NoiseProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Each element's smallest message rate and its message index (lowest
    index on ties)."""
    report = compute_report(channels, p, noise)
    return report.min_rate, report.min_index

