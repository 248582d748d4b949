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
Inputs may carry leading batch axes (on the channel, the power matrix, or
both, provided they agree); scalar inputs yield scalars.
"""

from __future__ import annotations

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

    first_hop_rates: np.ndarray                 # (..., M1, N)
    later_hop_rates: tuple[np.ndarray, ...]     # per hop b >= 2: (..., M_b, N)
    gains: tuple[np.ndarray, ...]               # per hop b >= 2: (..., M_b, N)
    message_rates: np.ndarray                   # (..., N)
    min_rate: float | np.ndarray
    min_index: int | np.ndarray

    def to_json(self) -> dict:
        return {
            "first_hop_rates": np.asarray(self.first_hop_rates).tolist(),
            "later_hop_rates": [np.asarray(r).tolist() for r in self.later_hop_rates],
            "gains": [np.asarray(g).tolist() for g in self.gains],
            "message_rates": np.asarray(self.message_rates).tolist(),
            "min_rate": np.asarray(self.min_rate).tolist(),
            "min_index": np.asarray(self.min_index).tolist(),
        }


def _flatten(
    channel: ChannelRealization, p: np.ndarray, noise: NoiseProfile
) -> tuple[Topology, engine.ChannelOperands, np.ndarray, tuple[int, ...]]:
    topology = topology_of(channel)
    if len(noise.hop_noise_vars) != topology.num_hops:
        raise ValueError("noise profile length does not match the hop count")
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-2:] != (topology.stacked_rows, topology.end_users):
        raise ValueError(
            f"power matrix must end in shape "
            f"({topology.stacked_rows}, {topology.end_users}), got {p.shape}"
        )
    batch_p = p.shape[:-2]
    batch_ch = channel.first_hop.shape[:-1]
    if batch_p and batch_ch and batch_p != batch_ch:
        raise ValueError("channel and power-matrix batch axes must agree")
    batch = batch_p if batch_p else batch_ch
    q = int(np.prod(batch)) if batch else 1
    pq = p.reshape((q if batch_p else 1,) + p.shape[-2:])
    if batch_ch:
        first = channel.first_hop.reshape((q,) + channel.first_hop.shape[-1:])
        later = tuple(m.reshape((q,) + m.shape[-2:]) for m in channel.later_hops)
    else:
        first, later = channel.first_hop, channel.later_hops
    ops = engine.prepare_operands(first, later, np.asarray(noise.hop_noise_vars))
    return topology, ops, engine.batch_last(pq), batch


def compute_report(
    channel: ChannelRealization, p: np.ndarray, noise: NoiseProfile
) -> RateReport:
    topology, ops, pq, batch = _flatten(channel, p, noise)
    rp = engine.rate_pass(topology, ops, pq)

    def shape(arr: np.ndarray) -> np.ndarray:
        return np.moveaxis(arr, -1, 0).reshape(batch + arr.shape[:-1])

    message = shape(rp.message)
    min_idx = message.argmin(axis=-1)
    min_val = message.min(axis=-1)
    if not batch:
        min_idx = int(min_idx)
        min_val = float(min_val)
    return RateReport(
        first_hop_rates=shape(rp.rates[0]),
        later_hop_rates=tuple(shape(r) for r in rp.rates[1:]),
        gains=tuple(shape(g) for g in rp.gains[1:]),
        message_rates=message,
        min_rate=min_val,
        min_index=min_idx,
    )


def min_rate(
    channel: ChannelRealization, p: np.ndarray, noise: NoiseProfile
) -> tuple[float | np.ndarray, int | np.ndarray]:
    """Smallest message rate and its message index (lowest index on ties)."""
    report = compute_report(channel, p, noise)
    return report.min_rate, report.min_index

