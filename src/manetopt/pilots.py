"""Pilot transmission and LMMSE channel estimation.

Each coherence block opens with T pilot symbols, T being the largest
transmitter count over all hops.  Transmitter i of a hop sends the i-th
standard basis vector of length T, so pilots are exactly orthonormal and
simultaneous transmitters do not interfere in the estimates.  The LMMSE
estimate of a link shrinks the matched-filter output by
``channel_var / (channel_var + sigma_b^2)``; with noiseless pilots it
reproduces the channel exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import ChannelRealization, NoiseProfile, Topology, topology_of
from .engine import stack_channels

__all__ = [
    "PilotBlock",
    "make_pilots",
    "simulate_pilot_rx",
    "lmmse_estimate",
    "lmmse_estimates",
    "block_topology",
]


@dataclass(frozen=True)
class PilotBlock:
    """Pilot vectors and the noisy observations they produced, per hop."""

    pilot_length: int
    pilots: tuple[np.ndarray, ...]     # per hop: (transmitters, T)
    received: tuple[np.ndarray, ...]   # per hop: (receivers, T)


def make_pilots(topology: Topology) -> tuple[np.ndarray, ...]:
    """Orthonormal pilot sets: transmitter i sends basis vector e_i."""
    counts = [topology.transmitters(hop) for hop in range(1, topology.num_hops + 1)]
    t = max(counts)
    basis = np.eye(t, dtype=np.complex128)
    return tuple(basis[:c] for c in counts)


def _received(
    first: np.ndarray,
    later: Sequence[np.ndarray],
    var: np.ndarray,
    pilots: tuple[np.ndarray, ...],
    rngs: Sequence[np.random.Generator],
) -> list[np.ndarray]:
    """Received pilots, (count, receivers, T) per hop, of stacked channels:
    ``first`` (count, M1) and ``later`` (count, M_{b-1}, M_b) per hop b >= 2,
    with noise variances ``var`` (count, hops).  Channel i draws its noise
    from ``rngs[i]``, hop by hop, real parts before imaginary parts;
    generators may repeat, and are then drawn from channel after channel."""
    clean = [first[:, :, None] * pilots[0][0]] + [
        np.swapaxes(mat, -1, -2) @ pilots[j + 1] for j, mat in enumerate(later)
    ]
    draws = [np.empty((2,) + c.shape) for c in clean]
    for i, gen in enumerate(rngs):
        for d in draws:
            d[0, i] = gen.standard_normal(d.shape[2:])
            d[1, i] = gen.standard_normal(d.shape[2:])
    scale = np.sqrt(var / 2.0)[:, :, None, None]
    return [
        c + (re * s + 1j * im * s) for c, (re, im), s in zip(clean, draws, scale.swapaxes(0, 1))
    ]


def _estimates(
    received: Sequence[np.ndarray],
    var: np.ndarray,
    pilots: tuple[np.ndarray, ...],
    channel_var: float,
) -> list[np.ndarray]:
    """LMMSE estimates of stacked received pilots (``_received``): the first
    hop (count, M1), then (count, M_{b-1}, M_b) per hop b >= 2."""
    if not channel_var > 0:
        raise ValueError("channel_var must be positive")
    shrink = channel_var / (channel_var + var)
    return [shrink[:, :1] * (received[0] @ pilots[0][0].conj())] + [
        shrink[:, b, None, None] * (pilots[b].conj() @ np.swapaxes(received[b], -1, -2))
        for b in range(1, len(received))
    ]


def simulate_pilot_rx(
    channel: ChannelRealization,
    noise: NoiseProfile,
    pilots: tuple[np.ndarray, ...],
    rng: np.random.Generator | int | None = None,
) -> PilotBlock:
    """Received pilot vectors at every node, with per-hop AWGN.

    Noise is circularly symmetric with per-component variance sigma_b^2 (the
    same sigma as data reception); a zero variance yields exact observations.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    topology = topology_of(channel)
    if len(pilots) != topology.num_hops:
        raise ValueError("one pilot set per hop is required")
    received = _received(
        channel.first_hop[None],
        [m[None] for m in channel.later_hops],
        np.array([noise.hop_noise_vars], dtype=np.float64),
        pilots,
        [gen],
    )
    return PilotBlock(
        pilot_length=pilots[0].shape[-1],
        pilots=tuple(pilots),
        received=tuple(r[0] for r in received),
    )


def lmmse_estimate(
    block: PilotBlock, noise: NoiseProfile, channel_var: float = 1.0
) -> ChannelRealization:
    """Linear MMSE estimate of every link from the received pilots."""
    if len(noise.hop_noise_vars) != len(block.received):
        raise ValueError("noise profile length does not match the pilot block")
    first, *later = _estimates(
        [r[None] for r in block.received],
        np.array([noise.hop_noise_vars], dtype=np.float64),
        block.pilots,
        channel_var,
    )
    return ChannelRealization(first_hop=first[0], later_hops=tuple(m[0] for m in later))


def lmmse_estimates(
    channels: Sequence[ChannelRealization],
    noises: Sequence[NoiseProfile],
    pilots: tuple[np.ndarray, ...],
    rngs: Sequence[np.random.Generator],
    channel_var: float = 1.0,
) -> list[ChannelRealization]:
    """``lmmse_estimate(simulate_pilot_rx(channels[i], noises[i], pilots,
    rngs[i]), noises[i], channel_var)`` for every i, with the received
    blocks and the estimates of all channels built as stacked arrays; the
    estimates are views of them."""
    if not len(noises) == len(rngs) == len(channels):
        raise ValueError("one noise profile and one generator per channel are required")
    if not channels:
        return []
    var = np.array([n.hop_noise_vars for n in noises], dtype=np.float64).reshape(len(channels), -1)
    first, later = stack_channels(list(channels))
    first, *later = _estimates(_received(first, later, var, pilots, rngs), var, pilots, channel_var)
    return [
        ChannelRealization(first_hop=first[i], later_hops=tuple(m[i] for m in later))
        for i in range(len(channels))
    ]


def block_topology(block: PilotBlock) -> Topology:
    """Hop structure implied by the receiver counts of a pilot block."""
    return Topology(tuple(y.shape[0] for y in block.received))
