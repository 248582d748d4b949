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

import numpy as np

from .channels import ChannelRealization, NoiseProfile, Topology
from .engine import stack_channels

__all__ = ["make_pilots", "lmmse_estimates"]


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


def lmmse_estimates(
    channels: Sequence[ChannelRealization],
    noises: Sequence[NoiseProfile],
    pilots: tuple[np.ndarray, ...],
    rngs: Sequence[np.random.Generator],
    channel_var: float = 1.0,
) -> list[ChannelRealization]:
    """Linear MMSE estimate of every link of every channel from its received
    pilots.

    Channel i receives ``pilots`` (``make_pilots``) with circularly symmetric
    AWGN of variance sigma_b^2 per received entry at hop b, from ``noises[i]``
    (the same sigma as data reception; a zero variance yields exact
    observations), drawn from ``rngs[i]`` hop by hop, real parts before
    imaginary parts; a generator passed for several channels is drawn from
    channel after channel.  The
    received blocks and the estimates of all channels are built as stacked
    arrays; the estimates are views of them.
    """
    if not len(noises) == len(rngs) == len(channels):
        raise ValueError("one noise profile and one generator per channel are required")
    if not channels:
        return []
    var = np.array([n.hop_noise_vars for n in noises], dtype=np.float64).reshape(len(channels), -1)
    hops = 1 + len(channels[0].later_hops)
    if len(pilots) != hops or var.shape[1] != hops:
        raise ValueError("one pilot set and one noise variance per hop are required")
    first, later = stack_channels(list(channels))
    first, *later = _estimates(_received(first, later, var, pilots, rngs), var, pilots, channel_var)
    return [
        ChannelRealization(first_hop=first[i], later_hops=tuple(m[i] for m in later))
        for i in range(len(channels))
    ]

