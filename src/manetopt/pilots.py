"""LMMSE channel estimation from orthonormal pilots, in closed form.

Each coherence block opens with T pilot symbols, T being the largest
transmitter count over all hops.  Transmitter i of a hop sends the i-th
standard basis vector of length T, so pilots are exactly orthonormal and
simultaneous transmitters do not interfere: the matched filter of the link
from transmitter i to a receiver reads that receiver's pilot slot i alone,
h + n with n ~ CN(0, sigma_b^2).  The LMMSE estimate of the link is
therefore ``channel_var / (channel_var + sigma_b^2) * (h + n)``, computed
directly without forming the pilot matrices; with noiseless pilots it
reproduces the channel exactly.

Noise draws: channel after channel, each from its own generator (a
generator passed for several channels is drawn from channel after channel),
then hop by hop, a (receivers, T) block of standard normal real parts
followed by one of imaginary parts, scaled by sqrt(sigma_b^2 / 2).  Sample
[r, i] of a hop's blocks is the noise of the link from transmitter i to
receiver r.  The samples of pilot slots that no transmitter of the hop uses
are drawn all the same, so a generator advances by 2 T samples per receiver
of every hop, whatever the hop's transmitter count.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .channels import ChannelRealization, NoiseProfile
from .engine import stack_channels

__all__ = ["lmmse_estimates"]


def lmmse_estimates(
    channels: Sequence[ChannelRealization],
    noises: Sequence[NoiseProfile],
    rngs: Sequence[np.random.Generator],
) -> list[ChannelRealization]:
    """Linear MMSE estimate of every link of every channel from its pilots.

    Channel i's pilots see AWGN of variance sigma_b^2 per received entry at
    hop b and channel variance ``channel_var``, both from ``noises[i]`` (the
    same sigma as data reception; a zero variance yields exact
    observations), drawn from ``rngs[i]`` in the order of the module
    docstring.  All channels are estimated as stacked arrays; the estimates
    are views of them.
    """
    if not len(noises) == len(rngs) == len(channels):
        raise ValueError("one noise profile and one generator per channel are required")
    if not channels:
        return []
    count = len(channels)
    var = np.array([n.hop_noise_vars for n in noises], dtype=np.float64).reshape(count, -1)
    first, later = stack_channels(list(channels))
    if var.shape[1] != 1 + len(later):
        raise ValueError("one noise variance per hop is required")
    # per hop, the links (count, receivers, transmitters)
    links = [first[:, :, None]] + [np.swapaxes(m, -1, -2) for m in later]
    slots = max(h.shape[-1] for h in links)
    draws = [np.empty((2, count, h.shape[1], slots)) for h in links]
    for i, gen in enumerate(rngs):
        for d in draws:
            d[0, i] = gen.standard_normal(d.shape[2:])
            d[1, i] = gen.standard_normal(d.shape[2:])
    channel_var = np.array([[n.channel_var] for n in noises], dtype=np.float64)
    shrink = (channel_var / (channel_var + var)).T[:, :, None, None]
    scale = np.sqrt(var / 2.0).T[:, :, None, None]
    first, *later = [
        k * (h + (re[..., : h.shape[-1]] * s + 1j * im[..., : h.shape[-1]] * s))
        for h, (re, im), k, s in zip(links, draws, shrink, scale)
    ]
    first = first[:, :, 0]
    later = [np.swapaxes(m, -1, -2) for m in later]
    return [
        ChannelRealization(first_hop=first[i], later_hops=tuple(m[i] for m in later))
        for i in range(count)
    ]
