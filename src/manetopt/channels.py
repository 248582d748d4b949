"""Network topology, noise profiles and Rayleigh block-fading channel generation.

A network has one source, B hops and ``hop_sizes = (M_1, ..., M_B)`` nodes per
hop; the nodes of the last hop are the end users.  Hop 1 is the broadcast from
the source to the M_1 first-hop relays; hop b (b >= 2) is the multiple-access
stage from the M_{b-1} relays of the previous layer to the M_b nodes of hop b.

All channel coefficients are i.i.d. circularly-symmetric complex Gaussian
(Rayleigh envelope) with total variance ``channel_var``, constant within a
coherence block and independent across blocks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "NoiseProfile",
    "ChannelRealization",
    "ChannelDataset",
    "sample_channel",
    "build_dataset",
    "topology_of",
]


@dataclass(frozen=True)
class Topology:
    """Hop structure of the relay network.

    ``hop_sizes[b-1]`` is the number of nodes at hop b; the last entry is the
    number of end users.  ``stacked_rows`` is the row count of the stacked
    power-coefficient matrix: one row per transmitting device (the source plus
    every relay of layers 1..B-1).
    """

    hop_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(isinstance(m, bool) or not isinstance(m, numbers.Integral) for m in self.hop_sizes):
            raise ValueError("every hop size must be an integer")
        sizes = tuple(int(m) for m in self.hop_sizes)
        object.__setattr__(self, "hop_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least two hops")
        if any(m < 1 for m in sizes):
            raise ValueError("every hop must contain at least one node")

    @property
    def num_hops(self) -> int:
        return len(self.hop_sizes)

    @property
    def end_users(self) -> int:
        return self.hop_sizes[-1]

    @property
    def stacked_rows(self) -> int:
        return 1 + sum(self.hop_sizes[:-1])

    def block_rows(self, layer: int) -> slice:
        """Rows of the stacked matrix holding relay layer ``layer`` (1..B-1).

        The source's coefficient row is the final row of the stacked matrix.
        """
        if not 1 <= layer <= self.num_hops - 1:
            raise ValueError(f"relay layer must be in 1..{self.num_hops - 1}")
        start = sum(self.hop_sizes[: layer - 1])
        return slice(start, start + self.hop_sizes[layer - 1])


@dataclass(frozen=True)
class NoiseProfile:
    """Per-hop AWGN variances (linear power) and the channel variance."""

    hop_noise_vars: tuple[float, ...]
    channel_var: float = 1.0

    def __post_init__(self) -> None:
        variances = tuple(float(v) for v in self.hop_noise_vars)
        object.__setattr__(self, "hop_noise_vars", variances)
        # sigma_b = 0 is tolerated so the noiseless estimation limit is testable.
        if not all(0 <= v < np.inf for v in variances):
            raise ValueError("noise variances must be finite and nonnegative")
        if not 0 < self.channel_var < np.inf:
            raise ValueError("channel variance must be finite and positive")


@dataclass(frozen=True)
class ChannelRealization:
    """Complex channel coefficients of one coherence block.

    ``first_hop[m]`` is the source-to-relay-m coefficient.  For hop b >= 2,
    ``later_hops[b - 2][m, i]`` is the coefficient from transmitter m (a relay
    of layer b-1) to receiving node i of hop b.  A batch of channels is a
    sequence of realizations.
    """

    first_hop: np.ndarray
    later_hops: tuple[np.ndarray, ...]


def topology_of(channel: ChannelRealization) -> Topology:
    """Recover the hop structure from a realization's array shapes."""
    sizes = [channel.first_hop.shape[-1]]
    for mat in channel.later_hops:
        sizes.append(mat.shape[-1])
    return Topology(tuple(sizes))


@dataclass(frozen=True)
class ChannelDataset:
    """Ordered channel realizations sharing one topology."""

    topology: Topology
    entries: tuple[tuple[ChannelRealization, NoiseProfile], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def channels(self) -> tuple[ChannelRealization, ...]:
        return tuple(ch for ch, _ in self.entries)


def _complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...], var: float) -> np.ndarray:
    scale = np.sqrt(var / 2.0)
    return rng.standard_normal(shape) * scale + 1j * rng.standard_normal(shape) * scale


def sample_channel(
    topology: Topology,
    channel_var: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> ChannelRealization:
    """Draw one block-fading realization.

    Every coefficient is i.i.d. CN(0, channel_var); real and imaginary parts
    each carry half the variance.  Deterministic for a given seeded generator.
    """
    if not channel_var > 0:
        raise ValueError("channel_var must be positive")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    sizes = topology.hop_sizes
    first = _complex_gaussian(gen, (sizes[0],), channel_var)
    later = tuple(
        _complex_gaussian(gen, (sizes[j], sizes[j + 1]), channel_var)
        for j in range(len(sizes) - 1)
    )
    return ChannelRealization(first_hop=first, later_hops=later)


def build_dataset(
    topology: Topology,
    noise: NoiseProfile,
    count: int,
    seed: int,
) -> ChannelDataset:
    """Generate ``count`` independent realizations, all paired with ``noise``.

    Each entry draws from its own stream keyed by (seed, entry index), so
    entries are reproducible independently of generation order.
    """
    if count < 1:
        raise ValueError("a dataset needs at least one realization")
    if len(noise.hop_noise_vars) != topology.num_hops:
        raise ValueError("noise profile length does not match the hop count")
    entries = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        entries.append((sample_channel(topology, noise.channel_var, rng), noise))
    return ChannelDataset(topology=topology, entries=tuple(entries))

