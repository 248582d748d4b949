"""Exact gradient of the min-rate objective, with a finite-difference oracle.

The objective ``min_n R_n`` is piecewise smooth: away from ties its gradient
is the gradient of the single binding constraint rate of the worst message,
supported on the rows of the transmit block feeding that constraint's
reception hop.  At ties the deterministically selected branch's derivative is
returned (lowest message index, then lowest (hop, node)).

The per-rate partials are obtained by direct differentiation of the rate
formulas; ``finite_difference_gradient`` is the independent arbiter used by
the test suite.  ``objective_gradient`` and ``tie_margin`` take a batch, as
the rates do: a sequence of q channels and a (q, rows, N) stack of power
matrices, and return per-element arrays; the oracle takes one channel and
one matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile
from .rates import _batch, min_rate

__all__ = [
    "ObjectiveGradient",
    "objective_gradient",
    "finite_difference_gradient",
    "tie_margin",
]


@dataclass(frozen=True)
class ObjectiveGradient:
    """Gradient of each element's minimum message rate with respect to its
    power matrix.

    ``active_hop`` is the reception hop (1..B) of the binding constraint and
    ``active_node`` its receiving node: a relay for hops below B, an end user
    at hop B.  Nonzero entries live only in the rows feeding that hop.
    """

    values: np.ndarray          # (q, rows, N)
    active_message: np.ndarray  # (q,)
    active_hop: np.ndarray      # (q,)
    active_node: np.ndarray     # (q,)


def objective_gradient(
    channels: Sequence[ChannelRealization], p: np.ndarray, noise: NoiseProfile
) -> ObjectiveGradient:
    topology, ops, pq = _batch(channels, p, noise)
    rp = engine.rate_pass(topology, ops, pq)
    grad, _, nstar, bind_hop, bind_node = engine.gradient_pass(topology, ops, rp)
    return ObjectiveGradient(engine.batch_first(grad), nstar, bind_hop, bind_node)


def finite_difference_gradient(
    channel: ChannelRealization,
    p: np.ndarray,
    noise: NoiseProfile,
    step: float = 1e-6,
) -> np.ndarray:
    """Central differences of the min rate in raw matrix coordinates.

    Each coordinate is perturbed on its own with no re-projection, so the
    stencil probes the objective itself.  Only meaningful at points farther
    than the step from any tie; ``tie_margin`` reports that distance.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("the finite-difference oracle takes a single matrix")
    rows, n = p.shape
    coords = rows * n
    offsets = np.eye(coords) * step
    flat = p.reshape(-1)
    stack = np.concatenate([flat + offsets, flat - offsets]).reshape(2 * coords, rows, n)
    values = min_rate([channel] * (2 * coords), stack, noise)[0]
    return ((values[:coords] - values[coords:]) / (2.0 * step)).reshape(rows, n)


def tie_margin(
    channels: Sequence[ChannelRealization], p: np.ndarray, noise: NoiseProfile
) -> np.ndarray:
    """Each element's smallest gap to any branch switch of the objective.

    Exactly coincident values are ignored (they are structurally stuck, not a
    crossing); use this to exclude near-tie points from oracle comparisons.
    """
    topology, ops, pq = _batch(channels, p, noise)
    return engine._pass_margin(engine.rate_pass(topology, ops, pq))
