"""Exact gradient of the min-rate objective, with a finite-difference oracle.

The objective ``min_n R_n`` is piecewise smooth: away from ties its gradient
is the gradient of the single binding constraint rate of the worst message,
supported on the rows of the transmit block feeding that constraint's
reception hop.  At ties the deterministically selected branch's derivative is
returned (lowest message index, then lowest (hop, node)).

The per-rate partials are obtained by direct differentiation of the rate
formulas; ``finite_difference_gradient`` is the independent arbiter used by
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, topology_of
from .rates import _flatten

__all__ = [
    "ObjectiveGradient",
    "objective_gradient",
    "finite_difference_gradient",
    "tie_margin",
]


@dataclass(frozen=True)
class ObjectiveGradient:
    """Gradient of the minimum message rate with respect to the power matrix.

    ``active_hop`` is the reception hop (1..B) of the binding constraint and
    ``active_node`` its receiving node: a relay for hops below B, an end user
    at hop B.  Nonzero entries live only in the rows feeding that hop.
    """

    values: np.ndarray
    active_message: int | np.ndarray
    active_hop: int | np.ndarray
    active_node: int | np.ndarray


def objective_gradient(
    channel: ChannelRealization, p: np.ndarray, noise: NoiseProfile
) -> ObjectiveGradient:
    net, ops, pq, batch = _flatten(channel, p, noise)
    rp = engine.rate_pass(net, ops, pq)
    grad, _, nstar, bind_hop, bind_node = engine.gradient_pass(net, ops, rp)
    values = np.moveaxis(grad, -1, 0).reshape(batch + grad.shape[:-1])
    if batch:
        return ObjectiveGradient(
            values=values,
            active_message=nstar.reshape(batch),
            active_hop=bind_hop.reshape(batch),
            active_node=bind_node.reshape(batch),
        )
    return ObjectiveGradient(
        values=values,
        active_message=int(nstar[0]),
        active_hop=int(bind_hop[0]),
        active_node=int(bind_node[0]),
    )


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
    topology = topology_of(channel)
    net = engine.net_index(topology)
    ops = engine.operands_from(channel, noise)
    values = engine.rate_pass(net, ops, engine.batch_last(stack)).message.min(axis=0)
    return ((values[:coords] - values[coords:]) / (2.0 * step)).reshape(rows, n)


def tie_margin(
    channel: ChannelRealization, p: np.ndarray, noise: NoiseProfile
) -> float:
    """Smallest gap to any branch switch of the objective at ``p``.

    Exactly coincident values are ignored (they are structurally stuck, not a
    crossing); use this to exclude near-tie points from oracle comparisons.
    """
    net, ops, pq, _ = _flatten(channel, p, noise)
    rp = engine.rate_pass(net, ops, pq)
    return engine._pass_margin(net, rp)
