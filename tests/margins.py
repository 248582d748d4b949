"""The smallest branch-switch margin along an unrolled PGD run, from public
calls on the iterates of ``engine.iterate_schedule`` (which, unlike
``run_pgd_batch``, also runs from starts off the feasible set).

A central difference of the unrolled loss is meaningful only when no
perturbed run crosses a kink of the objective: a tie of two powers, gains,
message rates or constraints, or an entry of ``p_k + mu_k g_k`` changing
sign in the projection.  The step-size gradient guards skip a batch whose
margin is below their perturbation.
"""

from __future__ import annotations

import numpy as np

import manetopt as mo
from manetopt import engine


def _bits(channel: mo.ChannelRealization) -> list[np.ndarray]:
    return [
        np.ascontiguousarray(a).view(np.uint64)
        for a in (channel.first_hop, *channel.later_hops)
    ]


def _same_bits(a: mo.ChannelRealization, b: mo.ChannelRealization) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(_bits(a), _bits(b)))


def unrolled_min_margin(drive, truth, noise, p0, mu) -> float:
    """Smallest margin of the run that the channels ``drive`` make from the
    starts ``p0`` (q, rows, N) with the steps ``mu`` (K,), scored on the
    channels ``truth``.

    Covers ``tie_margin`` on the driving channels at iterates 0..K-1, the
    smallest nonzero |p_k + mu_k g_k| that each step projects, and
    ``tie_margin`` at iterate K on the elements whose driving and loss
    channels agree in every bit.
    """
    mu = np.asarray(mu, dtype=np.float64)
    run = engine.iterate_schedule(
        mo.topology_of(drive[0]), engine.operands_from(drive, noise), p0, mu
    )
    iterates = [p for p, _ in run]
    margin = np.inf
    for k, step in enumerate(mu):
        p = iterates[k]
        margin = min(margin, mo.tie_margin(drive, p, noise).min())
        x = p + step * mo.objective_gradient(drive, p, noise).values
        nonzero = x[x != 0.0]
        if nonzero.size:
            margin = min(margin, np.abs(nonzero).min())
    shared = [i for i, (d, t) in enumerate(zip(drive, truth)) if _same_bits(d, t)]
    if shared:
        last = mo.tie_margin([drive[i] for i in shared], iterates[-1][shared], noise)
        margin = min(margin, last.min())
    return float(margin)
