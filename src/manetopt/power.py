"""The superposition-coding coefficient matrix and its feasible set.

A power matrix is a plain float array of shape ``(stacked_rows, N)``: relay
layers 1..B-1 occupy the leading row blocks and the source's coefficient row
comes last.  Feasibility means nonnegative entries, each at most one, with
every row on the unit sphere (within ``NORM_TOL``).

``project`` is the cheap feasibility map used after each gradient step: clamp
negatives, then scale each row to unit norm.  Rows without a positive entry
fall back deterministically to the uniform row so ascent steps can never
leave the feasible set; rows of tiny or huge entries are first divided by
their largest entry, so they too land on the sphere.  Exact Euclidean
projection is deliberately not implemented.

``project_with_tangent`` and ``project_adjoint`` are the engine's kernels and
take its batch-last layout: a row runs along axis -2 and the batch axis is
last, so a batch of matrices is ``(stacked_rows, N, q)``.  Row sums add in
the order numpy sums a contiguous last axis, so results do not depend on the
layout.  Without a tangent direction, ``project_with_tangent`` returns the
per-row factors of the point (``RowFactors``), which ``project_adjoint``
takes in place of the point, so that a reverse sweep does not recompute
them.  ``project`` takes rows along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Topology

__all__ = [
    "NORM_TOL",
    "project",
    "uniform_init",
    "random_init",
    "is_feasible",
]

NORM_TOL = 1e-9
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def project(raw: np.ndarray) -> np.ndarray:
    """Map an arbitrary matrix onto the feasible set, row by row.

    Rows already feasible are returned bit-identically (the operator is the
    exact identity on the feasible set and exactly idempotent).  Leading batch
    axes are allowed; rows run along the last axis.
    """
    x = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("power matrix entries must be finite")
    with np.errstate(over="ignore"):  # huge rows are rescaled, not lost
        return project_with_tangent(x[..., None])[0][..., 0]


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis -2, keeping it, in numpy's order for a contiguous axis:
    +0.0 plus, below eight terms, their sequential sum (one reduction over
    an outer axis adds them in that order); from eight to 128, eight running
    sums combined as a tree, then the remainder; above that, the sums of two
    halves."""
    n = a.shape[-2]
    if n > 128:
        half = n // 2
        half -= half % 8
        return _row_sum(a[..., :half, :]) + _row_sum(a[..., half:, :])
    if n < 8:
        return 0.0 + a.sum(axis=-2, keepdims=True)
    done = n - n % 8
    r = [a[..., i : i + 1, :] for i in range(8)]
    for i in range(8, done):
        r[i % 8] = r[i % 8] + a[..., i : i + 1, :]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(done, n):
        total = total + a[..., i : i + 1, :]
    return 0.0 + total


@dataclass
class RowFactors:
    """Per-row pieces of the projection at one point, all that its tangent
    and its adjoint read: the mask of positive entries, the unit rows, the
    rescale factor (``None`` if no row needed one), the pass-through and
    degenerate row masks, and the row norms with degenerate rows set to 1."""

    positive: np.ndarray
    unit: np.ndarray
    scale: np.ndarray | None
    passthrough: np.ndarray
    degenerate: np.ndarray
    safe: np.ndarray


def _row_factors(x: np.ndarray) -> tuple[np.ndarray, RowFactors]:
    """The clamped rows ``u`` of ``x`` (rescaled where needed) and the
    factors of its rows."""
    positive = x > 0.0
    u = np.where(positive, x, 0.0)
    sumsq = _row_sum(u * u)
    norms = np.sqrt(sumsq)
    passthrough = np.abs(norms - 1.0) <= NORM_TOL
    # A sum of squares below the smallest normal float (or above the largest)
    # has lost its precision; such rows are divided by their largest entry
    # first.  The scaled branch is invariant to that factor, and every other
    # row is divided by exactly 1, so it stays bit-identical.
    inexact = (sumsq < _SMALLEST_NORMAL) | (sumsq == np.inf)
    scale = None
    if inexact.any():
        peak = np.max(u, axis=-2, keepdims=True)
        scale = np.where(inexact & (peak > 0.0), peak, 1.0)
        u = u / scale
        norms = np.sqrt(_row_sum(u * u))
    degenerate = norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    return u, RowFactors(positive, u / safe, scale, passthrough, degenerate, safe)


def project_with_tangent(
    x: np.ndarray, dx: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | RowFactors]:
    """Row projection plus its derivative in one direction, or its factors.

    Rows run along axis -2 (the batch axis is last).  ``dx`` has the shape of
    ``x``; the returned tangent differentiates the selected branch of the
    projection (clamped entries pass nothing, near-unit rows pass through
    unchanged, degenerate rows are constant).  Without ``dx`` the second
    value is the ``RowFactors`` of ``x``, which ``project_adjoint`` takes in
    place of ``x``.
    """
    u, f = _row_factors(x)
    out = np.where(f.passthrough, u, np.minimum(f.unit, 1.0))
    if f.degenerate.any():
        out = np.where(f.degenerate, 1.0 / np.sqrt(x.shape[-2]), out)
    if dx is None:
        return out, f
    du = np.where(f.positive, dx, 0.0)
    # (I/s - u u^T/s^3) du, written with the unit row so that no power of s
    # under- or overflows, and divided by the rescale factor last: a row
    # whose only positive entry is subnormal then gets an exact 0
    radial = _row_sum(f.unit * du)
    dout = np.where(f.passthrough, du, (du - f.unit * radial) / f.safe)
    if f.scale is not None:
        dout = dout / f.scale
    dout = np.where(f.degenerate, 0.0, dout)
    return out, dout


def project_adjoint(x: np.ndarray | RowFactors, a: np.ndarray) -> np.ndarray:
    """Transpose of the tangent map of ``project_with_tangent`` at ``x``,
    applied to ``a``: ``<tangent(dx), a> == <dx, project_adjoint(x, a)>``.

    ``x`` is the point, or the ``RowFactors`` that ``project_with_tangent``
    returned at it, which spares recomputing them.  Per row, with D the mask
    of positive entries: scaled rows give ``D (a/s - u (u.a)/s^3)``, divided
    by the rescale factor; pass-through rows give ``D a``; degenerate rows
    give 0.
    """
    f = x if isinstance(x, RowFactors) else _row_factors(x)[1]
    radial = _row_sum(f.unit * a)
    back = np.where(f.passthrough, a, (a - f.unit * radial) / f.safe)
    back = np.where(f.positive, back, 0.0)  # degenerate rows have no positive entry
    if f.scale is not None:
        back = back / f.scale
    return back


def uniform_init(topology: Topology) -> np.ndarray:
    """Equal power split: every entry 1/sqrt(N)."""
    n = topology.end_users
    return np.full((topology.stacked_rows, n), 1.0 / np.sqrt(n))


def random_init(topology: Topology, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Feasible matrix with rows drawn uniformly then normalized."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    raw = gen.uniform(0.0, 1.0, size=(topology.stacked_rows, topology.end_users))
    return project(raw)


def is_feasible(p: np.ndarray, norm_tol: float = NORM_TOL) -> bool:
    """True iff every entry lies in [0, 1] and every row norm is 1 within tolerance."""
    x = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return False
    if np.any(x < 0.0) or np.any(x > 1.0):
        return False
    norms = np.sqrt(np.sum(x * x, axis=-1))
    return bool(np.all(np.abs(norms - 1.0) <= norm_tol))

