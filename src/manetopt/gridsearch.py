"""Exact grid reference for small two-user networks.

Each of the stacked matrix's rows has one free parameter when N = 2: the row
is (a, sqrt(1 - a^2)) with a on a uniform grid of P points over [0, 1], which
covers the feasible set exactly instead of gridding the unit cube and
discarding infeasible points.  The best min rate over the full product grid
of P^rows points upper-bounds every optimizer on the same channel up to the
grid modulus (empirically within 0.01 bits at resolution 1e-2).

The search does not visit the product grid.  The rates received at hop b
depend only on the block of rows that transmits into it: the source row (the
last stacked row) for hop 1, relay layer b-1 for hop b >= 2.  The blocks
partition the rows, so the min rate is min_b v_b(block_b), where v_b is hop
b's worst rate over its nodes and messages, and its maximum over the product
grid is min_b max v_b.  Each block is searched on its own grid with the other
rows held fixed, which costs sum_b P^|block| rate evaluations.

Each block is scored on the hop it feeds alone: a relay block's points go
through that hop's rate kernel (and the end-user table when it feeds hop B),
and only the source row's P points take a full rate pass.  A column's rates
do not depend on the columns computed with it (invariant 1 of ``engine``),
so every value equals a full pass's bit for bit.  The points go through in
chunks of ``_CHUNK`` columns, one chunk alive at a time: a (2, 2) grid value
then traces a peak of 1.24 MiB, 0.38 MiB of it the operands widened to the
chunk, close to the CPU caches, which keeps the process's peak memory low,
and no wider chunk measured clearly faster (see the ``_CHUNK`` comment).

Ties go to the lowest C-order index of the product grid, as a brute-force
search would pick.  A point reaches the optimum exactly when every block
value is at least the optimum, and the blocks are contiguous in stacked-row
order, so that point is the concatenation, in stacked-row order, of each
block's first grid index whose value is at least the optimum.

A cost guard caps the evaluations at MAX_GRID_POINTS.  At resolution 1e-2
(P = 101) it admits every two-user network whose relay layers hold at most
three nodes each, such as (2, 2), (1, 2, 2), (2, 2, 2) or (3, 2), and
refuses one with a four-node layer such as (4, 2).  More than two end users
are refused.  Results can be cached on disk keyed by (channel, noise,
resolution).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, Topology, topology_of
from .errors import CapabilityError
from .jsonfile import read_entry, write_json
from .rates import min_rate

__all__ = ["GridResult", "grid_capacity", "grid_points", "MAX_GRID_POINTS"]

MAX_GRID_POINTS = 10_000_000
# Columns per chunk of a block's grid points: the narrowest width within
# noise of the fastest.  On a 2-core x86-64 box (one BLAS thread, interleaved
# in-process medians), 12 grid values at 1e-2 on (1, 2, 2), (2, 2, 2),
# (1, 1, 2, 2) and (3, 2) took 0.96 s at 4096 against 1.02 s at 2048 (9 of
# 10 pairs), and one (3, 2) grid at 1e-2 took 332 / 313 / 306 ms at 2048 /
# 4096 / 8192.  The peak RSS of four (2, 2) grid values in a fresh process
# (no bytecode cache, medians of 5) was 36.0 / 36.6 / 38.0 / 38.6 MB at
# 2048 / 4096 / 8192 / 131 072, against 35.3 MB for its imports and channel
# draws alone.
_CHUNK = 4096


@dataclass(frozen=True)
class GridResult:
    best_min_rate: float
    best_matrix: np.ndarray
    resolution: float
    evaluations: int


def _cache_key(
    channel: ChannelRealization, noise: NoiseProfile, resolution: float
) -> str:
    digest = hashlib.sha256()
    digest.update(repr(tuple(topology_of(channel).hop_sizes)).encode())
    digest.update(np.ascontiguousarray(channel.first_hop).tobytes())
    for mat in channel.later_hops:
        digest.update(np.ascontiguousarray(mat).tobytes())
    digest.update(repr(tuple(noise.hop_noise_vars)).encode())
    digest.update(repr(float(resolution)).encode())
    return digest.hexdigest()


def _axis_points(resolution: float) -> int:
    return int(round(1.0 / resolution)) + 1


def _blocks(topology: Topology) -> list[tuple[slice, int]]:
    """(rows, hop they feed) for every block, in stacked-row order."""
    relays = [
        (topology.block_rows(layer), layer + 1)
        for layer in range(1, topology.num_hops)
    ]
    source = slice(topology.stacked_rows - 1, topology.stacked_rows)
    return relays + [(source, 1)]


def grid_points(topology: Topology, resolution: float) -> int:
    """Rate evaluations ``grid_capacity`` spends on one channel of ``topology``.

    Raises ValueError for a resolution outside (0, 1], and CapabilityError
    for more than two end users or more than MAX_GRID_POINTS evaluations.
    """
    if not 0 < resolution <= 1:
        raise ValueError("resolution must lie in (0, 1]")
    if topology.end_users == 1:
        return 1
    if topology.end_users != 2:
        raise CapabilityError(
            "the grid reference supports one- and two-user networks only"
        )
    points = _axis_points(resolution)
    total = sum(
        points ** (rows.stop - rows.start) for rows, _ in _blocks(topology)
    )
    if total > MAX_GRID_POINTS:
        raise CapabilityError(
            f"{total} grid points exceed the cost guard of {MAX_GRID_POINTS}"
        )
    return total


def _block_values(
    topology: Topology,
    ops: engine.ChannelOperands,
    grid: np.ndarray,
    rows: slice,
    hop: int,
) -> np.ndarray:
    """Hop ``hop``'s worst rate at every point of the grid over ``rows``, the
    block feeding it, given one channel's operands ``ops`` widened to
    ``_CHUNK`` columns: a chunk of n points reads their first n columns.

    A relay block's points go through that hop alone (and the end-user
    table when it feeds hop B); only the source row, P points, takes a full
    rate pass with the other rows at the first grid point."""
    shape = (len(grid),) * (rows.stop - rows.start)
    total = int(np.prod(shape))
    values = np.empty(total)
    for start in range(0, total, _CHUNK):
        n = min(_CHUNK, total - start)
        values[start : start + n] = _chunk_values(topology, ops, grid, rows, hop, shape, start, n)
    return values.reshape(shape)


def _chunk_values(
    topology: Topology,
    ops: engine.ChannelOperands,
    grid: np.ndarray,
    rows: slice,
    hop: int,
    shape: tuple[int, ...],
    start: int,
    n: int,
) -> np.ndarray:
    """``_block_values`` at the n grid points from flat index ``start`` of
    the block grid ``shape``, as an (n,) array.  Nothing the chunk builds
    outlives the call, so a single chunk's arrays are alive at a time."""
    combo = np.array(np.unravel_index(np.arange(start, start + n), shape))
    block = np.moveaxis(grid[combo], -1, 1)  # (block rows, 2, n)
    del combo  # not held through the rate kernels
    chunk_ops = engine.ChannelOperands(
        ops.a1[:, :n], tuple(h[:n] for h in ops.ht), ops.sig2[:, :n]
    )
    if hop == 1:
        p = np.broadcast_to(grid[0][:, None], (topology.stacked_rows, 2, n)).copy()
        p[rows] = block
        return engine.rate_pass(topology, chunk_ops, p).rates[0].min(axis=(0, 1))
    _, _, g, _, rates = engine._hop_views(engine._relay_hop(chunk_ops, hop, block))
    if hop == topology.num_hops:
        rates = engine._end_users(g, rates)[0]
    return rates.min(axis=(0, 1))


def grid_capacity(
    channel: ChannelRealization,
    noise: NoiseProfile,
    resolution: float = 1e-2,
    cache_dir: str | None = None,
) -> GridResult:
    """Best min rate over the whole feasible grid, ties to the lowest index."""
    topology = topology_of(channel)
    grid_points(topology, resolution)
    rows = topology.stacked_rows

    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(
            cache_dir, _cache_key(channel, noise, resolution) + ".json"
        )
        cached = read_entry(cache_path, lambda doc: _cached_result(doc, topology))
        if cached is not None:
            return cached

    if topology.end_users == 1:
        best = np.ones((rows, 1))
        (value,), _ = min_rate([channel], best[None], noise)
        result = GridResult(
            best_min_rate=float(value), best_matrix=best, resolution=resolution,
            evaluations=1,
        )
        return _maybe_cache(result, cache_path)

    points = _axis_points(resolution)
    axis = np.linspace(0.0, 1.0, points)
    grid = np.stack([axis, np.sqrt(1.0 - axis * axis)], axis=-1)  # (points, 2)
    ops = engine.operands_from([channel], noise, repeat=_CHUNK)
    values = [
        _block_values(topology, ops, grid, block, hop) for block, hop in _blocks(topology)
    ]
    best_value = min(float(v.max()) for v in values)
    best = np.concatenate([
        grid[np.array(np.unravel_index(np.argmax(v >= best_value), v.shape))]
        for v in values
    ])
    result = GridResult(
        best_min_rate=best_value,
        best_matrix=best,
        resolution=resolution,
        evaluations=points**rows,
    )
    return _maybe_cache(result, cache_path)


def _cached_result(doc, topology: Topology) -> GridResult:
    """The ``GridResult`` of a cache entry ``_maybe_cache`` wrote for a
    channel of ``topology``.  ValueError unless ``doc`` holds every field
    with its type, a finite best min rate and a best matrix of shape
    (stacked rows, end users)."""
    fields = {"best_min_rate", "best_matrix", "resolution", "evaluations"}
    if not isinstance(doc, dict) or set(doc) != fields:
        raise ValueError("not a grid result")
    shape = (topology.stacked_rows, topology.end_users)
    matrix = doc["best_matrix"]
    if not (
        type(doc["best_min_rate"]) is float and np.isfinite(doc["best_min_rate"])
        and type(doc["resolution"]) in (int, float) and type(doc["evaluations"]) is int
        and isinstance(matrix, list) and len(matrix) == shape[0]
        and all(isinstance(row, list) and len(row) == shape[1] for row in matrix)
        and all(type(v) is float for row in matrix for v in row)
    ):
        raise ValueError("not a grid result of this network")
    return GridResult(
        best_min_rate=doc["best_min_rate"],
        best_matrix=np.array(matrix),
        resolution=doc["resolution"],
        evaluations=doc["evaluations"],
    )


def _maybe_cache(result: GridResult, cache_path: str | None) -> GridResult:
    if cache_path is not None:
        doc = {
            "best_min_rate": result.best_min_rate,
            "best_matrix": result.best_matrix.tolist(),
            "resolution": result.resolution,
            "evaluations": result.evaluations,
        }
        write_json(cache_path, doc)
    return result
