"""Exhaustive grid reference for small two-user networks.

Each of the stacked matrix's rows has one free parameter when N = 2: the row
is (a, sqrt(1 - a^2)) with a on a uniform grid over [0, 1], which covers the
feasible set exactly instead of gridding the unit cube and discarding
infeasible points.  The best min rate over the full grid upper-bounds every
optimizer on the same channel up to the grid modulus (empirically within 0.01
bits at resolution 1e-2).

Larger user counts are refused: the search grows exponentially and a cost
guard caps the total number of grid points.  Results can be cached on disk
keyed by (channel, noise, resolution).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import engine
from .channels import ChannelRealization, NoiseProfile, topology_of
from .errors import CapabilityError
from .jsonfile import write_json
from .rates import min_rate

__all__ = ["GridResult", "grid_capacity", "MAX_GRID_POINTS"]

MAX_GRID_POINTS = 10_000_000
_CHUNK = 131_072


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


def grid_capacity(
    channel: ChannelRealization,
    noise: NoiseProfile,
    resolution: float = 1e-2,
    cache_dir: str | None = None,
) -> GridResult:
    """Best min rate over the whole feasible grid, ties to the lowest index."""
    if not 0 < resolution <= 1:
        raise ValueError("resolution must lie in (0, 1]")
    topology = topology_of(channel)
    rows = topology.stacked_rows
    n = topology.end_users

    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(
            cache_dir, _cache_key(channel, noise, resolution) + ".json"
        )
        if os.path.exists(cache_path):
            try:
                with open(cache_path) as fh:
                    doc = json.load(fh)
                return GridResult(
                    best_min_rate=doc["best_min_rate"],
                    best_matrix=np.array(doc["best_matrix"]),
                    resolution=doc["resolution"],
                    evaluations=doc["evaluations"],
                )
            except (json.JSONDecodeError, KeyError):
                pass  # partial write from an interrupted run; recompute

    if n == 1:
        best = np.ones((rows, 1))
        value, _ = min_rate(channel, best, noise)
        result = GridResult(
            best_min_rate=float(value), best_matrix=best, resolution=resolution,
            evaluations=1,
        )
        return _maybe_cache(result, cache_path)
    if n != 2:
        raise CapabilityError(
            "the grid reference supports one- and two-user networks only"
        )

    points = int(round(1.0 / resolution)) + 1
    total = points**rows
    if total > MAX_GRID_POINTS:
        raise CapabilityError(
            f"{total} grid points exceed the cost guard of {MAX_GRID_POINTS}"
        )

    axis = np.linspace(0.0, 1.0, points)
    other = np.sqrt(1.0 - axis * axis)
    net = engine.net_index(topology)
    ops = engine.prepare_operands(
        channel.first_hop, channel.later_hops, np.asarray(noise.hop_noise_vars)
    )

    best_value = -np.inf
    best_index = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        combo = np.array(np.unravel_index(idx, (points,) * rows)).T  # (chunk, rows)
        p = np.empty((len(idx), rows, 2))
        p[:, :, 0] = axis[combo]
        p[:, :, 1] = other[combo]
        values = engine.rate_pass(net, ops, p).message.min(axis=-1)
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_index = start + local
    combo = np.array(np.unravel_index(best_index, (points,) * rows))
    best = np.stack([axis[combo], other[combo]], axis=-1)
    result = GridResult(
        best_min_rate=best_value,
        best_matrix=best,
        resolution=resolution,
        evaluations=total,
    )
    return _maybe_cache(result, cache_path)


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
