import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import manetopt as mo
from manetopt import engine
from manetopt.errors import CapabilityError
from manetopt.experiments import TEST_DATA, derive_seed, noise_profile


def brute_force_grid(channel, noise, resolution, chunk=131_072):
    """Reference search over the whole product grid of a two-user network.

    Returns the best min rate and the matrix at the first C-order grid index
    that reaches it.
    """
    topology = mo.topology_of(channel)
    rows = topology.stacked_rows
    points = int(round(1.0 / resolution)) + 1
    total = points**rows
    axis = np.linspace(0.0, 1.0, points)
    other = np.sqrt(1.0 - axis * axis)
    best_value = -np.inf
    best_index = 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        combo = np.array(np.unravel_index(idx, (points,) * rows)).T
        p = np.empty((len(idx), rows, 2))
        p[:, :, 0] = axis[combo]
        p[:, :, 1] = other[combo]
        ops = engine.operands_from([channel], noise, repeat=len(idx))
        values = engine.rate_pass(topology, ops, engine.batch_last(p)).message.min(axis=0)
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_index = start + local
    combo = np.array(np.unravel_index(best_index, (points,) * rows))
    return best_value, np.stack([axis[combo], other[combo]], axis=-1)


def zeroed(channel, hop):
    """``channel`` with every coefficient of ``hop`` (1..B) set to zero."""
    if hop == 1:
        return mo.ChannelRealization(
            first_hop=np.zeros_like(channel.first_hop), later_hops=channel.later_hops
        )
    later = list(channel.later_hops)
    later[hop - 2] = np.zeros_like(later[hop - 2])
    return mo.ChannelRealization(first_hop=channel.first_hop, later_hops=tuple(later))


@pytest.fixture
def world():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(30))
    return topo, noise, ch


def test_evaluation_count(world):
    _, noise, ch = world
    res = mo.grid_capacity(ch, noise, 1e-2)
    assert res.evaluations == 101**3 == 1_030_301
    assert mo.is_feasible(res.best_matrix)


def test_one_chunk_alive_at_a_time(world):
    # One chunk of a 2x2 grid value traces about 1.3 MB at its peak; a second
    # chunk's arrays alive while the next is built would take it past 2 MB.
    _, noise, ch = world
    mo.grid_capacity(ch, noise, 1e-2)  # warm the per-topology caches
    tracemalloc.start()
    try:
        mo.grid_capacity(ch, noise, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * 2**20


def test_best_matrix_reproduces_best_value(world):
    _, noise, ch = world
    res = mo.grid_capacity(ch, noise, 0.05)
    (value,), _ = mo.min_rate([ch], res.best_matrix[None], noise)
    assert value == pytest.approx(res.best_min_rate, abs=1e-12)


def test_single_user_degenerate():
    topo = mo.Topology((1, 1))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(2))
    noise = mo.NoiseProfile((1.0, 1.0))
    res = mo.grid_capacity(ch, noise, 1e-2)
    assert res.evaluations == 1
    assert np.array_equal(res.best_matrix, np.ones((2, 1)))
    assert res.best_min_rate == mo.min_rate([ch], np.ones((1, 2, 1)), noise)[0][0]


def test_refinement_never_decreases(world):
    _, noise, ch = world
    coarse = mo.grid_capacity(ch, noise, 0.2)
    fine = mo.grid_capacity(ch, noise, 0.1)
    assert fine.best_min_rate >= coarse.best_min_rate


def test_upper_reference_over_optimizers(world):
    topo, noise, _ = world
    rng = np.random.default_rng(9)
    for _ in range(10):
        ch = mo.sample_channel(topo, 1.0, rng)
        oracle = mo.grid_capacity(ch, noise, 1e-2)
        rates, _ = mo.run_pgd_batch([ch], noise, mo.uniform_init(topo)[None], np.full(200, 0.05))
        assert rates.max() <= oracle.best_min_rate + 0.01


def test_capability_guard():
    noise = mo.NoiseProfile((1.0, 1.0))
    big = mo.sample_channel(mo.Topology((3, 3)), 1.0, np.random.default_rng(1))
    with pytest.raises(CapabilityError):
        mo.grid_capacity(big, noise, 1e-2)
    _, noise2, ch = (None, noise, mo.sample_channel(mo.Topology((2, 2)), 1.0, np.random.default_rng(4)))
    with pytest.raises(CapabilityError):
        mo.grid_capacity(ch, noise2, 1e-4)  # 10001^2 + 10001 points exceed the guard
    wide = mo.sample_channel(mo.Topology((4, 2)), 1.0, np.random.default_rng(4))
    with pytest.raises(CapabilityError):
        mo.grid_capacity(wide, noise2, 1e-2)  # 101^4 + 101 points


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2)])
def test_deeper_and_wider_networks_accepted(sizes):
    topology = mo.Topology(sizes)
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
    ch = mo.sample_channel(topology, 1.0, np.random.default_rng(6))
    res = mo.grid_capacity(ch, noise, 1e-2)
    assert res.evaluations == 101**topology.stacked_rows
    assert mo.is_feasible(res.best_matrix)
    assert mo.min_rate([ch], res.best_matrix[None], noise)[0][0] == res.best_min_rate


@pytest.mark.parametrize(
    "sizes, resolution",
    [((1, 2), 0.05), ((2, 2), 0.05), ((2, 2), 0.5), ((1, 2, 2), 0.1), ((3, 2), 0.2)],
)
@pytest.mark.parametrize("dead_hop", [None, "first", "last"])
def test_matches_brute_force(sizes, resolution, dead_hop):
    # Bit for bit, ties included: a dead hop makes every point of its block
    # score zero, so the optimum ties across that whole block.
    topology = mo.Topology(sizes)
    noise = mo.NoiseProfile((1.0,) * topology.num_hops)
    rng = np.random.default_rng(sum(sizes))
    for _ in range(3):
        ch = mo.sample_channel(topology, 1.0, rng)
        if dead_hop is not None:
            ch = zeroed(ch, 1 if dead_hop == "first" else topology.num_hops)
        res = mo.grid_capacity(ch, noise, resolution)
        value, matrix = brute_force_grid(ch, noise, resolution)
        assert res.best_min_rate == value
        assert np.array_equal(res.best_matrix, matrix)


# sha256 of the JSON list of [best_min_rate, best_matrix, evaluations,
# resolution] of the first ten criterion-4 channels (1x2x2 at 0 dB), taken
# from the grid entries the acceptance cache once tracked.
ACCEPTANCE_GRID_DIGEST = "d80678c923f059d9123e8bbd6671b733ffd0ba3f33375e0641d1055d8de52586"


def test_acceptance_cache_matches_current_numerics():
    # A fresh search of those channels must give the values the acceptance
    # cache held, bit for bit.
    topology = mo.Topology((2, 2))
    noise = noise_profile(0.0, topology.num_hops)
    test = mo.build_dataset(topology, noise, 10, derive_seed(0, TEST_DATA))
    entries = []
    for ch in test.channels():
        fresh = mo.grid_capacity(ch, noise, 1e-2)
        entries.append([
            float(fresh.best_min_rate), fresh.best_matrix.tolist(),
            int(fresh.evaluations), float(fresh.resolution),
        ])
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == ACCEPTANCE_GRID_DIGEST


def test_resolution_validation(world):
    _, noise, ch = world
    with pytest.raises(ValueError):
        mo.grid_capacity(ch, noise, 0.0)


def test_cache_roundtrip(tmp_path, world):
    _, noise, ch = world
    first = mo.grid_capacity(ch, noise, 0.05, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    second = mo.grid_capacity(ch, noise, 0.05, cache_dir=str(tmp_path))
    assert second.best_min_rate == first.best_min_rate
    assert np.array_equal(second.best_matrix, first.best_matrix)
    # different resolution gets its own entry
    mo.grid_capacity(ch, noise, 0.1, cache_dir=str(tmp_path))
    assert len(list(tmp_path.iterdir())) == 2


def test_tie_breaks_to_lowest_grid_index():
    # A dead channel makes every allocation score zero; the first grid point
    # (all first coefficients zero) must win.
    dead = mo.ChannelRealization(
        first_hop=np.zeros(2, dtype=np.complex128),
        later_hops=(np.zeros((2, 2), dtype=np.complex128),),
    )
    noise = mo.NoiseProfile((1.0, 1.0))
    res = mo.grid_capacity(dead, noise, 0.5)
    assert res.best_min_rate == 0.0
    assert np.array_equal(res.best_matrix[:, 0], np.zeros(3))
    assert np.array_equal(res.best_matrix[:, 1], np.ones(3))
