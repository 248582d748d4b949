import numpy as np
import pytest

import manetopt as mo


def test_topology_counts():
    topo = mo.Topology((2, 2))
    assert topo.num_hops == 2
    assert topo.end_users == 2
    assert topo.stacked_rows == 3


def test_topology_validation():
    with pytest.raises(ValueError):
        mo.Topology((3,))
    with pytest.raises(ValueError):
        mo.Topology((2, 0))


def test_transmitters_and_blocks():
    # hop 1 has the source as its one transmitter; hop b >= 2 one row of
    # its link matrix per relay of layer b-1
    topo = mo.Topology((2, 3, 3))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(0))
    assert ch.first_hop.shape == (2,)
    assert [m.shape for m in ch.later_hops] == [(2, 3), (3, 3)]
    assert topo.block_rows(1) == slice(0, 2)
    assert topo.block_rows(2) == slice(2, 5)
    assert topo.stacked_rows == 6


def test_sample_channel_shapes_and_determinism():
    topo = mo.Topology((2, 2))
    a = mo.sample_channel(topo, 1.0, np.random.default_rng(3))
    b = mo.sample_channel(topo, 1.0, np.random.default_rng(3))
    assert a.first_hop.shape == (2,)
    assert a.later_hops[0].shape == (2, 2)
    assert np.array_equal(a.first_hop, b.first_hop)
    assert np.array_equal(a.later_hops[0], b.later_hops[0])


def test_channel_moments():
    # E|h|^2 = 1 and each component carries half the variance.
    topo = mo.Topology((5, 5, 5))
    rng = np.random.default_rng(11)
    draws = [mo.sample_channel(topo, 1.0, rng) for _ in range(2000)]
    flat = np.concatenate(
        [np.concatenate([d.first_hop] + [m.ravel() for m in d.later_hops]) for d in draws]
    )
    assert flat.size >= 100_000
    assert abs(np.mean(np.abs(flat) ** 2) - 1.0) < 0.02
    assert abs(np.var(flat.real) - 0.5) < 0.015
    assert abs(np.var(flat.imag) - 0.5) < 0.015


def test_noise_profile_validation():
    with pytest.raises(ValueError):
        mo.NoiseProfile((-1.0, 1.0))
    with pytest.raises(ValueError):
        mo.NoiseProfile((1.0,), channel_var=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            mo.NoiseProfile((1.0, bad))
        with pytest.raises(ValueError):
            mo.NoiseProfile((1.0,), channel_var=bad)
    # zero noise is allowed for the estimation limit
    mo.NoiseProfile((0.0, 0.0))


def test_build_dataset():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    ds = mo.build_dataset(topo, noise, 1000, seed=9)
    assert len(ds) == 1000
    assert all(mo.topology_of(ch) == topo for ch, _ in ds.entries[:10])
    again = mo.build_dataset(topo, noise, 1000, seed=9)
    assert np.array_equal(ds.entries[500][0].first_hop, again.entries[500][0].first_hop)


def test_build_dataset_entry_streams_independent_of_count():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    small = mo.build_dataset(topo, noise, 3, seed=4)
    large = mo.build_dataset(topo, noise, 10, seed=4)
    assert np.array_equal(small.entries[2][0].first_hop, large.entries[2][0].first_hop)


def test_build_dataset_errors():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    with pytest.raises(ValueError):
        mo.build_dataset(topo, noise, 0, seed=1)
    with pytest.raises(ValueError):
        mo.build_dataset(topo, mo.NoiseProfile((1.0,)), 2, seed=1)
    single = mo.build_dataset(topo, noise, 1, seed=1)
    assert len(single) == 1


def test_sample_channel_rejects_bad_variance():
    with pytest.raises(ValueError):
        mo.sample_channel(mo.Topology((2, 2)), 0.0, np.random.default_rng(0))
