import numpy as np
import pytest

import manetopt as mo
from manetopt.engine import stack_channels
from manetopt.pilots import _estimates, _received


def test_pilot_length_is_max_transmitters():
    pilots = mo.make_pilots(mo.Topology((2, 2)))
    assert pilots[0].shape == (1, 2)
    assert pilots[1].shape == (2, 2)
    pilots3 = mo.make_pilots(mo.Topology((3, 3)))
    assert pilots3[1].shape == (3, 3)
    # asymmetric: the widest hop sets T
    pilots_mixed = mo.make_pilots(mo.Topology((4, 2, 2)))
    assert all(p.shape[-1] == 4 for p in pilots_mixed)


def test_pilots_orthonormal():
    for sizes in [(2, 2), (3, 3), (2, 3, 3)]:
        for hop_pilots in mo.make_pilots(mo.Topology(sizes)):
            gram = hop_pilots.conj() @ hop_pilots.T
            assert np.max(np.abs(gram - np.eye(hop_pilots.shape[0]))) < 1e-12


def test_noiseless_pilots_reconstruct_exactly():
    topo = mo.Topology((2, 3, 3))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(1))
    noise = mo.NoiseProfile((0.0, 0.0, 0.0))
    [est] = mo.lmmse_estimates([ch], [noise], mo.make_pilots(topo), [np.random.default_rng(0)])
    assert np.array_equal(est.first_hop, ch.first_hop)
    for a, b in zip(est.later_hops, ch.later_hops):
        assert np.array_equal(a, b)


def test_simulation_reproducible():
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(2))
    noise = mo.NoiseProfile((1.0, 1.0))
    pilots = mo.make_pilots(topo)
    first, later = stack_channels([ch])
    var = np.array([noise.hop_noise_vars])
    a = _received(first, later, var, pilots, [np.random.default_rng(11)])
    b = _received(first, later, var, pilots, [np.random.default_rng(11)])
    for ya, yb in zip(a, b):
        assert np.array_equal(ya, yb)


def test_pilot_noise_variance():
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(3))
    noise = mo.NoiseProfile((0.7, 2.0))
    pilots = mo.make_pilots(topo)
    rng = np.random.default_rng(4)
    first, later = stack_channels([ch])
    clean = _received(first, later, np.zeros((1, 2)), pilots, [rng])
    # one generator for every copy: drawn copy after copy, as 4000 calls would
    noisy = _received(
        np.repeat(first, 4000, axis=0),
        [np.repeat(m, 4000, axis=0) for m in later],
        np.repeat([noise.hop_noise_vars], 4000, axis=0),
        pilots,
        [rng] * 4000,
    )
    for hop, var in ((0, 0.7), (1, 2.0)):
        w = (noisy[hop] - clean[hop]).ravel()
        assert w.size >= 1e4
        assert abs(np.mean(np.abs(w) ** 2) - var) < 0.02 * var


def test_lmmse_hand_value():
    # sigma_h^2 = sigma_b^2 = 1 and matched-filter output 2 -> estimate 1.
    topo = mo.Topology((1, 1))
    pilots = mo.make_pilots(topo)
    received = [np.array([[[2.0 + 0j]]]), np.array([[[0.0 + 0j]]])]
    first, _ = _estimates(received, np.array([[1.0, 1.0]]), pilots, 1.0)
    assert first[0, 0] == pytest.approx(1.0)


def test_lmmse_mse_matches_formula():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    pilots = mo.make_pilots(topo)
    rng = np.random.default_rng(5)
    errs = []
    for _ in range(4000):
        ch = mo.sample_channel(topo, 1.0, rng)
        [est] = mo.lmmse_estimates([ch], [noise], pilots, [rng])
        errs.append(np.abs(est.first_hop - ch.first_hop) ** 2)
        errs.append(np.abs(est.later_hops[0] - ch.later_hops[0]).ravel() ** 2)
    mse = np.mean(np.concatenate(errs))
    assert mse == pytest.approx(0.5, rel=0.05)


def test_lmmse_shrinks_matched_filter():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((0.5, 3.0))
    pilots = mo.make_pilots(topo)
    rng = np.random.default_rng(6)
    ch = mo.sample_channel(topo, 1.0, rng)
    first, later = stack_channels([ch])
    var = np.array([noise.hop_noise_vars])
    received = _received(first, later, var, pilots, [rng])
    est_first, est_later = _estimates(received, var, pilots, 1.0)
    mf_first = received[0][0] @ pilots[0][0].conj()
    assert np.all(np.abs(est_first[0]) <= np.abs(mf_first) + 1e-15)
    mf_later = pilots[1].conj() @ received[1][0].T
    assert np.all(np.abs(est_later[0]) <= np.abs(mf_later) + 1e-15)


def test_lmmse_beats_matched_filter_mse():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((2.0, 2.0))
    pilots = mo.make_pilots(topo)
    rng = np.random.default_rng(7)
    var = np.array([noise.hop_noise_vars])
    lmmse_err, mf_err = [], []
    for _ in range(3000):
        ch = mo.sample_channel(topo, 1.0, rng)
        first, later = stack_channels([ch])
        received = _received(first, later, var, pilots, [rng])
        est_first = _estimates(received, var, pilots, 1.0)[0][0]
        mf = received[0][0] @ pilots[0][0].conj()
        lmmse_err.append(np.abs(est_first - ch.first_hop) ** 2)
        mf_err.append(np.abs(mf - ch.first_hop) ** 2)
    assert np.mean(lmmse_err) < np.mean(mf_err)


def test_multiaccess_estimates_do_not_interfere():
    # At zero noise, simultaneous transmitters separate exactly.
    topo = mo.Topology((3, 3))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(8))
    noise = mo.NoiseProfile((0.0, 0.0))
    [est] = mo.lmmse_estimates([ch], [noise], mo.make_pilots(topo), [np.random.default_rng(0)])
    assert np.array_equal(est.later_hops[0], ch.later_hops[0])


def test_estimates_feed_the_rate_engine():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(10))
    [est] = mo.lmmse_estimates([ch], [noise], mo.make_pilots(topo), [np.random.default_rng(2)])
    value, _ = mo.min_rate([est], mo.uniform_init(topo)[None], noise)
    assert np.isfinite(value).all()


def test_lmmse_estimates_need_one_pilot_set_and_noise_variance_per_hop():
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(12))
    pilots = mo.make_pilots(topo)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="per hop"):
        mo.lmmse_estimates([ch], [mo.NoiseProfile((1.0, 1.0))], pilots[:1], [rng])
    with pytest.raises(ValueError, match="per hop"):
        mo.lmmse_estimates([ch], [mo.NoiseProfile((1.0, 1.0, 1.0))], pilots, [rng])
    with pytest.raises(ValueError, match="per channel"):
        mo.lmmse_estimates([ch], [], pilots, [rng])
    assert mo.lmmse_estimates([], [], pilots, []) == []


def loop_estimate(channel, noise, pilots, gen, channel_var):
    """One channel's pilot reception and LMMSE estimate, hop by hop: the
    per-channel arithmetic the stacked kernels replaced."""
    received = []
    for hop in range(1, len(pilots) + 1):
        if hop == 1:
            clean = channel.first_hop[:, None] * pilots[0][0][None, :]
        else:
            clean = channel.later_hops[hop - 2].T @ pilots[hop - 1]
        scale = np.sqrt(noise.hop_noise_vars[hop - 1] / 2.0)
        w = gen.standard_normal(clean.shape) * scale + 1j * gen.standard_normal(clean.shape) * scale
        received.append(clean + w)
    shrink = [channel_var / (channel_var + v) for v in noise.hop_noise_vars]
    first = shrink[0] * (received[0] @ pilots[0][0].conj())
    later = [
        shrink[hop - 1] * (pilots[hop - 1].conj() @ received[hop - 1].T)
        for hop in range(2, len(pilots) + 1)
    ]
    return received, [first] + later


@pytest.mark.parametrize("shared", [False, True], ids=["per-channel", "shared"])
@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (4, 4), (2, 2, 2), (4, 2)])
def test_stacked_pilots_equal_the_per_channel_loop(hop_sizes, shared):
    # The stacked reception and estimates give the bytes of the hop-by-hop
    # loop on each channel, drawing in the same order, from one generator
    # per channel or one shared by all; channels carry -10, 0 and 10 dB
    # noise and a zero-noise profile.
    topo = mo.Topology(hop_sizes)
    rng = np.random.default_rng([13, *hop_sizes])
    channels = [mo.sample_channel(topo, 2.0, rng) for _ in range(8)]
    noises = [
        mo.NoiseProfile((10.0 ** (db / 10.0),) * topo.num_hops, 2.0)
        for db in (-10.0, 0.0, 10.0, -10.0, 0.0, 10.0, 0.0, 10.0)
    ]
    noises[6] = mo.NoiseProfile((0.0,) * topo.num_hops, 2.0)
    pilots = mo.make_pilots(topo)

    def generators():
        if shared:
            return [np.random.default_rng(21)] * len(channels)
        return [np.random.default_rng([21, i]) for i in range(len(channels))]

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    expected = [
        loop_estimate(ch, n, pilots, g, 2.0) for ch, n, g in zip(channels, noises, generators())
    ]
    stacked = mo.lmmse_estimates(channels, noises, pilots, generators(), 2.0)
    for (_, want), got in zip(expected, stacked):
        assert all(same(a, b) for a, b in zip(want, (got.first_hop, *got.later_hops)))
    first, later = stack_channels(channels)
    var = np.array([n.hop_noise_vars for n in noises])
    received = _received(first, later, var, pilots, generators())
    for i, (want, _) in enumerate(expected):
        assert all(same(a, b[i]) for a, b in zip(want, received))
    for ch, n, g, (_, want) in zip(channels, noises, generators(), expected):
        [got] = mo.lmmse_estimates([ch], [n], pilots, [g], 2.0)
        assert all(same(a, b) for a, b in zip(want, (got.first_hop, *got.later_hops)))
