import numpy as np
import pytest

import manetopt as mo


def loop_estimate(channel, noise, gen):
    """One channel's pilot reception and LMMSE estimate, hop by hop: basis
    pilots e_i of length T, the largest transmitter count, sent through the
    channel with explicit AWGN, then matched-filtered and shrunk.  Returns
    the matched-filter outputs and the estimates, first hop first."""
    counts = [1] + [mat.shape[0] for mat in channel.later_hops]
    basis = np.eye(max(counts), dtype=np.complex128)
    pilots = [basis[:c] for c in counts]
    received = []
    for hop in range(1, len(pilots) + 1):
        if hop == 1:
            clean = channel.first_hop[:, None] * pilots[0][0][None, :]
        else:
            clean = channel.later_hops[hop - 2].T @ pilots[hop - 1]
        scale = np.sqrt(noise.hop_noise_vars[hop - 1] / 2.0)
        w = gen.standard_normal(clean.shape) * scale + 1j * gen.standard_normal(clean.shape) * scale
        received.append(clean + w)
    matched = [received[0] @ pilots[0][0].conj()] + [
        pilots[hop - 1].conj() @ received[hop - 1].T for hop in range(2, len(pilots) + 1)
    ]
    cv = noise.channel_var
    shrink = [cv / (cv + v) for v in noise.hop_noise_vars]
    return matched, [k * m for k, m in zip(shrink, matched)]


def same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_pilot_length_is_max_transmitters():
    # Every receiver of every hop draws T real and T imaginary samples, T
    # being the largest transmitter count, whatever its hop's own count;
    # the closed form skips no draw of the unused pilot slots.
    for sizes, slots in (((2, 2), 2), ((3, 3), 3), ((4, 2, 2), 4), ((1, 3, 2), 3)):
        topo = mo.Topology(sizes)
        ch = mo.sample_channel(topo, 1.0, np.random.default_rng(1))
        noise = mo.NoiseProfile((1.0,) * topo.num_hops)
        gen = np.random.default_rng(9)
        mo.lmmse_estimates([ch], [noise], [gen])
        reference = np.random.default_rng(9)
        reference.standard_normal(2 * slots * sum(sizes))
        assert gen.standard_normal() == reference.standard_normal()


def test_noiseless_pilots_reconstruct_exactly():
    topo = mo.Topology((2, 3, 3))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(1))
    noise = mo.NoiseProfile((0.0, 0.0, 0.0))
    [est] = mo.lmmse_estimates([ch], [noise], [np.random.default_rng(0)])
    assert np.array_equal(est.first_hop, ch.first_hop)
    for a, b in zip(est.later_hops, ch.later_hops):
        assert np.array_equal(a, b)


def test_simulation_reproducible():
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(2))
    noise = mo.NoiseProfile((1.0, 1.0))
    [a] = mo.lmmse_estimates([ch], [noise], [np.random.default_rng(11)])
    [b] = mo.lmmse_estimates([ch], [noise], [np.random.default_rng(11)])
    assert np.array_equal(a.first_hop, b.first_hop)
    assert np.array_equal(a.later_hops[0], b.later_hops[0])


def test_pilot_noise_variance():
    # The estimate is shrink * (h + n): its deviation from shrink * h has
    # variance shrink^2 sigma_b^2 at every hop.
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(3))
    noise = mo.NoiseProfile((0.7, 2.0))
    # one generator for every copy: drawn copy after copy, as 8000 calls would
    estimates = mo.lmmse_estimates([ch] * 8000, [noise] * 8000, [np.random.default_rng(4)] * 8000)
    for hop, var in ((0, 0.7), (1, 2.0)):
        shrink = 1.0 / (1.0 + var)
        truth = (ch.first_hop, *ch.later_hops)[hop]
        w = np.concatenate([((e.first_hop, *e.later_hops)[hop] - shrink * truth).ravel()
                            for e in estimates])
        assert w.size >= 1e4
        assert abs(np.mean(np.abs(w) ** 2) - shrink**2 * var) < 0.02 * shrink**2 * var


def test_lmmse_hand_value():
    # sigma_h^2 = sigma_b^2 = 1 and matched-filter output 2 -> estimate 1:
    # the channel is set to 2 - n for the first sample pair the generator
    # will draw.
    draw = np.random.default_rng(5)
    re, im = draw.standard_normal(), draw.standard_normal()
    n = np.sqrt(0.5) * (re + 1j * im)
    ch = mo.ChannelRealization(
        first_hop=np.array([2.0 - n]), later_hops=(np.zeros((1, 1), dtype=np.complex128),)
    )
    [est] = mo.lmmse_estimates([ch], [mo.NoiseProfile((1.0, 1.0))], [np.random.default_rng(5)])
    assert est.first_hop[0] == pytest.approx(1.0)


def test_lmmse_mse_matches_formula():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(5)
    errs = []
    for _ in range(4000):
        ch = mo.sample_channel(topo, 1.0, rng)
        [est] = mo.lmmse_estimates([ch], [noise], [rng])
        errs.append(np.abs(est.first_hop - ch.first_hop) ** 2)
        errs.append(np.abs(est.later_hops[0] - ch.later_hops[0]).ravel() ** 2)
    mse = np.mean(np.concatenate(errs))
    assert mse == pytest.approx(0.5, rel=0.05)


def test_lmmse_shrinks_matched_filter():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((0.5, 3.0))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(6))
    matched, _ = loop_estimate(ch, noise, np.random.default_rng(16))
    [est] = mo.lmmse_estimates([ch], [noise], [np.random.default_rng(16)])
    for got, mf in zip((est.first_hop, *est.later_hops), matched):
        assert np.all(np.abs(got) <= np.abs(mf) + 1e-15)


def test_lmmse_beats_matched_filter_mse():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((2.0, 2.0))
    rng = np.random.default_rng(7)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(3000)]
    estimates = mo.lmmse_estimates(channels, [noise] * 3000, [np.random.default_rng(17)] * 3000)
    gen = np.random.default_rng(17)
    lmmse_err, mf_err = [], []
    for ch, est in zip(channels, estimates):
        matched, _ = loop_estimate(ch, noise, gen)
        lmmse_err.append(np.abs(est.first_hop - ch.first_hop) ** 2)
        mf_err.append(np.abs(matched[0] - ch.first_hop) ** 2)
    assert np.mean(lmmse_err) < np.mean(mf_err)


def test_multiaccess_estimates_do_not_interfere():
    # At zero noise, simultaneous transmitters separate exactly.
    topo = mo.Topology((3, 3))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(8))
    noise = mo.NoiseProfile((0.0, 0.0))
    [est] = mo.lmmse_estimates([ch], [noise], [np.random.default_rng(0)])
    assert np.array_equal(est.later_hops[0], ch.later_hops[0])


def test_estimates_feed_the_rate_engine():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(10))
    [est] = mo.lmmse_estimates([ch], [noise], [np.random.default_rng(2)])
    value, _ = mo.min_rate([est], mo.uniform_init(topo)[None], noise)
    assert np.isfinite(value).all()


def test_lmmse_estimates_need_one_noise_variance_per_hop():
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(12))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="per hop"):
        mo.lmmse_estimates([ch], [mo.NoiseProfile((1.0,))], [rng])
    with pytest.raises(ValueError, match="per hop"):
        mo.lmmse_estimates([ch], [mo.NoiseProfile((1.0, 1.0, 1.0))], [rng])
    with pytest.raises(ValueError, match="per channel"):
        mo.lmmse_estimates([ch], [], [rng])
    assert mo.lmmse_estimates([], [], []) == []


def test_estimates_read_each_profiles_channel_variance():
    # One call, two profiles: each channel shrinks by channel_var /
    # (channel_var + sigma_b^2) of its own profile, 1/2 and 3/4 here.
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 3.0, np.random.default_rng(14))
    unit, wide = mo.NoiseProfile((1.0, 1.0)), mo.NoiseProfile((1.0, 1.0), 3.0)
    got = mo.lmmse_estimates([ch, ch], [unit, wide], [np.random.default_rng(15) for _ in "ab"])
    for est, noise in zip(got, (unit, wide)):
        _, want = loop_estimate(ch, noise, np.random.default_rng(15))
        assert all(same(a, b) for a, b in zip(want, (est.first_hop, *est.later_hops)))
    assert got[1].first_hop == pytest.approx(1.5 * got[0].first_hop)


@pytest.mark.parametrize("shared", [False, True], ids=["per-channel", "shared"])
@pytest.mark.parametrize(
    "hop_sizes", [(2, 2), (3, 3), (4, 4), (2, 2, 2), (4, 2), (3, 1, 2), (1, 4, 2)]
)
def test_stacked_pilots_equal_the_per_channel_loop(hop_sizes, shared):
    # The closed-form estimates give the bytes of explicit reception of
    # basis pilots, as ``loop_estimate`` simulates it channel by channel,
    # drawing in the same order, from one generator per channel or one
    # shared by all; channels carry -10, 0 and 10 dB noise and a zero-noise
    # profile at channel variance 2, set only by the profiles.  (3, 1, 2)
    # and (1, 4, 2) leave pilot slots of later hops unused.
    topo = mo.Topology(hop_sizes)
    rng = np.random.default_rng([13, *hop_sizes])
    channels = [mo.sample_channel(topo, 2.0, rng) for _ in range(8)]
    noises = [
        mo.NoiseProfile((10.0 ** (db / 10.0),) * topo.num_hops, 2.0)
        for db in (-10.0, 0.0, 10.0, -10.0, 0.0, 10.0, 0.0, 10.0)
    ]
    noises[6] = mo.NoiseProfile((0.0,) * topo.num_hops, 2.0)

    def generators():
        if shared:
            return [np.random.default_rng(21)] * len(channels)
        return [np.random.default_rng([21, i]) for i in range(len(channels))]

    expected = [
        loop_estimate(ch, n, g)[1] for ch, n, g in zip(channels, noises, generators())
    ]
    stacked = mo.lmmse_estimates(channels, noises, generators())
    for want, got in zip(expected, stacked):
        assert all(same(a, b) for a, b in zip(want, (got.first_hop, *got.later_hops)))
    for ch, n, g, want in zip(channels, noises, generators(), expected):
        [got] = mo.lmmse_estimates([ch], [n], [g])
        assert all(same(a, b) for a, b in zip(want, (got.first_hop, *got.later_hops)))
