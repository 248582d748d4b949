import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manetopt as mo

LOG2_4_3 = 0.4150374992788438


def unit_channel(values_first, values_later):
    return mo.ChannelRealization(
        first_hop=np.asarray(values_first, dtype=np.complex128),
        later_hops=(np.asarray(values_later, dtype=np.complex128),),
    )


@pytest.fixture
def symmetric_net():
    ch = unit_channel([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    noise = mo.NoiseProfile((1.0, 1.0))
    p = mo.uniform_init(mo.Topology((2, 2)))
    return ch, p, noise


def test_single_user_shannon_rate():
    topo = mo.Topology((1, 1))
    ch = unit_channel([1.0], [[1.0]])
    p = mo.uniform_init(topo)  # all ones for N=1
    noise = mo.NoiseProfile((1.0, 1.0))
    report = mo.compute_report([ch], p[None], noise)
    assert report.first_hop_rates[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


def test_tie_counts_as_interference(symmetric_net):
    ch, p, noise = symmetric_net
    report = mo.compute_report([ch], p[None], noise)
    for n in (0, 1):
        assert report.first_hop_rates[0, 0, n] == pytest.approx(LOG2_4_3, abs=1e-12)


def test_zero_power_message():
    ch = unit_channel([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
    noise = mo.NoiseProfile((1.0, 1.0))
    p = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    report = mo.compute_report([ch], p[None], noise)
    assert report.first_hop_rates[0, 0, 0] == pytest.approx(1.0)
    assert report.first_hop_rates[0, 0, 1] == 0.0


def gains(ch, p):
    """Hop-2 gains (M_2, N); they do not depend on the noise."""
    return mo.compute_report([ch], p[None], mo.NoiseProfile((1.0, 1.0))).gains[0][0]


def test_gain_examples():
    topo = mo.Topology((2, 2))
    p = mo.uniform_init(topo)
    coherent = unit_channel([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    assert gains(coherent, p)[0, 0] == pytest.approx(2.0, rel=1e-12)
    destructive = unit_channel([1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0]])
    assert gains(destructive, p)[0, 0] == pytest.approx(0.0, abs=1e-15)
    zero_col = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert gains(coherent, zero_col)[0, 1] == 0.0


def test_later_hop_rate_sic_sets():
    # Receiver 0 sees gains (2, 1) at unit noise: both messages decode at 1 bit.
    ch = unit_channel([1.0, 1.0], [[np.sqrt(2.0), 0.0], [1.0, 0.0]])
    p = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    noise = mo.NoiseProfile((1.0, 1.0))
    report = mo.compute_report([ch], p[None], noise)
    gain, rate = report.gains[0][0], report.later_hop_rates[0][0]
    assert gain[0, 0] == pytest.approx(2.0)
    assert gain[0, 1] == pytest.approx(1.0)
    assert rate[0, 0] == pytest.approx(1.0)
    assert rate[0, 1] == pytest.approx(1.0)
    # receiver 1 hears nothing: zero gain means zero rate
    assert gain[1, 0] == 0.0
    assert rate[1, 0] == 0.0


def test_later_hop_rate_single_message():
    topo = mo.Topology((1, 1))
    ch = unit_channel([1.0], [[2.0]])
    p = mo.uniform_init(topo)
    noise = mo.NoiseProfile((1.0, 4.0))
    # g = 4, sigma^2 = 4 -> log2(2)
    report = mo.compute_report([ch], p[None], noise)
    assert report.later_hop_rates[0][0, 0, 0] == pytest.approx(1.0)


def test_message_rate_is_min_of_constraints(symmetric_net):
    ch, p, noise = symmetric_net
    report = mo.compute_report([ch], p[None], noise)
    for n in (0, 1):
        rate = report.message_rates[0, n]
        assert rate <= report.first_hop_rates[0, :, n].min() + 1e-15
    # symmetric network: all message rates equal
    assert report.message_rates[0, 0] == pytest.approx(report.message_rates[0, 1], abs=1e-12)


def test_two_hop_single_link_min():
    topo = mo.Topology((1, 1))
    ch = unit_channel([1.0], [[3.0]])
    p = mo.uniform_init(topo)
    noise = mo.NoiseProfile((1.0, 1.0))
    report = mo.compute_report([ch], p[None], noise)
    r1 = report.first_hop_rates[0, 0, 0]
    r2 = report.later_hop_rates[0][0, 0, 0]
    assert report.message_rates[0, 0] == pytest.approx(min(r1, r2))


def test_min_rate_argmin_and_ties(symmetric_net):
    ch, p, noise = symmetric_net
    (value,), (idx,) = mo.min_rate([ch], p[None], noise)
    assert idx == 0  # tie breaks to the lowest index
    report = mo.compute_report([ch], p[None], noise)
    assert value == pytest.approx(report.message_rates.min())


def test_min_rate_batched():
    # Element i of a batch equals a batch of one on element i.
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(0)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(4)]
    stack = np.stack([mo.random_init(topo, i) for i in range(4)])
    values, idx = mo.min_rate(channels, stack, noise)
    assert values.shape == (4,) and idx.shape == (4,)
    for i in range(4):
        (v,), (j,) = mo.min_rate(channels[i : i + 1], stack[i : i + 1], noise)
        assert values[i] == v and idx[i] == j


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance(seed):
    # Relabeling messages means permuting the power-matrix columns together
    # with the end users (user n is the intended receiver of message n).
    topo = mo.Topology((2, 3))
    noise = mo.NoiseProfile((1.0, 0.5))
    rng = np.random.default_rng(seed)
    ch = mo.sample_channel(topo, 1.0, rng)
    p = mo.random_init(topo, rng)
    perm = rng.permutation(3)
    relabeled = mo.ChannelRealization(
        first_hop=ch.first_hop, later_hops=(ch.later_hops[0][:, perm],)
    )
    base = mo.compute_report([ch], p[None], noise)
    permuted = mo.compute_report([relabeled], p[:, perm][None], noise)
    assert np.allclose(base.message_rates[:, perm], permuted.message_rates, atol=1e-12)
    assert np.isclose(base.min_rate, permuted.min_rate, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(1.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_noise_monotonicity(seed, factor):
    topo = mo.Topology((2, 2))
    rng = np.random.default_rng(seed)
    ch = mo.sample_channel(topo, 1.0, rng)
    p = mo.random_init(topo, rng)
    low = mo.compute_report([ch], p[None], mo.NoiseProfile((1.0, 1.0)))
    high = mo.compute_report([ch], p[None], mo.NoiseProfile((factor, factor)))
    assert np.all(high.message_rates <= low.message_rates + 1e-12)
    assert np.all(low.message_rates >= 0.0)
    assert np.all(low.first_hop_rates >= 0.0)
    for r in low.later_hop_rates:
        assert np.all(r >= 0.0)


def test_channel_scaling_single_user():
    # No interference: the closed form is exact and grows with |c| > 1.
    topo = mo.Topology((1, 1))
    noise = mo.NoiseProfile((1.0, 1.0))
    p = mo.uniform_init(topo)
    base = unit_channel([1.0], [[5.0]])
    scaled = unit_channel([2.0], [[5.0]])
    r_base = mo.compute_report([base], p[None], noise).first_hop_rates[0, 0, 0]
    r_scaled = mo.compute_report([scaled], p[None], noise).first_hop_rates[0, 0, 0]
    assert r_scaled == pytest.approx(np.log2(1 + 4.0))
    assert r_scaled > r_base


def test_report_serializes():
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(1))
    report = mo.compute_report([ch], mo.uniform_init(topo)[None], mo.NoiseProfile((1.0, 1.0)))
    doc = report.to_json()
    assert len(doc["message_rates"][0]) == 2
    assert doc["min_rate"] == report.min_rate.tolist()


def test_end_user_obligation_includes_self():
    # g[l, n] >= g[l, l] decides which end users must decode message n;
    # user n always qualifies for its own message.
    topo = mo.Topology((2, 2))
    rng = np.random.default_rng(8)
    ch = mo.sample_channel(topo, 1.0, rng)
    p = mo.random_init(topo, rng)
    noise = mo.NoiseProfile((1.0, 1.0))
    report = mo.compute_report([ch], p[None], noise)
    first, later = report.first_hop_rates[0], report.later_hop_rates[0][0]
    gain = report.gains[0][0]
    for n in (0, 1):
        constraints = [first[m, n] for m in range(2)]
        constraints.append(later[n, n])
        other = 1 - n
        if gain[other, n] >= gain[other, other]:
            constraints.append(later[other, n])
        assert report.message_rates[0, n] == pytest.approx(min(constraints), abs=1e-12)
