import numpy as np
import pytest

import manetopt as mo


def interior_point(topo, noise, rng, margin=1e-3):
    """Random feasible point away from every branch switch."""
    for _ in range(200):
        ch = mo.sample_channel(topo, 1.0, rng)
        p = mo.random_init(topo, rng)
        if mo.tie_margin([ch], p[None], noise)[0] > margin:
            return ch, p
    raise RuntimeError("could not find an interior point")


def rel_err(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
    return np.max(np.abs(analytic - fd) / denom)


def test_first_hop_self_derivative_closed_form():
    # Make the first hop binding by giving hop 2 a strong channel; then
    # d rate / d phi = (2 |h|^2 phi) / (ln 2 (|h|^2 phi^2 + sigma^2)).
    topo = mo.Topology((1, 1))
    ch = mo.ChannelRealization(
        first_hop=np.array([1.0 + 0j]), later_hops=(np.array([[10.0 + 0j]]),)
    )
    noise = mo.NoiseProfile((1.0, 1.0))
    p = np.ones((2, 1))
    g = mo.objective_gradient([ch], p[None], noise)
    assert g.active_hop[0] == 1
    assert g.values[0, -1, 0] == pytest.approx(1.0 / np.log(2.0), rel=1e-12)
    # the relay's own coefficients are not part of the binding constraint
    assert g.values[0, 0, 0] == 0.0


def test_gradient_support_is_binding_block():
    topo = mo.Topology((2, 3, 3))
    noise = mo.NoiseProfile((1.0, 1.0, 1.0))
    rng = np.random.default_rng(2)
    for _ in range(20):
        ch = mo.sample_channel(topo, 1.0, rng)
        p = mo.random_init(topo, rng)
        g = mo.objective_gradient([ch], p[None], noise)
        mask = np.zeros_like(g.values[0], dtype=bool)
        if g.active_hop[0] == 1:
            mask[-1, :] = True
        else:
            mask[topo.block_rows(g.active_hop[0] - 1), :] = True
        assert np.all(g.values[0][~mask] == 0.0)


def test_self_partial_positive_when_first_hop_binds():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(3)
    seen = 0
    while seen < 10:
        ch, p = interior_point(topo, noise, rng)
        g = mo.objective_gradient([ch], p[None], noise)
        if g.active_hop[0] != 1:
            continue
        seen += 1
        assert g.values[0, -1, g.active_message[0]] > 0.0


@pytest.mark.parametrize("sizes", [(2, 2), (3, 3)])
def test_gradient_matches_finite_differences(sizes):
    topo = mo.Topology(sizes)
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(30):
        ch, p = interior_point(topo, noise, rng)
        analytic = mo.objective_gradient([ch], p[None], noise).values[0]
        fd = mo.finite_difference_gradient(ch, p, noise, 1e-6)
        worst = max(worst, rel_err(analytic, fd))
    assert worst <= 1e-4


def test_gradient_matches_finite_differences_three_hops():
    # Guards the mapping from reception hops to transmit-layer blocks.
    topo = mo.Topology((2, 2, 2))
    noise = mo.NoiseProfile((1.0, 1.0, 1.0))
    rng = np.random.default_rng(23)
    for _ in range(10):
        ch, p = interior_point(topo, noise, rng)
        analytic = mo.objective_gradient([ch], p[None], noise).values[0]
        fd = mo.finite_difference_gradient(ch, p, noise, 1e-6)
        assert rel_err(analytic, fd) <= 1e-4


def test_finite_difference_convergence_order():
    # Central differences: halving the step shrinks the error about 4x.
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(29)
    ch, p = interior_point(topo, noise, rng, margin=5e-3)
    analytic = mo.objective_gradient([ch], p[None], noise).values[0]
    errs = []
    for step in (2e-3, 1e-3, 5e-4):
        fd = mo.finite_difference_gradient(ch, p, noise, step)
        errs.append(np.max(np.abs(fd - analytic)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.5)


def test_oracle_differs_at_deliberate_tie():
    # Near a rate tie the subgradient of the selected branch need not match
    # central differences (the stencil straddles the argmin switch); such
    # points must be excluded by callers.
    ch = mo.ChannelRealization(
        first_hop=np.array([1.0 + 0j, 1.0 + 0j]),
        later_hops=(np.array([[10.0 + 0j, 10.0 + 0j], [10.0 + 0j, 10.0 + 0j]]),),
    )
    noise = mo.NoiseProfile((1.0, 1.0))
    p = mo.project(np.array([[1.0, 1.0], [1.0, 1.0], [1.0 + 1e-8, 1.0]]))
    assert mo.tie_margin([ch], p[None], noise)[0] < 1e-3
    analytic = mo.objective_gradient([ch], p[None], noise).values[0]
    fd = mo.finite_difference_gradient(ch, p, noise, 1e-6)
    assert not np.allclose(analytic, fd, atol=1e-6)


def test_batched_gradient_matches_scalar():
    # Element i of a batch equals a batch of one on element i, for the
    # gradient and the tie margin.
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(31)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(5)]
    stack = np.stack([mo.random_init(topo, i) for i in range(5)])
    batched = mo.objective_gradient(channels, stack, noise)
    margins = mo.tie_margin(channels, stack, noise)
    assert margins.shape == (5,)
    for i in range(5):
        one = (channels[i : i + 1], stack[i : i + 1], noise)
        single = mo.objective_gradient(*one)
        assert np.array_equal(batched.values[i], single.values[0])
        for field in ("active_message", "active_hop", "active_node"):
            assert getattr(batched, field)[i] == getattr(single, field)[0]
        assert margins[i] == mo.tie_margin(*one)[0]
    with pytest.raises(ValueError, match="shape"):
        mo.objective_gradient(channels, stack[:4], noise)


def test_batched_channel_single_matrix():
    # One allocation evaluated across a list of channel realizations.
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    singles = [mo.sample_channel(topo, 1.0, np.random.default_rng(i)) for i in range(4)]
    p = mo.random_init(topo, 9)
    stack = np.repeat(p[None], len(singles), axis=0)
    values, idx = mo.min_rate(singles, stack, noise)
    grads = mo.objective_gradient(singles, stack, noise)
    for i, ch in enumerate(singles):
        (v,), (j,) = mo.min_rate([ch], p[None], noise)
        assert values[i] == v and idx[i] == j
        assert np.array_equal(grads.values[i], mo.objective_gradient([ch], p[None], noise).values[0])


def test_fd_rejects_bad_inputs():
    topo = mo.Topology((2, 2))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(0))
    noise = mo.NoiseProfile((1.0, 1.0))
    with pytest.raises(ValueError):
        mo.finite_difference_gradient(ch, mo.uniform_init(topo), noise, 0.0)
