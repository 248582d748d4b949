import numpy as np
import pytest

import manetopt as mo


@pytest.fixture
def net_122():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    ch = mo.sample_channel(topo, 1.0, np.random.default_rng(12))
    return topo, ch, noise


def one_run(ch, noise, p0, mu):
    """Min rates (K+1,) and iterates (K+1, rows, N) of one channel from one
    start: a batch of one."""
    rates, iterates = mo.run_pgd_batch([ch], noise, p0[None], mu, record_iterates=True)
    return rates[:, 0], iterates[:, 0]


def test_zero_step_is_identity(net_122):
    topo, ch, noise = net_122
    p = mo.random_init(topo, 4)
    assert np.array_equal(one_run(ch, noise, p, [0.0])[1][1], p)


def test_zero_gradient_keeps_point(net_122):
    topo, _, noise = net_122
    dead = mo.ChannelRealization(
        first_hop=np.zeros(2, dtype=np.complex128),
        later_hops=(np.zeros((2, 2), dtype=np.complex128),),
    )
    p = mo.uniform_init(topo)
    assert np.array_equal(one_run(dead, noise, p, [0.5])[1][1], p)


def test_small_step_does_not_decrease_min_rate(net_122):
    # First-order ascent property at smooth points.
    topo, noise = mo.Topology((2, 2)), mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 20:
        ch = mo.sample_channel(topo, 1.0, rng)
        p = mo.uniform_init(topo)
        if mo.tie_margin([ch], p[None], noise)[0] < 1e-3:
            continue
        checked += 1
        stepped = one_run(ch, noise, p, [1e-3])[1][1]
        (before, after), _ = mo.min_rate([ch] * 2, np.stack([p, stepped]), noise)
        assert after >= before - 1e-12


def test_pgd_step_requires_feasible_point(net_122, monkeypatch):
    # One infeasible start refuses the whole batch before any step.
    topo, ch, noise = net_122

    def no_steps(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr(mo.engine, "iterate_schedule", no_steps)
    uniform = mo.uniform_init(topo)
    for starts in (np.full((1, 3, 2), 0.9), np.stack([uniform, np.full((3, 2), 0.9), uniform])):
        with pytest.raises(ValueError, match="feasible"):
            mo.run_pgd_batch([ch] * len(starts), noise, starts, [0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_steps_are_rejected(net_122, bad):
    # A zero gradient times an infinite step is NaN, which would move rows
    # that must stay put; every path into iterate_schedule refuses it.
    topo, ch, noise = net_122
    p0 = mo.uniform_init(topo)
    mu = np.full(5, 0.1)
    mu[2] = bad
    per_element = np.full((5, 3), 0.1)
    per_element[4, 1] = bad
    calls = [
        lambda: mo.run_pgd_batch([ch], noise, p0[None], [bad]),
        lambda: mo.run_pgd_batch([ch], noise, p0[None], mu),
        lambda: mo.run_pgd_batch([ch] * 3, noise, np.stack([p0] * 3), mu),
        lambda: mo.run_pgd_batch([ch] * 3, noise, np.stack([p0] * 3), per_element),
        lambda: mo.infer_batch([ch, ch], noise, mu, 2, [0, 1]),
        lambda: mo.calibrate_fixed_step([ch], noise, candidates=(bad, 0.5, 0.1), iterations=3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_run_pgd_zero_iterations(net_122):
    topo, ch, noise = net_122
    p0 = mo.uniform_init(topo)
    rates, iterates = mo.run_pgd_batch([ch], noise, p0[None], np.zeros(0), record_iterates=True)
    assert rates.shape == (1, 1)
    assert np.array_equal(iterates, p0[None, None])
    assert rates[0, 0] == mo.min_rate([ch], p0[None], noise)[0][0]


def test_run_pgd_zero_schedule(net_122):
    topo, ch, noise = net_122
    p0 = mo.uniform_init(topo)
    _, iterates = one_run(ch, noise, p0, np.zeros(5))
    assert len(iterates) == 6
    assert all(np.array_equal(it, p0) for it in iterates)


def test_run_pgd_deterministic_and_feasible(net_122):
    topo, ch, noise = net_122
    p0 = mo.random_init(topo, 9)
    mu = np.full(60, 0.1)
    rates_a, iterates_a = one_run(ch, noise, p0, mu)
    rates_b, iterates_b = one_run(ch, noise, p0, mu)
    assert np.array_equal(iterates_a, iterates_b)
    assert all(mo.is_feasible(it) for it in iterates_a)
    assert np.array_equal(rates_a, rates_b)
    # running maximum never decreases by construction
    running = np.maximum.accumulate(rates_a)
    assert np.all(np.diff(running) >= 0)


def test_run_pgd_matches_step_composition(net_122):
    topo, ch, noise = net_122
    p0 = mo.uniform_init(topo)
    mu = np.array([0.3, 0.1, 0.05])
    _, iterates = one_run(ch, noise, p0, mu)
    p = p0
    for k, step in enumerate(mu):
        p = one_run(ch, noise, p, [step])[1][1]
        assert np.array_equal(iterates[k + 1], p)


def test_batch_matches_scalar_runs(net_122):
    topo, _, noise = net_122
    rng = np.random.default_rng(77)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(4)]
    starts = np.stack([mo.random_init(topo, i) for i in range(4)])
    mu = np.full(25, 0.15)
    rates, iterates = mo.run_pgd_batch(channels, noise, starts, mu, record_iterates=True)
    for i, ch in enumerate(channels):
        single_rates, single_iterates = one_run(ch, noise, starts[i], mu)
        assert np.array_equal(rates[:, i], single_rates)
        assert np.array_equal(iterates[:, i], single_iterates)


@pytest.mark.parametrize("keep", [(2, 5, 9), (9, 5, 2), (4, 7, 4), (0,), (9, 0, 9, 3)])
def test_kept_rows_are_the_full_runs_rows(net_122, keep):
    # Any order, repeats and iteration 0: row i is the full run's row keep[i],
    # bit for bit, also for the recorded iterates.
    topo, _, noise = net_122
    rng = np.random.default_rng(78)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(4)]
    starts = np.stack([mo.random_init(topo, i) for i in range(4)])
    mu = np.full(9, 0.15)
    rates, iterates = mo.run_pgd_batch(channels, noise, starts, mu, record_iterates=True)
    kept_rates, kept_iterates = mo.run_pgd_batch(
        channels, noise, starts, mu, record_iterates=True, keep=keep
    )
    assert np.array_equal(kept_rates, rates[list(keep)])
    assert np.array_equal(kept_iterates, iterates[list(keep)])
    only_rates, no_iterates = mo.run_pgd_batch(channels, noise, starts, mu, keep=keep)
    assert np.array_equal(only_rates, rates[list(keep)]) and no_iterates is None


@pytest.mark.parametrize("keep", [(3, 10), (-1,)])
def test_kept_iteration_out_of_range_is_rejected(net_122, monkeypatch, keep):
    topo, ch, noise = net_122

    def no_steps(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr(mo.engine, "iterate_schedule", no_steps)
    with pytest.raises(ValueError, match="0..9"):
        mo.run_pgd_batch([ch], noise, mo.uniform_init(topo)[None], np.full(9, 0.1), keep=keep)


def test_empty_batch_is_rejected(net_122):
    topo, ch, noise = net_122
    with pytest.raises(ValueError, match="at least one start"):
        mo.run_pgd_batch([ch], noise, np.zeros((0, 3, 2)), [0.1])
    with pytest.raises(ValueError, match="at least one channel"):
        mo.run_pgd_batch([], noise, np.zeros((0, 3, 2)), [0.1])
    with pytest.raises(ValueError, match="2 starts for operands 3 columns wide"):
        mo.run_pgd_batch([ch] * 3, noise, np.stack([mo.uniform_init(topo)] * 2), [0.1])


def test_batch_broadcasts_single_channel(net_122):
    # Several starts on one channel: the channel repeats in the batch.
    topo, ch, noise = net_122
    starts = np.stack([mo.random_init(topo, i) for i in range(3)])
    rates, _ = mo.run_pgd_batch([ch] * 3, noise, starts, np.full(10, 0.1))
    for i in range(3):
        single_rates, _ = one_run(ch, noise, starts[i], np.full(10, 0.1))
        assert np.array_equal(rates[:, i], single_rates)


def test_calibrate_fixed_step_small():
    from manetopt.pgd import STEP_CANDIDATES

    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(3)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(5)]
    step = mo.calibrate_fixed_step(channels, noise, iterations=300)
    assert step in STEP_CANDIDATES


def _sequential_calibration(channels, noise, candidates, iterations, tol):
    """One run per candidate, largest first, stopping at the first that
    settles: the reference the batched calibration must reproduce."""
    topo = mo.topology_of(channels[0])
    p0 = np.broadcast_to(
        mo.uniform_init(topo), (len(channels), topo.stacked_rows, topo.end_users)
    )
    ordered = sorted(candidates)[::-1]
    for step in ordered:
        rates, _ = mo.run_pgd_batch(channels, noise, p0, np.full(iterations, step))
        tail = rates.mean(axis=1)[-max(2, round(0.1 * iterations)):]
        if np.all(np.diff(tail) >= -tol):
            return step
    return ordered[-1]


@pytest.mark.parametrize(
    "hop_sizes, sigma2, candidates, tol, expected",
    [
        # One end user: every feasible matrix is all ones, so 1.0 settles.
        ((2, 1), 1.0, (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01), 1e-12, 1.0),
        # Only the smallest step settles.
        ((2, 2), 1.0, (1.0, 0.5, 0.2, 1e-4), 1e-12, 1e-4),
        # None settles: the smallest candidate is the fallback.
        ((2, 2), 1.0, (0.2, 1.0, 0.5), 1e-12, 0.2),
        # A looser tolerance settles a middle candidate.
        ((2, 2), 10.0, (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01), 1e-4, 0.02),
    ],
)
def test_calibrate_fixed_step_matches_sequential_runs(
    hop_sizes, sigma2, candidates, tol, expected
):
    topo = mo.Topology(hop_sizes)
    noise = mo.NoiseProfile((sigma2,) * topo.num_hops)
    rng = np.random.default_rng(3)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(5)]
    step = mo.calibrate_fixed_step(channels, noise, candidates, iterations=300, tol=tol)
    assert step == _sequential_calibration(channels, noise, candidates, 300, tol)
    assert step == expected


def test_calibration_never_runs_its_smallest_candidate(monkeypatch):
    # The smallest candidate is the answer whether or not it settles, so only
    # the larger ones run: 6 of the 7 defaults, and none of a single one.
    from manetopt import engine
    from manetopt.pgd import STEP_CANDIDATES

    elements = []
    iterate = engine.iterate_schedule

    def counting(topology, ops, p0, mu):
        elements.append(len(p0))
        return iterate(topology, ops, p0, mu)

    monkeypatch.setattr(engine, "iterate_schedule", counting)
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    rng = np.random.default_rng(3)
    channels = [mo.sample_channel(topo, 1.0, rng) for _ in range(5)]
    mo.calibrate_fixed_step(channels, noise, iterations=20)
    assert elements == [(len(STEP_CANDIDATES) - 1) * len(channels)]
    elements.clear()
    assert mo.calibrate_fixed_step(channels, noise, (0.3,), iterations=20) == 0.3
    assert elements == []


def test_fixed_step_is_what_calibration_returns():
    # The rule behind FIXED_STEP, on the acceptance calibration set at the
    # default 50 channels and 5000 iterations: no larger candidate settles.
    from manetopt.experiments import CALIB_DATA, derive_seed, noise_profile

    topo = mo.Topology((2, 2))
    noise = noise_profile(0.0, topo.num_hops)
    calib = mo.build_dataset(topo, noise, 50, derive_seed(0, CALIB_DATA))
    assert mo.calibrate_fixed_step(list(calib.channels()), noise) == mo.FIXED_STEP

