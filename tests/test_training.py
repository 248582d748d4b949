import dataclasses

import numpy as np
import pytest

import manetopt as mo
from manetopt.training import _batch_loss_grad, iteration_weights

from margins import unrolled_min_margin

LOG2_3 = 1.584962500721156


def iterates_of(ch, noise, p0, mu):
    """The iterates (K+1, rows, N) of one channel's run from ``p0``."""
    return mo.run_pgd_batch([ch], noise, p0[None], mu, record_iterates=True)[1][:, 0]


def weighted_loss(iterates, h_true, noise):
    """Reference loss of one channel: the iteration-weighted negative min rate
    of a run's iterates 1..K, measured on the true channel."""
    steps = len(iterates) - 1
    weights = iteration_weights(steps)
    rates, _ = mo.min_rate([h_true] * steps, iterates[1:], noise)
    return float(-(weights * rates).sum())


@pytest.fixture
def small_world():
    topo = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    ds = mo.build_dataset(topo, noise, 12, seed=5)
    return topo, noise, ds


def test_weights_increasing():
    w = iteration_weights(10)
    assert np.all(np.diff(w) > 0)
    assert w[0] == 1.0  # log2(2)


def test_weighted_loss_single_step(small_world):
    topo, noise, ds = small_world
    ch = ds.entries[0][0]
    rates, iterates = mo.run_pgd_batch(
        [ch], noise, mo.uniform_init(topo)[None], np.array([0.1]), record_iterates=True
    )
    loss = weighted_loss(iterates[:, 0], ch, noise)
    assert loss == pytest.approx(-rates[1, 0])


def test_weighted_loss_factorizes(small_world):
    topo, noise, ds = small_world
    ch = ds.entries[0][0]
    p0 = mo.uniform_init(topo)
    iterates = iterates_of(ch, noise, p0, np.zeros(4))  # all iterates identical
    (rate,), _ = mo.min_rate([ch], p0[None], noise)
    expected = -rate * iteration_weights(4).sum()
    assert weighted_loss(iterates, ch, noise) == pytest.approx(expected)


def test_weighted_loss_hand_value():
    # rates (0.5, 0.6) with weights (1, log2 3) -> -1.4509775...
    weights = iteration_weights(2)
    assert weights[1] == pytest.approx(LOG2_3)
    loss = -(weights[0] * 0.5 + weights[1] * 0.6)
    assert loss == pytest.approx(-1.4509775004326936)


def test_loss_grad_mu_causality(small_world):
    # Perturbing step k leaves iterates up to k unchanged.
    topo, noise, ds = small_world
    ch = ds.entries[0][0]
    p0 = mo.uniform_init(topo)
    mu = np.full(6, 0.2)
    base = iterates_of(ch, noise, p0, mu)
    bumped = mu.copy()
    bumped[3] += 0.05
    after = iterates_of(ch, noise, p0, bumped)
    assert np.array_equal(base[:4], after[:4])
    assert not np.array_equal(base[4], after[4])


def test_loss_grad_mu_matches_finite_differences(small_world):
    topo, noise, ds = small_world
    batch = list(ds.entries[:4])
    rng = np.random.default_rng(3)
    mu = np.abs(rng.normal(0.15, 0.05, 8)) + 0.02
    p0 = mo.random_init(topo, rng)
    truth = [ch for ch, _ in batch]
    starts = np.broadcast_to(p0, (4,) + p0.shape)
    assert unrolled_min_margin(truth, truth, noise, starts, mu) > 1e-4
    grad = _batch_loss_grad(topo, batch, None, mu, p0).grad
    fd = np.zeros(8)
    delta = 1e-5
    for j in range(8):
        up, down = mu.copy(), mu.copy()
        up[j] += delta
        down[j] -= delta
        fd[j] = (
            _batch_loss_grad(topo, batch, None, up, p0, want_grad=False).loss
            - _batch_loss_grad(topo, batch, None, down, p0, want_grad=False).loss
        ) / (2 * delta)
    assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-9) <= 1e-3


def test_gradient_leaves_the_forward_sweep_bit_identical(small_world):
    # The reverse sweep only reads the trajectory: asking for the gradient
    # must not change the loss, the per-iterate rates or the last iterate.
    # The mixed batch drives half its elements by estimates equal to the
    # truth bit for bit, so its passes carry appended loss columns for the
    # other half only.
    topo, noise, ds = small_world
    entries = list(ds.entries[:6])
    estimates = mo.lmmse_estimates(
        [ch for ch, _ in entries], [noise] * 6, [np.random.default_rng([2, i]) for i in range(6)]
    )
    copies = [
        mo.ChannelRealization(ch.first_hop.copy(), tuple(m.copy() for m in ch.later_hops))
        for ch, _ in entries[:3]
    ]
    rng = np.random.default_rng(11)
    mu = np.abs(rng.normal(0.15, 0.05, 12)) + 0.02
    p0 = mo.random_init(topo, rng)
    for opt in (None, estimates, copies + estimates[3:]):
        with_grad = _batch_loss_grad(topo, entries, opt, mu, p0)
        without = _batch_loss_grad(topo, entries, opt, mu, p0, want_grad=False)
        assert without.grad is None
        assert with_grad.loss == without.loss
        assert np.array_equal(with_grad.iterate_rates, without.iterate_rates)
        assert np.array_equal(with_grad.final, without.final)


def test_noisy_gradient_matches_directional_difference_deep_and_long():
    # Two relay layers, K=40 and estimated CSI driving the steps: the
    # gradient's directional derivative <dL/dmu, delta> against a central
    # difference along a random delta, on batches clear of every kink.
    topo = mo.Topology((1, 2, 2))
    noise = mo.NoiseProfile((1.0, 1.0, 1.0))
    checked = 0
    seed = 0
    while checked < 3:
        seed += 1
        rng = np.random.default_rng([505, seed])
        entries = [(mo.sample_channel(topo, 1.0, rng), noise) for _ in range(4)]
        mu = np.abs(rng.normal(0.15, 0.05, 40)) + 0.02
        p0 = mo.random_init(topo, rng)
        truth = [ch for ch, _ in entries]
        opt = mo.lmmse_estimates(
            truth, [noise] * 4, [np.random.default_rng([606, seed, i]) for i in range(4)]
        )
        starts = np.broadcast_to(p0, (4,) + p0.shape)
        if unrolled_min_margin(opt, truth, noise, starts, mu) <= 1e-4:
            continue
        result = _batch_loss_grad(topo, entries, opt, mu, p0)
        checked += 1
        delta = rng.normal(size=40)
        h = 1e-6
        fd = (
            _batch_loss_grad(topo, entries, opt, mu + h * delta, p0, want_grad=False).loss
            - _batch_loss_grad(topo, entries, opt, mu - h * delta, p0, want_grad=False).loss
        ) / (2 * h)
        assert abs(result.grad @ delta - fd) / max(abs(fd), 1e-9) <= 1e-3


def test_loss_grad_mu_zero_channel(small_world):
    topo, noise, _ = small_world
    dead = mo.ChannelRealization(
        first_hop=np.zeros(2, dtype=np.complex128),
        later_hops=(np.zeros((2, 2), dtype=np.complex128),),
    )
    p0 = mo.uniform_init(topo)
    grad = _batch_loss_grad(topo, [(dead, noise)], None, np.full(4, 0.1), p0).grad
    assert np.array_equal(grad, np.zeros(4))


def test_noisy_mode_uses_estimates_for_steps_and_truth_for_loss(small_world):
    # Drive the trajectory with one channel set and the loss with another;
    # the iterates must follow the former, the loss value the latter.
    topo, noise, ds = small_world
    entries = list(ds.entries[:3])
    other = mo.build_dataset(topo, noise, 3, seed=99)
    estimates = list(other.channels())
    mu = np.full(5, 0.2)
    p0 = mo.uniform_init(topo)
    result = _batch_loss_grad(topo, entries, estimates, mu, p0)

    expected_loss = 0.0
    for (true_ch, _), est_ch in zip(entries, estimates):
        iterates = iterates_of(est_ch, noise, p0, mu)  # steps follow the estimate
        expected_loss += weighted_loss(iterates, true_ch, noise)
    assert result.loss == pytest.approx(expected_loss / 3.0, rel=1e-12)


def test_estimate_entries_reproducible(small_world):
    topo, noise, ds = small_world
    entries = list(ds.entries[:3])
    rngs = lambda: [np.random.default_rng([1, i]) for i in range(3)]
    channels, noises = [ch for ch, _ in entries], [n for _, n in entries]
    a = mo.lmmse_estimates(channels, noises, rngs())
    b = mo.lmmse_estimates(channels, noises, rngs())
    for x, y in zip(a, b):
        assert np.array_equal(x.first_hop, y.first_hop)


def test_adam_zero_gradient_keeps_mu():
    state = mo.AdamState.zeros(4)
    mu = np.full(4, 0.3)
    state, updated = mo.adam_update(state, np.zeros(4), mu, 0.01)
    assert np.array_equal(updated, mu)
    assert state.count == 1


def test_adam_first_step_magnitude():
    state = mo.AdamState.zeros(3)
    grad = np.array([10.0, -25.0, 3.0])
    mu = np.full(3, 0.5)
    _, updated = mo.adam_update(state, grad, mu, learning_rate=0.01)
    # first bias-corrected step is ~lr * sign(grad) when |grad| >> eps
    assert np.allclose(mu - updated, 0.01 * np.sign(grad), rtol=1e-6)


def test_adam_deterministic():
    grad = np.array([0.5, -0.2])
    a = mo.adam_update(mo.AdamState.zeros(2), grad, np.full(2, 0.1), 0.01)
    b = mo.adam_update(mo.AdamState.zeros(2), grad, np.full(2, 0.1), 0.01)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[0].m, b[0].m)


def test_adam_clamps_positive():
    state = mo.AdamState.zeros(1)
    _, updated = mo.adam_update(state, np.array([100.0]), np.array([1e-6]), 0.5)
    assert updated[0] == pytest.approx(1e-6)


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        mo.adam_update(mo.AdamState.zeros(2), np.zeros(3), np.zeros(3), 0.01)


def test_train_zero_learning_rate_keeps_init(small_world):
    topo, noise, ds = small_world
    cfg = mo.TrainConfig(
        iterations=5, epochs=2, batch_count=3, learning_rate=1e-300, seed=0,
        init_step=0.1,
    )
    mu = mo.train(ds, cfg)
    assert np.allclose(mu, 0.1, atol=1e-12)


def test_train_deterministic(small_world):
    topo, noise, ds = small_world
    cfg = mo.TrainConfig(iterations=6, epochs=3, batch_count=4, seed=7, init_step=0.1)
    assert np.array_equal(mo.train(ds, cfg), mo.train(ds, cfg))


def test_train_noisy_mode_runs_and_differs(small_world):
    topo, noise, ds = small_world
    base = dict(iterations=6, epochs=3, batch_count=4, seed=7, init_step=0.1)
    clean = mo.train(ds, mo.TrainConfig(**base, mode="full-csi"))
    noisy = mo.train(ds, mo.TrainConfig(**base, mode="noisy-csi"))
    assert not np.array_equal(clean, noisy)
    assert np.all(noisy >= 1e-6)


def test_train_reports_progress_and_moves(small_world):
    # Epoch losses are noisy (every batch draws a fresh random start), so the
    # callback contract is what's checked here; outcome quality is covered by
    # the held-out comparison below.
    topo, noise, _ = small_world
    ds = mo.build_dataset(topo, noise, 80, seed=41)
    history = []
    cfg = mo.TrainConfig(
        iterations=10, epochs=6, batch_count=4, seed=5, init_step=0.01,
        mode="noisy-csi",
    )
    mu = mo.train(ds, cfg, progress=lambda epoch, loss: history.append((epoch, loss)))
    assert [e for e, _ in history] == list(range(6))
    assert all(np.isfinite(loss) for _, loss in history)
    assert not np.allclose(mu, 0.01)


def test_train_improves_heldout_final_rate(small_world):
    topo, noise, _ = small_world
    ds = mo.build_dataset(topo, noise, 120, seed=31)
    held = mo.build_dataset(topo, noise, 60, seed=53)
    cfg = mo.TrainConfig(
        iterations=15, epochs=25, batch_count=6, seed=2, init_step=0.01
    )
    mu = mo.train(ds, cfg)
    channels = list(held.channels())
    starts = np.broadcast_to(mo.uniform_init(topo), (len(channels), 3, 2))
    trained, _ = mo.run_pgd_batch(channels, noise, starts, mu)
    fixed, _ = mo.run_pgd_batch(channels, noise, starts, np.full(15, 0.01))
    assert trained[-1].mean() > fixed[-1].mean()


def test_train_matches_reference_loop(small_world):
    # One full epoch reproduced from the public pieces: the shuffle stream is
    # keyed [seed, 0], the per-batch starting points come from [seed, 1], and
    # each batch does one Adam step on the batch-averaged loss gradient.
    topo, noise, ds = small_world
    cfg = mo.TrainConfig(
        iterations=4, epochs=1, batch_count=3, learning_rate=0.02, seed=13,
        init_step=0.1,
    )
    trained = mo.train(ds, cfg)

    mu = np.full(4, 0.1)
    state = mo.AdamState.zeros(4)
    shuffle_rng = np.random.default_rng([13, 0])
    start_rng = np.random.default_rng([13, 1])
    order = shuffle_rng.permutation(len(ds))
    for batch_ids in np.array_split(order, 3):
        entries = [ds.entries[i] for i in batch_ids]
        p0 = mo.random_init(topo, start_rng)
        grad = _batch_loss_grad(topo, entries, None, mu, p0).grad
        state, mu = mo.adam_update(
            state, grad, mu, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps
        )
    assert np.array_equal(trained, mu)


@pytest.mark.parametrize("hop_sizes", [(2, 2), (3, 3), (1, 2, 2)])
def test_schedules_trained_together_match_separate_runs(hop_sizes):
    # Schedules sharing one call's batches come out bit-identical to separate
    # calls, and so do the epoch losses each reports: the (full, noisy) pair,
    # and three schedules that differ in mode, initial step and Adam settings.
    topo = mo.Topology(hop_sizes)
    ds = mo.build_dataset(topo, mo.NoiseProfile((1.0,) * topo.num_hops), 12, seed=5)
    base = dict(iterations=6, epochs=3, batch_count=4, seed=7)
    pair = [
        mo.TrainConfig(**base, init_step=0.1),
        mo.TrainConfig(**base, init_step=0.1, mode="noisy-csi"),
    ]
    trio = [
        mo.TrainConfig(**base, init_step=0.05, mode="noisy-csi"),
        mo.TrainConfig(**base, init_step=0.2, learning_rate=0.03),
        mo.TrainConfig(**base, init_step=0.1, mode="noisy-csi", beta1=0.8),
    ]
    for configs in (pair, trio):
        history = []
        joint = mo.train(ds, configs, progress=lambda epoch, losses: history.append(losses))
        assert joint.shape == (len(configs), 6)
        for s, cfg in enumerate(configs):
            alone_history = []
            alone = mo.train(ds, cfg, progress=lambda epoch, loss: alone_history.append(loss))
            assert np.array_equal(joint[s], alone)
            assert all(type(loss) is float for loss in alone_history)
            assert [losses[s] for losses in history] == alone_history


def test_train_rejects_configs_that_cannot_share_batches(small_world):
    _, _, ds = small_world
    base = mo.TrainConfig(iterations=4, epochs=1, batch_count=2, seed=1, init_step=0.1)
    with pytest.raises(ValueError):
        mo.train(ds, [])
    for change in (dict(seed=2), dict(iterations=5), dict(epochs=2), dict(batch_count=3)):
        with pytest.raises(ValueError, match=next(iter(change))):
            mo.train(ds, [base, dataclasses.replace(base, **change)])
    # one config in a sequence is a group of one
    assert np.array_equal(mo.train(ds, [base])[0], mo.train(ds, base))


def test_load_schedule_rejects_tampered_length(tmp_path):
    import json

    path = tmp_path / "mu.json"
    mo.save_schedule(str(path), np.array([0.2, 0.1]), mo.Topology((2, 2)), "full-csi", 0)
    doc = json.loads(path.read_text())
    doc["iterations"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        mo.load_schedule(str(path))


def test_train_config_validation():
    with pytest.raises(ValueError):
        mo.TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        mo.TrainConfig(mode="other")
    with pytest.raises(ValueError):
        mo.TrainConfig(learning_rate=0.0)


def test_train_rejects_oversized_batch_count(small_world):
    topo, noise, ds = small_world
    with pytest.raises(ValueError):
        mo.train(ds, mo.TrainConfig(batch_count=len(ds) + 1, init_step=0.1))


def test_schedule_roundtrip(tmp_path, small_world):
    topo, noise, ds = small_world
    mu = np.array([0.5, 0.25, 0.1])
    cfg = mo.TrainConfig(iterations=3, init_step=0.5)
    path = tmp_path / "mu.json"
    mo.save_schedule(str(path), mu, topo, "full-csi", seed=4, config=cfg)
    back, meta = mo.load_schedule(str(path))
    assert np.array_equal(back, mu)
    assert meta["topology"] == [2, 2]
    assert meta["mode"] == "full-csi"
    assert meta["iterations"] == 3
    assert meta["config_hash"]
