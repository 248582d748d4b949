import filecmp
import importlib.util
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import manetopt.cli as cli
import manetopt.experiments as experiments
from manetopt import NoiseProfile, Topology, build_dataset
from manetopt.engine import stack_channels
from manetopt.errors import CapabilityError, ConfigurationError
from manetopt.experiments import (
    ExperimentConfig,
    derive_seed,
    noise_profile,
    run_iter_curve,
    run_noise_sweep,
    run_noisy_robustness,
    run_oracle_compare,
    run_scenario,
    run_transfer,
)
from manetopt.gridsearch import grid_capacity
from manetopt.pgd import FIXED_STEP, run_pgd_batch
from manetopt.power import uniform_init
from manetopt.training import FULL_CSI, NOISY_CSI, TrainConfig, save_schedule

ROOT = Path(__file__).resolve().parent.parent


def tiny_config(tmp_path, scenario, **overrides):
    base = dict(
        scenario=scenario,
        hop_sizes=(2, 2),
        noise_db=(0.0,),
        out_dir=str(tmp_path / "out"),
        seed=11,
        train_size=16,
        test_size=5,
        calib_size=3,
        train=TrainConfig(iterations=6, epochs=2, batch_count=4, seed=3, init_step=0.1),
        ensemble_size=2,
        oracle_resolution=0.1,
        fixed_long_iterations=30,
        cache_dir=str(tmp_path / "cache"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_noise_profile_db_convention():
    prof = noise_profile(0.0, 2)
    assert prof.hop_noise_vars == (1.0, 1.0)
    prof10 = noise_profile(10.0, 2)
    assert prof10.hop_noise_vars[0] == pytest.approx(10.0)
    prof_neg = noise_profile(-10.0, 3)
    assert prof_neg.hop_noise_vars == (pytest.approx(0.1),) * 3


def test_seed_roles_disjoint():
    topo = Topology((2, 2))
    noise = NoiseProfile((1.0, 1.0))
    train = build_dataset(topo, noise, 10, derive_seed(3, 0))
    test = build_dataset(topo, noise, 10, derive_seed(3, 1))
    # disjoint streams: no coefficient of one dataset appears in the other
    train_first, train_later = stack_channels(list(train.channels()))
    test_first, test_later = stack_channels(list(test.channels()))
    for a, b in zip((train_first, *train_later), (test_first, *test_later)):
        assert a.shape == b.shape and not np.isin(a, b).any()


def test_iter_curve_rows_and_columns(tmp_path):
    config = tiny_config(tmp_path, "iter-curve")
    tables = run_iter_curve(config)
    header, rows = tables["iter_curve"]
    assert header == ["iteration", "unfolded_mean", "fixed_mean", "oracle_mean"]
    assert len(rows) == config.train.iterations + 1
    assert rows[0][0] == 0
    # oracle column constant
    assert len({r[3] for r in rows}) == 1
    # iteration 0 starts from the same uniform guess for both methods
    assert rows[0][1] == rows[0][2]


def test_iter_curve_single_channel_mean(tmp_path):
    config = tiny_config(tmp_path, "iter-curve", test_size=1, include_oracle=False)
    tables = run_iter_curve(config)
    _, rows = tables["iter_curve"]
    assert len(rows) == 7


def test_iter_curve_requires_schedule_or_training(tmp_path, monkeypatch):
    config = tiny_config(tmp_path, "iter-curve", allow_training=False)
    with pytest.raises(ConfigurationError):
        run_iter_curve(config)
    # Without a cache nothing can serve the schedule: refuse before any work.
    def no_work(*args, **kwargs):
        raise AssertionError("ran PGD before refusing")

    monkeypatch.setattr(experiments, "run_pgd_batch", no_work)
    uncached = tiny_config(
        tmp_path, "iter-curve", allow_training=False, cache_dir=None,
        train=TrainConfig(iterations=6),
    )
    with pytest.raises(ConfigurationError):
        run_iter_curve(uncached)


def test_training_disabled_reads_the_cache(tmp_path):
    # A schedule trained into the cache serves a later run that may not train.
    first = tiny_config(tmp_path, "iter-curve", out_dir=str(tmp_path / "a"))
    run_iter_curve(first)
    second = tiny_config(
        tmp_path, "iter-curve", out_dir=str(tmp_path / "b"), allow_training=False
    )
    run_iter_curve(second)
    for name in ("iter_curve.csv", "mu_full_0db.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # The manifests record each run's config, so they differ in that flag only.
    a, b = (json.loads((tmp_path / d / "run_manifest.json").read_text()) for d in "ab")
    assert a["config"].pop("allow_training") is True
    assert b["config"].pop("allow_training") is False
    del a["config_hash"], b["config_hash"]
    assert a == b


def _cache_writes(tmp_path):
    """One writer per cache kind: trained schedule, grid."""
    config = tiny_config(tmp_path, "iter-curve")
    topology = Topology(config.hop_sizes)
    noise = noise_profile(0.0, topology.num_hops)
    channel = next(iter(build_dataset(topology, noise, 1, 5).channels()))
    return {
        "mu": lambda: experiments._trained_schedules(
            config, topology, 0.0, [(FULL_CSI, None, "full")]
        )[0].tolist(),
        "grid": lambda: grid_capacity(
            channel, noise, 0.1, cache_dir=config.cache_dir
        ).best_min_rate,
    }


@pytest.mark.parametrize("kind", ["mu", "grid"])
def test_failed_cache_write_leaves_nothing(tmp_path, monkeypatch, kind):
    write = _cache_writes(tmp_path)[kind]
    expected = write()
    cache = tmp_path / "cache"
    for path in cache.iterdir():
        path.unlink()

    def broken_dump(doc, fh, **kwargs):
        fh.write('{"partial')
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            write()
    assert list(cache.iterdir()) == []
    # The next run recomputes and caches the whole entry.
    assert write() == expected
    (entry,) = cache.iterdir()
    assert json.loads(entry.read_text())


def _drop_best_matrix(doc):
    del doc["best_matrix"]
    return doc


@pytest.mark.parametrize("kind, corrupt", [
    ("mu", lambda doc: {"nope": 1}),
    ("mu", lambda doc: [1]),
    ("mu", lambda doc: {**doc, "steps": doc["steps"][:-1]}),
    ("mu", lambda doc: {**doc, "steps": [float("nan")] + doc["steps"][1:]}),
    ("grid", lambda doc: [1]),
    ("grid", _drop_best_matrix),
    ("grid", lambda doc: {**doc, "best_min_rate": float("inf")}),
    ("grid", lambda doc: {**doc, "best_matrix": doc["best_matrix"][:-1]}),
], ids=["mu-not-a-schedule", "mu-a-list", "mu-short-steps", "mu-nan-step",
        "grid-a-list", "grid-missing-key", "grid-infinite-rate", "grid-short-matrix"])
def test_malformed_cache_entry_is_recomputed(tmp_path, kind, corrupt):
    # A cache entry that parses but is not one of its kind is a miss: the run
    # recomputes it, rewrites it, and writes what a clean run writes.
    clean = tiny_config(tmp_path, "oracle-compare", out_dir=str(tmp_path / "clean"))
    run_oracle_compare(clean)
    cache = tmp_path / "cache"
    kept = tmp_path / "kept"
    kept.mkdir()
    entries = [p for p in cache.iterdir() if p.name.startswith("mu_") == (kind == "mu")]
    assert entries
    for path in entries:
        (kept / path.name).write_bytes(path.read_bytes())
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    run_oracle_compare(tiny_config(tmp_path, "oracle-compare", out_dir=str(tmp_path / "again")))
    assert _dirs_identical(tmp_path / "clean", tmp_path / "again")
    for path in entries:
        assert path.read_bytes() == (kept / path.name).read_bytes()


def test_noise_sweep_outputs(tmp_path):
    config = tiny_config(tmp_path, "noise-sweep", noise_db=(0.0, 5.0))
    tables = run_noise_sweep(config)
    header, rows = tables["noise_sweep"]
    assert header[:4] == ["noise_db", "unfolded_mean", "fixed40_mean", "fixed_long_mean"]
    assert len(rows) == 2
    # the same channels are reused per level, so the fixed-step columns
    # decrease monotonically as the noise grows
    assert rows[1][2] < rows[0][2]
    assert rows[1][3] < rows[0][3]
    _, chan_rows = tables["noise_sweep_channels"]
    assert len(chan_rows) == 2 * config.test_size


def test_noise_sweep_fixed_step_rows_match_separate_runs(tmp_path):
    # fixed40 and fixed_long come from one run of max(K, fixed_long) steps;
    # each equals a run of its own length bit for bit, also when the long
    # run is the shorter one.
    for long_steps in (30, 4):
        config = tiny_config(
            tmp_path, "noise-sweep", noise_db=(0.0, 5.0), include_oracle=False,
            fixed_long_iterations=long_steps, out_dir=str(tmp_path / f"out{long_steps}"),
        )
        tables = run_noise_sweep(config)
        _, rows = tables["noise_sweep"]
        _, chan_rows = tables["noise_sweep_channels"]
        topology = Topology(config.hop_sizes)
        for row in rows:
            noise = noise_profile(row[0], topology.num_hops)
            channels = build_dataset(
                topology, noise, config.test_size,
                derive_seed(config.seed, experiments.TEST_DATA),
            ).channels()
            p0 = uniform_init(topology)
            starts = np.broadcast_to(p0, (len(channels),) + p0.shape)
            final = {
                steps: run_pgd_batch(
                    channels, noise, starts, np.full(steps, FIXED_STEP)
                )[0][-1]
                for steps in (config.train.iterations, long_steps)
            }
            assert row[2] == final[config.train.iterations].mean()
            assert row[3] == final[long_steps].mean()
            level = [r[3] for r in chan_rows if r[0] == row[0]]
            assert level == final[config.train.iterations].tolist()


def test_noise_sweep_fixed_baseline_memory_does_not_grow_with_its_length(
    tmp_path, monkeypatch
):
    # The fixed-step run keeps the two rows the sweep reads, not one row per
    # iteration: its traced peak at 2000 steps is within 10% of that at 200.
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return run_pgd_batch(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(experiments, "run_pgd_batch", traced)
    for long_steps in (200, 2000):
        run_noise_sweep(tiny_config(
            tmp_path, "noise-sweep", test_size=20, include_oracle=False,
            fixed_long_iterations=long_steps, out_dir=str(tmp_path / f"out{long_steps}"),
        ))
    short, long = peaks
    assert long <= 1.1 * short, peaks


def test_no_scenario_calibrates(tmp_path, monkeypatch):
    # The fixed-step baselines and the default init_step use FIXED_STEP; the
    # calibration search runs nowhere, under any name it is imported as.
    def refuse(*args, **kwargs):
        raise AssertionError("calibrate_fixed_step was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "manetopt" and hasattr(module, "calibrate_fixed_step"):
            monkeypatch.setattr(module, "calibrate_fixed_step", refuse)
    untuned = TrainConfig(iterations=6, epochs=2, batch_count=4, seed=3)
    for scenario, extra in (
        ("iter-curve", {}),
        ("noise-sweep", {"noise_db": (0.0, 5.0)}),
        ("transfer", {"source_hop_sizes": (2, 2)}),
    ):
        config = tiny_config(
            tmp_path, scenario, train=untuned, include_oracle=False,
            out_dir=str(tmp_path / scenario), cache_dir=None, **extra,
        )
        run_scenario(config)
    _, descriptor, _ = experiments._schedule_key(config, Topology((2, 2)), 0.0, FULL_CSI)
    assert descriptor["train"]["init_step"] == FIXED_STEP


def test_noisy_robustness_zero_noise_columns_agree(tmp_path):
    # At zero noise the estimates are exact, so full-CSI and noisy-eval
    # columns coincide (modulo NaN rates the zero-noise model produces).
    config = tiny_config(tmp_path, "noisy-robustness", noise_db=(-120.0,))
    tables = run_noisy_robustness(config)
    _, rows = tables["noisy_robustness_channels"]
    for row in rows:
        assert row[2] == pytest.approx(row[3], rel=1e-6)
        assert row[4] == pytest.approx(row[5], rel=1e-6)


def test_noisy_robustness_table_shape(tmp_path):
    config = tiny_config(tmp_path, "noisy-robustness")
    tables = run_noisy_robustness(config)
    header, rows = tables["noisy_robustness"]
    assert header == [
        "noise_db",
        "clean_full_mean",
        "clean_noisy_mean",
        "noisy_full_mean",
        "noisy_noisy_mean",
    ]
    assert len(rows) == 1


def test_studies_sample_only_the_channels_they_read(tmp_path, monkeypatch):
    # A study whose schedules come from artifacts samples its test channels
    # once, shared by every noise level, and no training set; a cold run
    # that trains samples one training set besides.
    built = []
    real_build = experiments.build_dataset

    def spy(topology, noise, count, seed):
        built.append((count, seed))
        return real_build(topology, noise, count, seed)

    monkeypatch.setattr(experiments, "build_dataset", spy)
    artifact = str(tmp_path / "mu.json")
    save_schedule(artifact, np.full(6, 0.1), Topology((2, 2)), FULL_CSI, 3)
    levels = (0.0, 5.0, 10.0)
    studies = {
        "oracle-compare": {"mu_artifact": artifact},
        "iter-curve": {"mu_artifact": artifact},
        "transfer": {"mu_artifact": artifact, "mu_artifact_native": artifact,
                     "noise_db": levels},
        "noise-sweep": {"mu_artifact": artifact, "noise_db": levels},
    }
    test_set = (5, derive_seed(11, experiments.TEST_DATA))
    for scenario, overrides in studies.items():
        built.clear()
        run_scenario(tiny_config(
            tmp_path, scenario, out_dir=str(tmp_path / scenario), **overrides
        ))
        assert built == [test_set], scenario

    built.clear()
    run_noisy_robustness(tiny_config(
        tmp_path, "noisy-robustness", cache_dir=str(tmp_path / "cold_cache")
    ))
    train_set = (16, derive_seed(11, experiments.TRAIN_DATA))
    assert sorted(built) == sorted([train_set, test_set])


def test_noisy_robustness_trains_only_what_the_cache_lacks(tmp_path, monkeypatch):
    # A cold run trains both schedules in one call; a run whose clean schedule
    # is already cached trains only the noisy one, and writes the same files.
    calls = []
    real_train = experiments.train

    def spy(dataset, configs, progress=None):
        calls.append([c.mode for c in configs])
        return real_train(dataset, configs, progress)

    monkeypatch.setattr(experiments, "train", spy)
    cold = tiny_config(
        tmp_path, "noisy-robustness", out_dir=str(tmp_path / "cold"),
        cache_dir=str(tmp_path / "cold_cache"),
    )
    run_noisy_robustness(cold)
    assert calls == [[FULL_CSI, NOISY_CSI]]

    warm = tiny_config(
        tmp_path, "noisy-robustness", out_dir=str(tmp_path / "warm"),
        cache_dir=str(tmp_path / "warm_cache"),
    )
    clean_only = tiny_config(
        tmp_path, "noisy-robustness", out_dir=str(tmp_path / "clean_only"),
        cache_dir=warm.cache_dir,
    )
    experiments._trained_schedules(
        clean_only, Topology(warm.hop_sizes), 0.0, [(FULL_CSI, None, "full_0db")]
    )
    calls.clear()
    run_noisy_robustness(warm)
    assert calls == [[NOISY_CSI]]
    assert _dirs_identical(tmp_path / "cold", tmp_path / "warm")
    assert _dirs_identical(tmp_path / "cold_cache", tmp_path / "warm_cache")


def test_transfer_identity(tmp_path):
    # Transferring to the source topology reproduces the native results.
    config = tiny_config(
        tmp_path, "transfer", source_hop_sizes=(2, 2), noise_db=(0.0, 5.0)
    )
    tables = run_transfer(config)
    _, rows = tables["transfer"]
    for row in rows:
        assert row[1] == row[2]


def test_transfer_topology_invariance(tmp_path):
    # A schedule trained on 1x2x2 runs unchanged on 1x3x3.
    config = tiny_config(
        tmp_path, "transfer", hop_sizes=(3, 3), source_hop_sizes=(2, 2)
    )
    tables = run_transfer(config)
    _, rows = tables["transfer"]
    assert len(rows) == 1
    assert all(np.isfinite(float(v)) for v in rows[0][1:])


def test_transfer_schedule_length_mismatch(tmp_path):
    source = tiny_config(tmp_path, "iter-curve")
    run_iter_curve(source)
    artifact = os.path.join(source.out_dir, "mu_full_0db.json")
    config = tiny_config(
        tmp_path,
        "transfer",
        hop_sizes=(3, 3),
        mu_artifact=artifact,
        train=TrainConfig(iterations=9, epochs=2, batch_count=4, seed=3, init_step=0.1),
        out_dir=str(tmp_path / "out2"),
    )
    with pytest.raises(ConfigurationError):
        run_transfer(config)


def test_oracle_compare(tmp_path):
    config = tiny_config(tmp_path, "oracle-compare")
    tables = run_oracle_compare(config)
    header, rows = tables["oracle_compare"]
    assert header == ["channel", "ensemble_rate", "oracle_rate"]
    assert len(rows) == config.test_size
    for _, ens, oracle in rows:
        assert ens <= oracle + 0.05  # coarse grid modulus at resolution 0.1


def test_oracle_compare_large_topology_refused(tmp_path):
    config = tiny_config(tmp_path, "oracle-compare", hop_sizes=(3, 3))
    with pytest.raises(CapabilityError):
        run_oracle_compare(config)


def test_iter_curve_oracle_on_deeper_two_user_network(tmp_path):
    # Four stacked rows at the default resolution: 101 + 101^2 + 101 grid points.
    config = tiny_config(tmp_path, "iter-curve", hop_sizes=(1, 2, 2), oracle_resolution=1e-2)
    header, rows = run_iter_curve(config)["iter_curve"]
    assert header == ["iteration", "unfolded_mean", "fixed_mean", "oracle_mean"]
    topology = Topology(config.hop_sizes)
    noise = noise_profile(0.0, topology.num_hops)
    channels = build_dataset(
        topology, noise, config.test_size, derive_seed(config.seed, experiments.TEST_DATA)
    ).channels()
    oracle = [grid_capacity(ch, noise, 1e-2).best_min_rate for ch in channels]
    assert {r[3] for r in rows} == {float(np.mean(oracle))}


@pytest.mark.parametrize("scenario", ["iter-curve", "noise-sweep", "oracle-compare"])
def test_refused_oracle_fails_before_any_work(tmp_path, scenario):
    # (4, 2) at resolution 1e-2 needs 101^4 + 101 grid points; the refusal
    # comes before any schedule reaches the cache.
    config = tiny_config(tmp_path, scenario, hop_sizes=(4, 2), oracle_resolution=1e-2)
    with pytest.raises(CapabilityError):
        run_scenario(config)
    cache = tmp_path / "cache"
    assert not cache.exists() or not any(cache.iterdir())


def _run_cli(tmp_path, scenario, config, extra=()):
    cfg_path = tmp_path / "cfg.json"
    doc = config.to_dict()
    cfg_path.write_text(json.dumps(doc))
    return cli.main([scenario, "--config", str(cfg_path), *extra])


def test_cli_success_and_exit_codes(tmp_path, capsys):
    config = tiny_config(tmp_path, "iter-curve", include_oracle=False)
    assert _run_cli(tmp_path, "iter-curve", config) == 0
    # scenario mismatch -> configuration error
    assert _run_cli(tmp_path, "noise-sweep", config) == 2
    # missing config file
    assert cli.main(["iter-curve", "--config", str(tmp_path / "missing.json")]) == 2
    # capability error surfaces as exit code 3
    big = tiny_config(tmp_path, "oracle-compare", hop_sizes=(3, 3))
    assert _run_cli(tmp_path, "oracle-compare", big) == 3
    # out-of-range values -> configuration error
    oracle = tiny_config(tmp_path, "oracle-compare").to_dict()
    for key, value in (
        ("test_size", 0),
        ("oracle_resolution", 0),
        ("oracle_resolution", 1.5),
        ("hop_sizes", [2]),
        ("hop_sizes", [2, 0]),
        ("source_hop_sizes", [0, 2]),
        ("train_size", 0),
        ("noise_db", [float("nan")]),
        ("reference_db", float("nan")),
        ("fixed_long_iterations", -1),
        ("noise_db", [0.0, float("inf")]),
        ("ensemble_size", 1.5),
        ("hop_sizes", [2.7, 2]),
        ("hop_sizes", [True, 2]),
        ("source_hop_sizes", [2.5, 2]),
        ("oracle_resolution", True),
        ("noise_db", [True]),
        ("reference_db", True),
        ("include_oracle", "false"),
        ("train_per_level", 1),
        ("allow_training", "false"),
        ("allow_training", None),
    ):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(oracle, **{key: value})))
        assert cli.main(["oracle-compare", "--config", str(cfg_path)]) == 2, key
    # refused with a message before any output: a config that is JSON but not
    # an object, a string noise level, levels whose variance overflows, and an
    # unreadable artifact field that the scenario does not read
    fresh = dict(oracle, out_dir=str(tmp_path / "fresh"))
    capsys.readouterr()
    for doc in (
        [1, 2],
        dict(fresh, noise_db="10"),
        dict(fresh, noise_db=[4000]),
        dict(fresh, reference_db=4000),
        dict(fresh, mu_artifact_native=str(tmp_path / "nope.json")),
    ):
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["oracle-compare", "--config", str(cfg_path)]) == 2, doc
        assert capsys.readouterr().err.startswith("configuration error: "), doc
        assert not (tmp_path / "fresh").exists(), doc
    # train_size only matters when a schedule has to train
    artifact = tmp_path / "mu.json"
    save_schedule(str(artifact), np.full(6, 0.1), Topology((2, 2)), "full-csi", 3)
    frozen = tiny_config(
        tmp_path, "oracle-compare", train_size=0, mu_artifact=str(artifact),
        out_dir=str(tmp_path / "frozen"),
    )
    assert _run_cli(tmp_path, "oracle-compare", frozen) == 0


@pytest.mark.parametrize("content", [
    None, '{"steps": [0.1, 0.1]}', "[0.1]", "not json",
    '{"steps": [NaN, 0.1, 0.1, 0.1, 0.1, 0.1], "iterations": 6}',
])
def test_cli_refuses_a_bad_schedule_artifact(tmp_path, capsys, content):
    # A missing or malformed schedule artifact is a configuration error that
    # names the file, not a traceback.
    artifact = tmp_path / "mu_bad.json"
    if content is not None:
        artifact.write_text(content)
    config = tiny_config(tmp_path, "iter-curve", include_oracle=False, mu_artifact=str(artifact))
    assert _run_cli(tmp_path, "iter-curve", config) == 2
    assert str(artifact) in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("seed", -1), ("train_size", 4.5), ("test_size", 2.5),
    ("test_size", True), ("ensemble_size", True), ("fixed_long_iterations", 1.5),
    ("train.iterations", 2.5), ("train.epochs", 1.5), ("train.batch_count", 1.5),
    ("train.seed", 1.5), ("train.seed", -1),
    ("train.init_step", float("nan")), ("train.init_step", -1.0), ("train.init_step", True),
    ("train.learning_rate", float("inf")), ("train.beta1", 1.0), ("train.beta2", 1.5),
    ("train.eps", 0),
])
def test_cli_refuses_counts_that_are_not_integers(tmp_path, key, value):
    doc = tiny_config(tmp_path, "noise-sweep").to_dict()
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["noise-sweep", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_overrides(tmp_path):
    config = tiny_config(tmp_path, "iter-curve", include_oracle=False)
    out2 = tmp_path / "alt"
    rc = _run_cli(tmp_path, "iter-curve", config, ("--out", str(out2), "--seed", "12"))
    assert rc == 0
    assert (out2 / "iter_curve.csv").exists()


def test_manifest_contents(tmp_path):
    config = tiny_config(tmp_path, "iter-curve", include_oracle=False)
    run_iter_curve(config)
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["scenario"] == "iter-curve"
    assert manifest["config_hash"] == config.config_hash()
    assert "numpy" in manifest["versions"]
    assert "iter_curve.csv" in manifest["outputs"]
    # worker count and paths do not leak into the manifest
    assert "threads" not in manifest["config"]
    assert "out_dir" not in manifest["config"]


def test_run_scenario_dispatch(tmp_path):
    config = tiny_config(tmp_path, "iter-curve", include_oracle=False)
    assert "iter_curve" in run_scenario(config)
    with pytest.raises(ConfigurationError):
        run_scenario(tiny_config(tmp_path, "unknown"))


def test_config_hash_ignores_runtime_fields(tmp_path):
    a = tiny_config(tmp_path, "iter-curve")
    b = tiny_config(tmp_path, "iter-curve", threads=8, out_dir=str(tmp_path / "z"))
    assert a.config_hash() == b.config_hash()
    c = tiny_config(tmp_path, "iter-curve", seed=99)
    assert a.config_hash() != c.config_hash()
    # A schedule artifact counts by its contents: two copies of one file at
    # different paths give one hash, a different file another.
    topo = Topology((2, 2))
    copies = [tmp_path / "one" / "mu.json", tmp_path / "two" / "mu.json"]
    for path in copies:
        path.parent.mkdir()
        save_schedule(str(path), np.full(6, 0.1), topo, "full-csi", 3)
    other = tmp_path / "mu_other.json"
    save_schedule(str(other), np.full(6, 0.2), topo, "full-csi", 3)
    d, e, f = (
        tiny_config(tmp_path, "iter-curve", mu_artifact=str(path))
        for path in copies + [other]
    )
    assert d.config_hash() == e.config_hash()
    assert d.identity() == e.identity()
    assert d.config_hash() not in (a.config_hash(), f.config_hash())


def _dirs_identical(a, b):
    names_a = sorted(os.listdir(a))
    names_b = sorted(os.listdir(b))
    if names_a != names_b:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return not mismatch and not errors


@pytest.mark.parametrize(
    "scenario", ["iter-curve", "noise-sweep", "noisy-robustness", "transfer", "oracle-compare"]
)
def test_scenarios_deterministic_across_runs_and_threads(tmp_path, scenario):
    kwargs = {}
    if scenario == "transfer":
        kwargs["source_hop_sizes"] = (2, 2)
    base = tiny_config(tmp_path, scenario, out_dir=str(tmp_path / "a"), **kwargs)
    run_scenario(base)
    again = ExperimentConfig(**{**base.to_dict(), "out_dir": str(tmp_path / "b"),
                                "train": base.train})
    run_scenario(again)
    threaded = ExperimentConfig(**{**base.to_dict(), "out_dir": str(tmp_path / "c"),
                                   "threads": 3, "train": base.train})
    run_scenario(threaded)
    assert _dirs_identical(tmp_path / "a", tmp_path / "b")
    assert _dirs_identical(tmp_path / "a", tmp_path / "c")


def test_cached_schedules_are_those_of_the_current_numerics(tmp_path):
    # The schedules in .acceptance_cache/ are exactly the ones the warm
    # script's training jobs resolve to under today's cache descriptor (which
    # carries SCHEDULE_NUMERICS): a numerics change without a rebuild leaves
    # stale files behind and keys missing, and fails here.  Reads only.
    spec = importlib.util.spec_from_file_location(
        "warm_acceptance_cache", ROOT / "scripts" / "warm_acceptance_cache.py"
    )
    warm = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(warm)
    expected = set()
    for _, (sizes, db, mode) in warm.jobs():
        if mode in (FULL_CSI, NOISY_CSI):
            config = warm.config_for(sizes, str(tmp_path))
            _, _, path = experiments._schedule_key(config, Topology(sizes), db, mode)
            expected.add(os.path.basename(path))
    cached = {name for name in os.listdir(warm.CACHE) if name.startswith("mu_")}
    assert len(expected) == 12
    assert cached == expected
