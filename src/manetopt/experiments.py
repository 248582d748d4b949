"""Scenario runners wiring the library into reproducible experiments.

Each scenario consumes an ``ExperimentConfig``, derives every random stream
from the master seed (disjoint roles for train data, test data, training,
ensemble starts and pilot noise), and writes CSV tables plus a JSON run
manifest into the output directory.  Outputs are byte-identical across
re-runs with the same configuration and seed.  The ``threads`` setting is
accepted and ignored: test channels and ensemble members run on one batch
axis in a single thread, so outputs are identical for any value.

The fixed-step baseline runs at ``pgd.FIXED_STEP``, as does every schedule's
default ``init_step``; no scenario runs the calibration search.  The
``calib_size`` setting is accepted and ignored; it stays in the config's
identity so that ``config_hash`` does not move.

Noise levels are given in dB relative to the unit channel variance:
``sigma_b^2 = 10^(dB/10)`` on every hop.  Channels are drawn at that unit
variance whatever the level, so a study samples its ``test_size`` test
channels once and every noise level reads the same set.  The ``train_size``
training channels are sampled only when a schedule trains.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import numbers
import os
import platform
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _version
from .channels import NoiseProfile, Topology, build_dataset
from .ensemble import BatchResult, infer_batch
from .errors import ConfigurationError
from .gridsearch import grid_capacity, grid_points
from .jsonfile import read_entry, write_json
from .pgd import FIXED_STEP, run_pgd_batch
from .pilots import lmmse_estimates
from .power import uniform_init
from .rates import min_rate
from .training import (
    FULL_CSI, NOISY_CSI, TrainConfig, load_schedule, save_schedule, schedule_steps, train,
)

__all__ = [
    "ExperimentConfig",
    "SCENARIOS",
    "run_scenario",
    "run_iter_curve",
    "run_noise_sweep",
    "run_noisy_robustness",
    "run_transfer",
    "run_oracle_compare",
    "noise_profile",
]

# Seed-derivation roles; every random stream is keyed (master, role, ...).
# CALIB_DATA keys the calibration set that pgd.FIXED_STEP is checked against.
TRAIN_DATA = 0
TEST_DATA = 1
CALIB_DATA = 2
ENSEMBLE = 4
PILOTS = 5

# Version of the arithmetic that trains a schedule, part of every schedule's
# cache key.  Training amplifies last-bit differences in the step-size
# gradient over its Adam updates, so bump this whenever that arithmetic
# changes; no schedule trained by older code is then served from a cache.
# 2: reverse-mode gradient (schedules cached before it carry no version).
# Training several schedules in one call needs no bump: each group of the
# joint batch sums and steps exactly as a call on its own, so every schedule
# is bit-identical to training it alone.
SCHEDULE_NUMERICS = 2

# Config fields naming a schedule artifact; an experiment's identity holds the
# artifact's contents, not its path.
ARTIFACT_FIELDS = ("mu_artifact", "mu_artifact_noisy", "mu_artifact_native")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    hop_sizes: tuple[int, ...]
    noise_db: tuple[float, ...]
    out_dir: str
    seed: int = 0
    train_size: int = 1000
    test_size: int = 200
    calib_size: int = 50  # accepted and ignored, see the module docstring
    train: TrainConfig = field(default_factory=TrainConfig)
    ensemble_size: int = 6
    threads: int = 1
    oracle_resolution: float = 1e-2
    include_oracle: bool = True
    fixed_long_iterations: int = 2000
    train_per_level: bool = True
    reference_db: float = 0.0
    source_hop_sizes: tuple[int, ...] | None = None
    mu_artifact: str | None = None
    mu_artifact_noisy: str | None = None
    mu_artifact_native: str | None = None
    allow_training: bool = True
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        for name, values in (
            ("noise_db", self.noise_db), ("reference_db", [self.reference_db]),
            ("oracle_resolution", [self.oracle_resolution]),
        ):
            # a string noise_db iterates as strings, which float() would read
            if any(isinstance(x, (bool, str)) for x in values):
                raise ConfigurationError(f"{name} must hold numbers, not bools or strings")
        object.__setattr__(self, "noise_db", tuple(float(x) for x in self.noise_db))
        try:
            object.__setattr__(self, "hop_sizes", Topology(self.hop_sizes).hop_sizes)
            if self.source_hop_sizes is not None:
                source = Topology(self.source_hop_sizes).hop_sizes
                object.__setattr__(self, "source_hop_sizes", source)
        except ValueError as exc:
            raise ConfigurationError(f"bad hop sizes: {exc}") from exc
        if not self.noise_db:
            raise ConfigurationError("at least one noise level is required")
        levels = self.noise_db + (self.reference_db,)
        if not all(math.isfinite(db) for db in levels):
            raise ConfigurationError("noise levels and reference_db must be finite")
        try:
            for db in levels:
                noise_profile(db, 1)
        except OverflowError as exc:
            raise ConfigurationError(f"noise level {db:g} dB overflows its variance") from exc
        for name, low in (
            ("seed", 0), ("train_size", 0), ("test_size", 1), ("ensemble_size", 1),
            ("fixed_long_iterations", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigurationError(f"{name} must be an integer >= {low}")
        if not 0.0 < self.oracle_resolution <= 1.0:
            raise ConfigurationError("oracle_resolution must be in (0, 1]")
        for name in ("include_oracle", "train_per_level", "allow_training"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(f"{name} must be true or false")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"a config is a JSON object, not {type(doc).__name__}")
        doc = dict(doc)
        train_doc = doc.pop("train", {})
        try:
            train_cfg = TrainConfig(**train_doc)
            return cls(train=train_cfg, **doc)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["train"] = dataclasses.asdict(self.train)
        return doc

    def identity(self) -> dict:
        """The config as it identifies the experiment, not where or how fast
        it ran: without the output, cache and thread settings, and with each
        schedule artifact given as ``sha256:<digest>`` of its contents; an
        artifact that cannot be read is a ``ConfigurationError``."""
        doc = self.to_dict()
        for key in ("out_dir", "threads", "cache_dir"):
            doc.pop(key)
        for key in ARTIFACT_FIELDS:
            if doc[key] is not None:
                try:
                    with open(doc[key], "rb") as fh:
                        doc[key] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
                except OSError as exc:
                    raise ConfigurationError(f"cannot read {key}: {exc}") from exc
        return doc

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.identity(), sort_keys=True).encode()
        ).hexdigest()[:16]


def noise_profile(db: float, hops: int, channel_var: float = 1.0) -> NoiseProfile:
    """All hops share one variance: sigma^2 = 10^(dB/10) times the channel var."""
    sigma2 = channel_var * 10.0 ** (db / 10.0)
    return NoiseProfile(hop_noise_vars=(sigma2,) * hops, channel_var=channel_var)


def derive_seed(master: int, *path: int) -> int:
    return int(np.random.SeedSequence((master,) + tuple(path)).generate_state(1)[0])


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_tables(config: ExperimentConfig, tables: dict, seeds: dict) -> dict:
    """Write each ``name: (header, rows)`` table to ``<name>.csv`` in the
    output directory, then the run manifest; returns ``tables``."""
    os.makedirs(config.out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(os.path.join(config.out_dir, f"{name}.csv"), header, rows)
    manifest = {
        "scenario": config.scenario,
        "config": config.identity(),
        "config_hash": config.config_hash(),
        "seeds": seeds,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "manetopt": _version,
        },
        "outputs": sorted(f"{name}.csv" for name in tables),
    }
    write_json(
        os.path.join(config.out_dir, "run_manifest.json"), manifest, sort_keys=True, indent=2
    )
    return tables


def _cache_path(config: ExperimentConfig, kind: str, descriptor: dict) -> str | None:
    if config.cache_dir is None:
        return None
    os.makedirs(config.cache_dir, exist_ok=True)
    key = hashlib.sha256(json.dumps(descriptor, sort_keys=True).encode()).hexdigest()[:24]
    return os.path.join(config.cache_dir, f"{kind}_{key}.json")


def _test_channels(config: ExperimentConfig, topology: Topology) -> list:
    """The study's ``test_size`` test channels, shared by every noise level:
    channels are drawn at unit channel variance whatever the level, so the
    0 dB profile passed here changes nothing."""
    dataset = build_dataset(
        topology,
        noise_profile(0.0, topology.num_hops),
        config.test_size,
        derive_seed(config.seed, TEST_DATA),
    )
    return list(dataset.channels())


def _training_disabled(tag: str) -> ConfigurationError:
    return ConfigurationError(
        f"no schedule artifact or cached schedule for {tag} and training is disabled"
    )


def _schedule_key(
    config: ExperimentConfig, topology: Topology, db: float, mode: str
) -> tuple[TrainConfig, dict, str | None]:
    """Training config, cache descriptor and cache path of one schedule."""
    train_cfg = dataclasses.replace(config.train, mode=mode)
    if train_cfg.init_step is None:
        train_cfg = dataclasses.replace(train_cfg, init_step=FIXED_STEP)
    descriptor = {
        "kind": "schedule",
        "numerics": SCHEDULE_NUMERICS,
        "hop_sizes": list(topology.hop_sizes),
        "db": db,
        "mode": mode,
        "train_size": config.train_size,
        "data_seed": derive_seed(config.seed, TRAIN_DATA),
        "train": dataclasses.asdict(train_cfg),
    }
    return train_cfg, descriptor, _cache_path(config, "mu", descriptor)


def _trained_schedules(
    config: ExperimentConfig,
    topology: Topology,
    db: float,
    wanted: Sequence[tuple[str, str | None, str]],
) -> list[np.ndarray]:
    """Load or train one step schedule per ``(mode, artifact, tag)`` of one
    (topology, level).

    An artifact is loaded as is, and one that ``schedule_steps`` refuses is a
    ``ConfigurationError``; any other schedule is read from the cache under
    its own key, where such an entry is a miss.  The schedules that neither
    supplies train together in one ``train`` call, which gives each the
    schedule it would train alone; each is then cached and, like a cache
    hit, written to ``mu_<tag>.json``.
    """
    iterations = config.train.iterations
    mus: list[np.ndarray | None] = []
    keys = []  # per schedule: (train config, cache path), None for an artifact
    for mode, artifact, tag in wanted:
        if artifact is not None:
            try:
                mu, _ = load_schedule(artifact)
            except (OSError, ValueError) as exc:
                raise ConfigurationError(f"cannot load schedule {artifact}: {exc!r}") from exc
            if len(mu) != iterations:
                raise ConfigurationError(
                    f"schedule {artifact} has {len(mu)} steps, config expects {iterations}"
                )
            mus.append(mu)
            keys.append(None)
            continue
        train_cfg, _, path = _schedule_key(config, topology, db, mode)
        cached = read_entry(path, lambda doc: schedule_steps(doc, iterations))
        if cached is None and not config.allow_training:
            raise _training_disabled(tag)
        mus.append(cached)
        keys.append((train_cfg, path))
    missing = [i for i, mu in enumerate(mus) if mu is None]
    if missing:
        if config.train_size < 1:
            raise ConfigurationError("train_size must be >= 1 to train a schedule")
        noise = noise_profile(db, topology.num_hops)
        dataset = build_dataset(
            topology, noise, config.train_size, derive_seed(config.seed, TRAIN_DATA)
        )
        trained = train(dataset, [keys[i][0] for i in missing])
        for i, mu in zip(missing, trained):
            mus[i] = mu
            train_cfg, path = keys[i]
            if path is not None:
                save_schedule(path, mu, topology, train_cfg.mode, train_cfg.seed, train_cfg)
    os.makedirs(config.out_dir, exist_ok=True)
    for (_, _, tag), mu, key in zip(wanted, mus, keys):
        if key is not None:
            train_cfg = key[0]
            out_path = os.path.join(config.out_dir, f"mu_{tag}.json")
            save_schedule(out_path, mu, topology, train_cfg.mode, train_cfg.seed, train_cfg)
    return mus


def _uniform_starts(topology: Topology, count: int) -> np.ndarray:
    return np.broadcast_to(
        uniform_init(topology), (count, topology.stacked_rows, topology.end_users)
    )


def _ensemble_seeds(config: ExperimentConfig, level_index: int, count: int) -> list[int]:
    return [derive_seed(config.seed, ENSEMBLE, level_index, i) for i in range(count)]


def _ensemble_batch(
    config: ExperimentConfig,
    inputs: Sequence[list],
    noise: NoiseProfile,
    mus: Sequence[np.ndarray],
    level_index: int,
) -> BatchResult:
    """Ensemble inference with schedule ``mus[g]`` on the channels
    ``inputs[g]`` (the test channels or their estimates) for every g, in one
    ``infer_batch`` call.  Every group uses the level's ensemble seeds, so
    each gets what a call on it alone would give."""
    seeds = _ensemble_seeds(config, level_index, len(inputs[0]))
    return infer_batch(
        [ch for group in inputs for ch in group],
        noise,
        np.stack(mus),
        config.ensemble_size,
        seeds * len(inputs),
    )


def _ensemble_rates(
    config: ExperimentConfig,
    channels,
    noise: NoiseProfile,
    mus: Sequence[np.ndarray],
    level_index: int,
) -> list[np.ndarray]:
    """Full-CSI ensemble min rates per test channel, one array per schedule."""
    batch = _ensemble_batch(config, [channels] * len(mus), noise, mus, level_index)
    return np.split(batch.selected_min_rate_eval, len(mus))


def _pilot_estimates(
    config: ExperimentConfig, channels, noise: NoiseProfile, level_index: int
) -> list:
    """LMMSE estimates of the test channels from one pilot draw per channel."""
    pilot_seed = derive_seed(config.seed, PILOTS, level_index)
    return lmmse_estimates(
        channels,
        [noise] * len(channels),
        [np.random.default_rng([pilot_seed, i]) for i in range(len(channels))],
    )


def _fixed_rates(
    channels, noise: NoiseProfile, iterations: int, topology: Topology, keep=None
) -> np.ndarray:
    """Min rates (len(keep), channels) of fixed-step ascent from uniform,
    one row per kept iteration (``None``: all iterations+1)."""
    starts = _uniform_starts(topology, len(channels))
    rates, _ = run_pgd_batch(
        list(channels), noise, starts, np.full(iterations, FIXED_STEP), keep=keep
    )
    return rates


def _oracle_rates(
    config: ExperimentConfig, channels, noise: NoiseProfile
) -> np.ndarray:
    return np.array([
        grid_capacity(ch, noise, config.oracle_resolution, cache_dir=config.cache_dir)
        .best_min_rate
        for ch in channels
    ])


def run_iter_curve(config: ExperimentConfig) -> dict:
    """Mean min rate per iteration: learned schedule vs fixed step (vs oracle)."""
    topology = Topology(config.hop_sizes)
    with_oracle = config.include_oracle and topology.end_users <= 2
    if with_oracle:
        grid_points(topology, config.oracle_resolution)  # refuse before training
    db = config.noise_db[0]
    noise = noise_profile(db, topology.num_hops)
    channels = _test_channels(config, topology)

    (mu,) = _trained_schedules(
        config, topology, db, [(FULL_CSI, config.mu_artifact, f"full_{db:g}db")]
    )
    starts = _uniform_starts(topology, len(channels))
    unfolded, _ = run_pgd_batch(channels, noise, starts, mu)
    fixed = _fixed_rates(channels, noise, config.train.iterations, topology)
    header = ["iteration", "unfolded_mean", "fixed_mean"]
    oracle_mean = None
    if with_oracle:
        oracle_mean = float(_oracle_rates(config, channels, noise).mean())
        header.append("oracle_mean")
    rows = []
    for k in range(config.train.iterations + 1):
        row = [k, unfolded[k].mean(), fixed[k].mean()]
        if oracle_mean is not None:
            row.append(oracle_mean)
        rows.append(row)
    return _write_tables(config, {"iter_curve": (header, rows)}, {"noise_db": db})


def run_noise_sweep(config: ExperimentConfig) -> dict:
    """Final min rate vs noise level for the learned and fixed-step optimizers."""
    topology = Topology(config.hop_sizes)
    iterations = config.train.iterations
    with_oracle = config.include_oracle and topology.end_users <= 2
    if with_oracle:
        grid_points(topology, config.oracle_resolution)  # refuse before training

    header = ["noise_db", "unfolded_mean", "fixed40_mean", "fixed_long_mean"]
    if with_oracle:
        header.append("oracle_mean")
    chan_header = ["noise_db", "channel", "unfolded", "fixed40"]
    rows = []
    chan_rows = []
    channels = _test_channels(config, topology)
    for index, db in enumerate(config.noise_db):
        noise = noise_profile(db, topology.num_hops)
        train_db = db if config.train_per_level else config.reference_db
        (mu,) = _trained_schedules(config, topology, train_db, [
            (FULL_CSI, config.mu_artifact, f"full_{train_db:g}db"),
        ])
        (unfolded,) = _ensemble_rates(config, channels, noise, [mu], index)
        # One fixed-step run serves both baselines and keeps only their two
        # rows: the rates at step k do not depend on how many steps follow.
        fixed40, fixed_long = _fixed_rates(
            channels, noise, max(iterations, config.fixed_long_iterations), topology,
            keep=(iterations, config.fixed_long_iterations),
        )
        row = [db, unfolded.mean(), fixed40.mean(), fixed_long.mean()]
        if with_oracle:
            row.append(_oracle_rates(config, channels, noise).mean())
        rows.append(row)
        for i in range(len(channels)):
            chan_rows.append([db, i, unfolded[i], fixed40[i]])
    tables = {"noise_sweep": (header, rows), "noise_sweep_channels": (chan_header, chan_rows)}
    return _write_tables(config, tables, {"levels": len(rows)})


def run_noisy_robustness(config: ExperimentConfig) -> dict:
    """Clean- vs noisy-trained schedules under full and estimated CSI.

    Realized rates are always measured on the true channels; the pilot
    estimates are shared between the two schedules so comparisons are paired.
    Both schedules of a level train together in one call unless an artifact
    or the cache supplies them, and a level's four ensemble inferences run
    as one batch.
    """
    topology = Topology(config.hop_sizes)
    header = [
        "noise_db",
        "clean_full_mean",
        "clean_noisy_mean",
        "noisy_full_mean",
        "noisy_noisy_mean",
    ]
    chan_header = ["noise_db", "channel", "clean_full", "clean_noisy", "noisy_full", "noisy_noisy"]
    rows = []
    chan_rows = []
    channels = _test_channels(config, topology)
    for index, db in enumerate(config.noise_db):
        noise = noise_profile(db, topology.num_hops)
        mu_clean, mu_noisy = _trained_schedules(config, topology, db, [
            (FULL_CSI, config.mu_artifact, f"full_{db:g}db"),
            (NOISY_CSI, config.mu_artifact_noisy, f"noisy_{db:g}db"),
        ])
        estimates = _pilot_estimates(config, channels, noise, index)
        # both schedules on the true channels, then on their estimates; the
        # selections made on estimates are scored on the true channels
        batch = _ensemble_batch(
            config, [channels, channels, estimates, estimates], noise,
            [mu_clean, mu_noisy] * 2, index,
        )
        count = len(channels)
        clean_full, noisy_full = np.split(batch.selected_min_rate_eval[: 2 * count], 2)
        realized, _ = min_rate(channels * 2, batch.selected[2 * count :], noise)
        clean_noisy, noisy_noisy = np.split(realized, 2)
        rows.append(
            [db, clean_full.mean(), clean_noisy.mean(), noisy_full.mean(), noisy_noisy.mean()]
        )
        for i in range(len(channels)):
            chan_rows.append(
                [db, i, clean_full[i], clean_noisy[i], noisy_full[i], noisy_noisy[i]]
            )
    tables = {
        "noisy_robustness": (header, rows),
        "noisy_robustness_channels": (chan_header, chan_rows),
    }
    return _write_tables(config, tables, {"levels": len(rows)})


def run_transfer(config: ExperimentConfig) -> dict:
    """Evaluate a schedule trained on one topology on a different one.

    The step schedule is topology-invariant, so the source schedule applies
    unchanged; natively trained and fixed-step baselines run on the same test
    channels for comparison.
    """
    target = Topology(config.hop_sizes)
    if config.mu_artifact is None:
        if config.source_hop_sizes is None:
            raise ConfigurationError(
                "transfer needs a source schedule artifact or source_hop_sizes"
            )
        source = Topology(config.source_hop_sizes)
        (mu_source,) = _trained_schedules(config, source, config.reference_db, [
            (FULL_CSI, None,
             f"source_{'x'.join(map(str, source.hop_sizes))}_{config.reference_db:g}db"),
        ])
    else:
        (mu_source,) = _trained_schedules(config, target, config.reference_db, [
            (FULL_CSI, config.mu_artifact, "source"),
        ])
    (mu_native,) = _trained_schedules(config, target, config.reference_db, [
        (FULL_CSI, config.mu_artifact_native, f"native_{config.reference_db:g}db"),
    ])
    header = ["noise_db", "transferred_mean", "native_mean", "fixed40_mean"]
    chan_header = ["noise_db", "channel", "transferred", "native", "fixed40"]
    rows = []
    chan_rows = []
    channels = _test_channels(config, target)
    for index, db in enumerate(config.noise_db):
        noise = noise_profile(db, target.num_hops)
        transferred, native = _ensemble_rates(
            config, channels, noise, [mu_source, mu_native], index
        )
        (fixed40,) = _fixed_rates(
            channels, noise, config.train.iterations, target, keep=(config.train.iterations,)
        )
        rows.append([db, transferred.mean(), native.mean(), fixed40.mean()])
        for i in range(len(channels)):
            chan_rows.append([db, i, transferred[i], native[i], fixed40[i]])
    tables = {"transfer": (header, rows), "transfer_channels": (chan_header, chan_rows)}
    return _write_tables(config, tables, {"levels": len(rows)})


def run_oracle_compare(config: ExperimentConfig) -> dict:
    """Per-channel ensemble min rate against the exhaustive grid reference."""
    topology = Topology(config.hop_sizes)
    grid_points(topology, config.oracle_resolution)  # refuse before training
    db = config.noise_db[0]
    noise = noise_profile(db, topology.num_hops)
    channels = _test_channels(config, topology)
    (mu,) = _trained_schedules(
        config, topology, db, [(FULL_CSI, config.mu_artifact, f"full_{db:g}db")]
    )
    (ensemble,) = _ensemble_rates(config, channels, noise, [mu], 0)
    oracle = _oracle_rates(config, channels, noise)
    header = ["channel", "ensemble_rate", "oracle_rate"]
    rows = [[i, ensemble[i], oracle[i]] for i in range(len(channels))]
    summary_header = ["noise_db", "ensemble_mean", "oracle_mean", "ratio"]
    summary = [[db, ensemble.mean(), oracle.mean(), ensemble.mean() / oracle.mean()]]
    tables = {"oracle_compare": (header, rows), "oracle_summary": (summary_header, summary)}
    return _write_tables(config, tables, {"noise_db": db})


SCENARIOS: dict[str, Callable[[ExperimentConfig], dict]] = {
    "iter-curve": run_iter_curve,
    "noise-sweep": run_noise_sweep,
    "noisy-robustness": run_noisy_robustness,
    "transfer": run_transfer,
    "oracle-compare": run_oracle_compare,
}


def run_scenario(config: ExperimentConfig) -> dict:
    """Run the config's scenario, after checking that its identity can be
    taken: an artifact field the scenario never reads still goes into the
    manifest, so an unreadable one is refused before any output."""
    if config.scenario not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {config.scenario!r}")
    config.identity()
    return SCENARIOS[config.scenario](config)
