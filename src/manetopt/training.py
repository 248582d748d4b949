"""Unsupervised learning of the per-iteration step sizes.

The K step sizes of the unrolled optimizer are the only trainable parameters.
They are initialized to a constant step, by default the fixed-step baseline's
``FIXED_STEP``, and tuned by mini-batch Adam on the iteration-weighted
negative min-rate loss (the weight of iterate k is log2(1+k), so later
iterates matter more).  No labels are involved: the objective itself scores
every candidate allocation.

In noisy-CSI mode the optimizer consumes LMMSE channel estimates, re-simulated
from fresh pilot noise every epoch, while the loss is always measured on the
true channels.  Gradients with respect to the step sizes are exact reverse-
mode derivatives through the unrolled pipeline: one forward sweep makes a
single rate pass per step for the driving and the loss channels together,
one backward sweep carries a single adjoint through the tangents of the
branches that sweep selected, so a gradient costs less than two forward
sweeps at any K.  The test suite checks them against finite differences.

One ``train`` call can learn several schedules at once, for example the
full- and noisy-CSI schedules of one dataset: each owns a contiguous group
of every batch's axis, all share the batches and random starts, and each
takes its own Adam step.  A batch of a few dozen channels costs mostly
per-call overhead, so one call on S groups costs far less than S calls, and
each schedule comes out bit-identical to training it alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import engine
from .channels import ChannelDataset, ChannelRealization, NoiseProfile, Topology
from .jsonfile import write_json
from .pgd import FIXED_STEP
from .pilots import lmmse_estimates
from .power import random_init

__all__ = [
    "MIN_STEP",
    "TrainConfig",
    "AdamState",
    "adam_update",
    "train",
    "save_schedule",
    "load_schedule",
    "iteration_weights",
]

MIN_STEP = 1e-6

FULL_CSI = "full-csi"
NOISY_CSI = "noisy-csi"


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    return _number(value) and math.isfinite(value) and value > 0


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 40
    epochs: int = 100
    batch_count: int = 10
    learning_rate: float = 1e-2
    mode: str = FULL_CSI
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    init_step: float | None = None  # None: FIXED_STEP, the fixed-step baseline's step

    def __post_init__(self) -> None:
        for name, low in (("iterations", 1), ("epochs", 1), ("batch_count", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not _finite_positive(self.learning_rate):
            raise ValueError("learning_rate must be a finite positive number")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not (_number(value) and 0.0 <= value < 1.0):
                raise ValueError(f"{name} must be a number in [0, 1)")
        if not _finite_positive(self.eps):
            raise ValueError("eps must be a finite positive number")
        if self.init_step is not None and not _finite_positive(self.init_step):
            raise ValueError("init_step must be None or a finite positive number")
        if self.mode not in (FULL_CSI, NOISY_CSI):
            raise ValueError(f"mode must be '{FULL_CSI}' or '{NOISY_CSI}'")


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    count: int

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size), count=0)


def adam_update(
    state: AdamState,
    grad: np.ndarray,
    mu: np.ndarray,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[AdamState, np.ndarray]:
    """Bias-corrected Adam descent step on the step sizes, then positivity clamp."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != state.m.shape or grad.shape != np.shape(mu):
        raise ValueError("gradient, state and step vector sizes must agree")
    count = state.count + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**count)
    v_hat = v / (1.0 - beta2**count)
    updated = mu - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(m=m, v=v, count=count), np.maximum(updated, MIN_STEP)


def iteration_weights(steps: int) -> np.ndarray:
    """Strictly increasing loss weights log2(1+k) for k = 1..steps."""
    return np.log2(1.0 + np.arange(1, steps + 1))


def _stack_entries(
    entries: Sequence[tuple[ChannelRealization, NoiseProfile]]
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    first, later = engine.stack_channels([ch for ch, _ in entries])
    sig2 = np.array([n.hop_noise_vars for _, n in entries], dtype=np.float64)
    return first, later, sig2


def _batch_loss_grad(
    topology: Topology,
    entries: Sequence[tuple[ChannelRealization, NoiseProfile]],
    opt_channels: Sequence[ChannelRealization] | None,
    mu: np.ndarray,
    p0: np.ndarray,
    want_grad: bool = True,
) -> engine.UnrolledResult:
    """Unrolled loss over one batch; ``opt_channels`` override the driving CSI.

    With an (S, K) ``mu``, ``entries`` (and ``opt_channels``) hold S groups of
    equal size, one per schedule.
    """
    first, later, sig2 = _stack_entries(entries)
    loss_ops = engine.prepare_operands(first, later, sig2)
    if opt_channels is None:
        opt_ops = loss_ops
    else:
        ofirst, olater = engine.stack_channels(list(opt_channels))
        opt_ops = engine.prepare_operands(ofirst, olater, sig2)
    q = len(entries)
    p0q = np.broadcast_to(p0, (q,) + p0.shape)
    weights = iteration_weights(np.shape(mu)[-1])
    return engine.unrolled_loss(
        topology, opt_ops, loss_ops, p0q, mu, weights, want_grad=want_grad
    )


def train(
    dataset: ChannelDataset,
    config: TrainConfig | Sequence[TrainConfig],
    progress: Callable[[int, float | np.ndarray], None] | None = None,
) -> np.ndarray:
    """Learn the step schedule by mini-batch Adam over the channel dataset.

    Deterministic for a given (dataset, config): shuffling, per-batch random
    starting points and per-epoch pilot noise all derive from ``config.seed``.

    A sequence of S configs learns S schedules in lockstep on one batch axis
    and returns them as an (S, K) array.  The configs must agree in ``seed``,
    ``iterations``, ``epochs`` and ``batch_count``, so that every schedule
    sees the same batches and starts; mode, initial step and Adam settings
    may differ.  Each schedule is bit-identical to training it alone, and
    ``progress`` then gets the S mean losses of each epoch.
    """
    single = isinstance(config, TrainConfig)
    configs = [config] if single else list(config)
    if not configs:
        raise ValueError("training needs at least one config")
    lead = configs[0]
    for key in ("seed", "iterations", "epochs", "batch_count"):
        if any(getattr(c, key) != getattr(lead, key) for c in configs):
            raise ValueError(f"configs trained together must share {key}")
    size = len(dataset)
    if size < 1:
        raise ValueError("training needs a non-empty dataset")
    if lead.batch_count > size:
        raise ValueError("batch_count cannot exceed the dataset size")
    topology = dataset.topology

    mu = np.array([
        np.full(lead.iterations, float(FIXED_STEP if c.init_step is None else c.init_step))
        for c in configs
    ])
    states = [AdamState.zeros(lead.iterations) for _ in configs]

    shuffle_rng = np.random.default_rng([lead.seed, 0])
    start_rng = np.random.default_rng([lead.seed, 1])
    noisy = [c.mode == NOISY_CSI for c in configs]

    for epoch in range(lead.epochs):
        order = shuffle_rng.permutation(size)
        epoch_loss = np.zeros(len(configs))
        for batch_ids in np.array_split(order, lead.batch_count):
            entries = [dataset.entries[i] for i in batch_ids]
            p0 = random_init(topology, start_rng)
            # Each schedule's group of the batch: the loss channels once more,
            # driven by the true channels or by this epoch's pilot estimates.
            opt = None
            if any(noisy):
                rngs = [
                    np.random.default_rng([lead.seed, 2, epoch, int(i)])
                    for i in batch_ids
                ]
                truth = [ch for ch, _ in entries]
                estimates = lmmse_estimates(truth, [n for _, n in entries], rngs)
                opt = [ch for n in noisy for ch in (estimates if n else truth)]
            result = _batch_loss_grad(topology, entries * len(configs), opt, mu, p0)
            for s, c in enumerate(configs):
                states[s], mu[s] = adam_update(
                    states[s], result.grad[s], mu[s], c.learning_rate, c.beta1, c.beta2, c.eps
                )
            epoch_loss += result.loss * len(batch_ids)
        if progress is not None:
            progress(epoch, float(epoch_loss[0] / size) if single else epoch_loss / size)
    return mu[0] if single else mu


def config_hash(config: TrainConfig) -> str:
    return hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode()
    ).hexdigest()[:16]


def save_schedule(
    path: str,
    mu: np.ndarray,
    topology: Topology,
    mode: str,
    seed: int,
    config: TrainConfig | None = None,
) -> None:
    """Persist a trained schedule with the metadata needed to reuse it."""
    doc = {
        "steps": [float(v) for v in np.asarray(mu)],
        "iterations": int(len(mu)),
        "topology": list(topology.hop_sizes),
        "mode": mode,
        "seed": seed,
        "config_hash": config_hash(config) if config is not None else None,
    }
    write_json(path, doc)


def load_schedule(path: str) -> tuple[np.ndarray, dict]:
    """The steps and document of the schedule file at ``path``, checked by
    ``schedule_steps`` against the file's own ``"iterations"``."""
    with open(path) as fh:
        doc = json.load(fh)
    iterations = doc.get("iterations") if isinstance(doc, dict) else None
    return schedule_steps(doc, iterations), doc


def schedule_steps(doc, iterations: int) -> np.ndarray:
    """The (iterations,) steps of the schedule document ``doc``, as
    ``save_schedule`` writes it.  ValueError unless ``doc`` is a dict whose
    ``"steps"`` is a list of ``iterations`` finite numbers."""
    steps = doc.get("steps") if isinstance(doc, dict) else None
    if not isinstance(steps, list) or any(type(v) not in (int, float) for v in steps):
        raise ValueError("not a schedule: no list of numeric steps")
    if len(steps) != iterations:
        raise ValueError(f"{len(steps)} steps where {iterations} are expected")
    try:
        mu = np.array(steps, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        mu = np.array([np.inf])
    if not np.isfinite(mu).all():
        raise ValueError("a step size is not finite")
    return mu
