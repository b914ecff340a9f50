"""Unlearning procedures: gradient ascent, fine-tuning, Fisher noise, retraining.

Each procedure takes the dataset plus explicit id sets and returns a fresh
model; fine_tune and retrain read training rows only through data.gather,
so an attached AccessLog can prove the forget samples were never touched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import diffnet
from .data import LabeledDataset, gather
from .errors import ArgumentError, ConfigurationError, NumericalError
from .stein import SteinKernelMatrix

# The hyperparameters each method reads besides `seed`. Parsing accepts only
# these in a method's config block, and only these appear in its canonical form.
METHOD_FIELDS = {
    "grad_ascent": ("lr", "epochs", "overfit_threshold"),
    "fine_tune": ("lr", "epochs", "batch_size"),
    "fisher": ("alpha",),
    "retrain": ("lr", "epochs", "batch_size"),
}
METHODS = tuple(METHOD_FIELDS)

# Method fields that must be positive; the others must be >= 0.
POSITIVE_FIELDS = ("lr", "batch_size")

FISHER_DAMPING = 1e-8


@dataclass(frozen=True)
class UnlearnConfig:
    """Hyperparameters for one unlearning method."""

    method: str
    lr: float = 0.0
    epochs: int = 0
    overfit_threshold: float = 0.0
    alpha: float = 0.0
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHOD_FIELDS:
            raise ConfigurationError(
                f"method: expected one of {METHODS}, got {self.method!r}"
            )
        for name in METHOD_FIELDS[self.method] + ("seed",):
            value = getattr(self, name)
            if name in POSITIVE_FIELDS and value <= 0:
                raise ConfigurationError(f"{name}: must be positive, got {value!r}")
            if value < 0:
                raise ConfigurationError(f"{name}: must be >= 0, got {value!r}")


@dataclass
class UnlearnOutcome:
    """Modified model plus how much work producing it took."""

    unlearned: diffnet.MlpModel
    steps_taken: int
    wall_time: float


def grad_ascent(
    model: diffnet.MlpModel,
    ds: LabeledDataset,
    forget_ids: np.ndarray,
    cfg: UnlearnConfig,
) -> UnlearnOutcome:
    """Full-batch ascent on the forget set's mean NLL.

    Stops as soon as the loss reaches cfg.overfit_threshold or after
    cfg.epochs steps, whichever comes first; the threshold is checked
    before each step, so a pre-satisfied threshold takes zero steps.
    """
    forget_ids = np.asarray(forget_ids, dtype=np.int64)
    if forget_ids.size == 0:
        raise ArgumentError("forget set is empty")
    X, y = gather(ds, forget_ids)
    t0 = time.perf_counter()
    current = model.copy()
    steps = 0
    # overflow inside a diverging run is handled explicitly below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            loss, g = diffnet.loss_and_grad(current, X, y)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"gradient ascent diverged to a non-finite loss; "
                    f"last finite step was {steps}"
                )
            if loss >= cfg.overfit_threshold:
                break
            try:
                current = current.with_params(current.params + cfg.lr * g)
            except NumericalError as exc:
                raise NumericalError(
                    f"gradient ascent diverged to non-finite parameters; "
                    f"last finite step was {steps}"
                ) from exc
            steps += 1
    return UnlearnOutcome(current, steps, time.perf_counter() - t0)


def fine_tune(
    model: diffnet.MlpModel,
    ds: LabeledDataset,
    retain_ids: np.ndarray,
    cfg: UnlearnConfig,
) -> UnlearnOutcome:
    """Continue SGD training on the retain split only."""
    retain_ids = np.asarray(retain_ids, dtype=np.int64)
    if retain_ids.size == 0:
        raise ArgumentError("retain set is empty")
    X, y = gather(ds, retain_ids)
    t0 = time.perf_counter()
    tuned = diffnet.train(model, X, y, cfg.lr, cfg.epochs, cfg.batch_size, cfg.seed)
    batches = -(-X.shape[0] // cfg.batch_size)
    return UnlearnOutcome(tuned, cfg.epochs * batches, time.perf_counter() - t0)


def fisher_forget(
    model: diffnet.MlpModel,
    ds: LabeledDataset,
    retain_ids: np.ndarray,
    cfg: UnlearnConfig,
) -> UnlearnOutcome:
    """Add seeded Gaussian noise scaled inversely to parameter importance.

    Importance is the diagonal empirical Fisher information on the retain
    split; coordinate i receives noise with standard deviation
    sqrt(alpha / (F_i + damping)), so well-determined parameters move least.
    """
    retain_ids = np.asarray(retain_ids, dtype=np.int64)
    if retain_ids.size == 0:
        raise ArgumentError("retain set is empty")
    X, y = gather(ds, retain_ids)
    t0 = time.perf_counter()
    if cfg.alpha == 0.0:
        return UnlearnOutcome(model.copy(), 0, time.perf_counter() - t0)
    fim = diffnet.fisher_diagonal(model, X, y)
    # an overflowing sigma gives non-finite parameters, which with_params rejects
    with np.errstate(over="ignore"):
        sigma = np.sqrt(cfg.alpha / (fim + FISHER_DAMPING))
    rng = np.random.default_rng(cfg.seed)
    noise = rng.standard_normal(model.params.shape[0]) * sigma
    return UnlearnOutcome(
        model.with_params(model.params + noise), 1, time.perf_counter() - t0
    )


def retrain(
    spec: diffnet.NetworkSpec,
    ds: LabeledDataset,
    retain_ids: np.ndarray,
    cfg: UnlearnConfig,
) -> UnlearnOutcome:
    """Train a freshly initialized model on the retain split only."""
    retain_ids = np.asarray(retain_ids, dtype=np.int64)
    if retain_ids.size == 0:
        raise ArgumentError("retain set is empty")
    X, y = gather(ds, retain_ids)
    t0 = time.perf_counter()
    fresh = diffnet.init_network(spec, cfg.seed)
    trained = diffnet.train(fresh, X, y, cfg.lr, cfg.epochs, cfg.batch_size, cfg.seed)
    batches = -(-X.shape[0] // cfg.batch_size)
    return UnlearnOutcome(trained, cfg.epochs * batches, time.perf_counter() - t0)


def expand_forget_set(
    target_id: int, m: SteinKernelMatrix, k: int
) -> np.ndarray:
    """The target plus its k most Stein-similar samples, ids sorted ascending.

    Ties in kernel value are broken toward the smaller sample id.
    """
    if not 0 <= k <= m.n - 1:
        raise ArgumentError(f"k must lie in [0, {m.n - 1}], got {k}")
    idx = m.index_of(target_id)
    row = m.values[idx]
    candidates = np.flatnonzero(m.sample_ids != target_id)
    order = np.lexsort((m.sample_ids[candidates], -row[candidates]))
    chosen = m.sample_ids[candidates[order[:k]]]
    return np.sort(np.concatenate([[np.int64(target_id)], chosen]))
