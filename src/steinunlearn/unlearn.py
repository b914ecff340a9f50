"""Unlearning procedures: gradient ascent, fine-tuning, Fisher noise, retraining.

Each procedure takes (model, ds, plan, cfg) and returns an UnlearnOutcome
holding a fresh model. grad_ascent reads the plan's forget split; the other
three read only its retain split, through data.gather, so an attached
AccessLog can prove the forget samples were never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffnet
from .data import LabeledDataset, SplitPlan, gather
from .errors import ArgumentError, ConfigurationError, NumericalError

# The hyperparameters each method reads besides `seed`. Parsing accepts only
# these in a method's config block, and only these appear in its canonical form.
METHOD_FIELDS = {
    "grad_ascent": ("lr", "epochs", "overfit_threshold"),
    "fine_tune": ("lr", "epochs", "batch_size"),
    "fisher": ("alpha",),
    "retrain": ("lr", "epochs", "batch_size"),
}
METHODS = tuple(METHOD_FIELDS)

# The unlearn-module function that runs each method. Callers look it up on
# the module when they call it, so a wrapper set on the attribute is used.
METHOD_FUNCTIONS = {
    "grad_ascent": "grad_ascent",
    "fine_tune": "fine_tune",
    "fisher": "fisher_forget",
    "retrain": "retrain",
}

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
    """Modified model plus how many update steps producing it took."""

    unlearned: diffnet.MlpModel
    steps_taken: int


def grad_ascent(
    model: diffnet.MlpModel, ds: LabeledDataset, plan: SplitPlan, cfg: UnlearnConfig
) -> UnlearnOutcome:
    """Full-batch ascent on the forget set's mean NLL.

    Stops as soon as the loss reaches cfg.overfit_threshold or after
    cfg.epochs steps, whichever comes first; the threshold is checked
    before each step, so a pre-satisfied threshold takes zero steps.
    """
    if plan.forget_ids.size == 0:
        raise ArgumentError("forget set is empty")
    X, y = gather(ds, plan.forget_ids)
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
            current.params += cfg.lr * g
            if not np.isfinite(current.params).all():
                raise NumericalError(
                    f"gradient ascent diverged to non-finite parameters; "
                    f"last finite step was {steps}"
                )
            steps += 1
    return UnlearnOutcome(current, steps)


def _retain_rows(ds: LabeledDataset, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """The retain split's features and labels, read through gather."""
    if plan.retain_ids.size == 0:
        raise ArgumentError("retain set is empty")
    return gather(ds, plan.retain_ids)


def _sgd_on_retain(
    start: diffnet.MlpModel, ds: LabeledDataset, plan: SplitPlan, cfg: UnlearnConfig
) -> UnlearnOutcome:
    """SGD from `start` on the retain split only."""
    X, y = _retain_rows(ds, plan)
    trained = diffnet.train(start, X, y, cfg.lr, cfg.epochs, cfg.batch_size, cfg.seed)
    batches = -(-X.shape[0] // cfg.batch_size)
    return UnlearnOutcome(trained, cfg.epochs * batches)


def fine_tune(
    model: diffnet.MlpModel, ds: LabeledDataset, plan: SplitPlan, cfg: UnlearnConfig
) -> UnlearnOutcome:
    """Continue SGD training on the retain split only."""
    return _sgd_on_retain(model, ds, plan, cfg)


def fisher_forget(
    model: diffnet.MlpModel, ds: LabeledDataset, plan: SplitPlan, cfg: UnlearnConfig
) -> UnlearnOutcome:
    """Add seeded Gaussian noise scaled inversely to parameter importance.

    Importance is the diagonal empirical Fisher information on the retain
    split; coordinate i receives noise with standard deviation
    sqrt(alpha / (F_i + damping)), so well-determined parameters move least.
    """
    X, y = _retain_rows(ds, plan)
    if cfg.alpha == 0.0:
        return UnlearnOutcome(model.copy(), 0)
    fim = diffnet.fisher_diagonal(model, X, y)
    # an overflowing sigma gives non-finite parameters, which with_params rejects
    with np.errstate(over="ignore"):
        sigma = np.sqrt(cfg.alpha / (fim + FISHER_DAMPING))
    rng = np.random.default_rng(cfg.seed)
    noise = rng.standard_normal(model.params.shape[0]) * sigma
    return UnlearnOutcome(model.with_params(model.params + noise), 1)


def retrain(
    model: diffnet.MlpModel, ds: LabeledDataset, plan: SplitPlan, cfg: UnlearnConfig
) -> UnlearnOutcome:
    """Train a freshly initialized model of model.spec on the retain split only."""
    return _sgd_on_retain(diffnet.init_network(model.spec, cfg.seed), ds, plan, cfg)


def expand_forget_set(target_id: int, neighbours: np.ndarray, k: int) -> np.ndarray:
    """The target plus its k most Stein-similar samples, ids sorted ascending.

    `neighbours` holds every other training id, most similar first, as
    `SteinKernelMatrix.neighbours` orders them.
    """
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    if k > neighbours.size:
        raise ArgumentError(f"k={k} exceeds training size {neighbours.size + 1}")
    return np.sort(np.concatenate([[np.int64(target_id)], neighbours[:k]]))
