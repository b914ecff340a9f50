"""Post-unlearning measurement and the success verdict.

Accuracy/loss per split, layer-wise and activation-wise model distances,
a confidence-threshold membership-inference attack, and the final verdict
that combines a full prediction flip on the targets with bounded test-set
degradation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffnet
from .errors import ArgumentError, ComparisonError, NumericalError
from .unlearn import UnlearnOutcome

DEFAULT_EPSILON = 0.05

REPORT_COLUMNS = (
    "run_id", "metric", "target_id", "easy_or_difficult", "method", "k_expansion",
    "forget_acc", "retain_acc", "test_acc", "forget_loss", "retain_loss",
    "test_loss", "total_param_distance", "activation_distance", "mia_efficacy",
    "steps_taken", "success",
)


@dataclass
class LayerwiseDistance:
    """Per-layer L2 norms of the parameter difference plus the overall norm."""

    per_layer: np.ndarray
    total: float


@dataclass
class UnlearnReport:
    """Everything measured about one unlearning run; every value is finite."""

    forget_acc: float
    retain_acc: float
    test_acc: float
    forget_loss: float
    retain_loss: float
    test_loss: float
    layer_distances: list[float]
    total_param_distance: float
    activation_distance: float
    mia_efficacy: float
    steps_taken: int
    success: bool
    epsilon: float
    test_acc_original: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            for v in value if isinstance(value, list) else (value,):
                if not math.isfinite(v):
                    raise NumericalError(f"non-finite {name}")

    def to_json_dict(self) -> dict:
        return {
            "forget_acc": self.forget_acc,
            "retain_acc": self.retain_acc,
            "test_acc": self.test_acc,
            "forget_loss": self.forget_loss,
            "retain_loss": self.retain_loss,
            "test_loss": self.test_loss,
            "layer_distances": self.layer_distances,
            "total_param_distance": self.total_param_distance,
            "activation_distance": self.activation_distance,
            "mia_efficacy": self.mia_efficacy,
            "steps_taken": self.steps_taken,
            "success": self.success,
            "epsilon": self.epsilon,
            "test_acc_original": self.test_acc_original,
        }


def accuracy(model: diffnet.MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest class."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ArgumentError("split is empty")
    y = np.asarray(y, dtype=np.int64)
    preds = diffnet.predict_probs(model, X).argmax(axis=1)
    return float((preds == y).mean())


def layerwise_distance(a: diffnet.MlpModel, b: diffnet.MlpModel) -> LayerwiseDistance:
    """L2 norm of the (weights + bias) difference per layer, plus the global norm."""
    if a.spec != b.spec:
        raise ComparisonError(f"cannot compare specs {a.spec} and {b.spec}")
    diff = a.params - b.params
    per_layer = np.empty(a.spec.n_layers)
    for layer in range(a.spec.n_layers):
        wlo, whi = a.layout.weight_slices[layer]
        blo, bhi = a.layout.bias_slices[layer]
        per_layer[layer] = np.sqrt(
            float(diff[wlo:whi] @ diff[wlo:whi]) + float(diff[blo:bhi] @ diff[blo:bhi])
        )
    return LayerwiseDistance(per_layer, float(np.linalg.norm(diff)))


def activation_distance(
    a: diffnet.MlpModel, b: diffnet.MlpModel, probe: np.ndarray
) -> float:
    """Mean L2 gap between hidden activations of the two models on probe inputs."""
    if a.spec != b.spec:
        raise ComparisonError(f"cannot compare specs {a.spec} and {b.spec}")
    probe = np.atleast_2d(np.asarray(probe, dtype=np.float64))
    if probe.shape[0] == 0:
        raise ArgumentError("probe is empty")
    hidden_a = diffnet.hidden_activations(a, probe)
    hidden_b = diffnet.hidden_activations(b, probe)
    if not hidden_a:
        return 0.0
    gaps = [np.linalg.norm(ha - hb, axis=1) for ha, hb in zip(hidden_a, hidden_b)]
    return float(np.mean(np.concatenate(gaps)))


def _confidences(model: diffnet.MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    probs = diffnet.predict_probs(model, np.atleast_2d(X))
    return probs[np.arange(probs.shape[0]), np.asarray(y, dtype=np.int64)]


def mia_efficacy(
    unlearned: diffnet.MlpModel,
    forget: tuple[np.ndarray, np.ndarray],
    member_cal: tuple[np.ndarray, np.ndarray],
    nonmember_cal: tuple[np.ndarray, np.ndarray],
    calibration_model: diffnet.MlpModel | None = None,
) -> float:
    """Fraction of forget samples a confidence-threshold attack calls non-member.

    The attack rule is "member iff confidence at the true label >= tau";
    tau is chosen to maximize balanced accuracy separating the member
    calibration split from the non-member one, searching over the observed
    calibration confidences, with ties resolved toward the smaller tau.
    By default the unlearned model produces the calibration confidences.
    """
    if member_cal[0].shape[0] == 0 or nonmember_cal[0].shape[0] == 0:
        raise ArgumentError("calibration splits must be nonempty")
    cal_model = calibration_model if calibration_model is not None else unlearned
    member_conf = np.sort(_confidences(cal_model, *member_cal))
    nonmember_conf = np.sort(_confidences(cal_model, *nonmember_cal))
    candidates = np.unique(np.concatenate([member_conf, nonmember_conf]))
    tpr = 1.0 - np.searchsorted(member_conf, candidates, side="left") / member_conf.size
    tnr = np.searchsorted(nonmember_conf, candidates, side="left") / nonmember_conf.size
    balanced = (tpr + tnr) / 2.0
    tau = float(candidates[int(np.argmax(balanced))])
    forget_conf = _confidences(unlearned, *forget)
    return float((forget_conf < tau).mean())


@np.errstate(over="ignore", invalid="ignore")
def verdict(
    original: diffnet.MlpModel,
    outcome: UnlearnOutcome,
    forget: tuple[np.ndarray, np.ndarray],
    retain: tuple[np.ndarray, np.ndarray],
    test: tuple[np.ndarray, np.ndarray],
    epsilon: float = DEFAULT_EPSILON,
    calibrate_on_original: bool = False,
) -> UnlearnReport:
    """Full measurement report plus the success flag.

    Success requires the unlearned model to misclassify every target sample
    and the original-to-unlearned test accuracy drop to stay within epsilon.
    A diverged model, whose measurements overflow, raises NumericalError
    naming the first non-finite field.
    """
    model = outcome.unlearned
    if original.spec != model.spec:
        raise ComparisonError("original and unlearned models differ in architecture")
    forget_acc = accuracy(model, *forget)
    retain_acc = accuracy(model, *retain)
    test_acc = accuracy(model, *test)
    test_acc_original = accuracy(original, *test)
    distances = layerwise_distance(original, model)
    report = UnlearnReport(
        forget_acc=forget_acc,
        retain_acc=retain_acc,
        test_acc=test_acc,
        forget_loss=diffnet.mean_nll(model, *forget),
        retain_loss=diffnet.mean_nll(model, *retain),
        test_loss=diffnet.mean_nll(model, *test),
        layer_distances=[float(v) for v in distances.per_layer],
        total_param_distance=distances.total,
        activation_distance=activation_distance(original, model, test[0]),
        mia_efficacy=mia_efficacy(
            model, forget, member_cal=retain, nonmember_cal=test,
            calibration_model=original if calibrate_on_original else None,
        ),
        steps_taken=outcome.steps_taken,
        success=(forget_acc == 0.0) and (test_acc_original - test_acc <= epsilon),
        epsilon=epsilon,
        test_acc_original=test_acc_original,
    )
    return report
