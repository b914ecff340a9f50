"""Post-unlearning measurement and the success verdict.

Accuracy/loss per split, layer-wise and activation-wise model distances,
a confidence-threshold membership-inference attack, and the final verdict
that combines a full prediction flip on the targets with bounded test-set
degradation. The verdict runs one forward pass per (model, split) and reads
every measurement from those passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffnet
from .errors import ArgumentError, ComparisonError, NumericalError
from .unlearn import UnlearnOutcome

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


def accuracy(probs: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest class."""
    if probs.shape[0] == 0:
        raise ArgumentError("split is empty")
    return float((probs.argmax(axis=1) == np.asarray(y, dtype=np.int64)).mean())


def layerwise_distance(a: diffnet.MlpModel, b: diffnet.MlpModel) -> LayerwiseDistance:
    """L2 norm of the (weights + bias) difference per layer, plus the global norm."""
    if a.spec != b.spec:
        raise ComparisonError(f"cannot compare specs {a.spec} and {b.spec}")
    diff = a.params - b.params
    per_layer = np.array([
        np.sqrt(float(dw.ravel() @ dw.ravel()) + float(db @ db))
        for dw, db in zip(*a.spec.views(diff))
    ])
    return LayerwiseDistance(per_layer, float(np.linalg.norm(diff)))


def activation_distance(
    hidden_a: list[np.ndarray], hidden_b: list[np.ndarray]
) -> float:
    """Mean L2 gap between two models' hidden activations on the same probe inputs."""
    if [h.shape for h in hidden_a] != [h.shape for h in hidden_b]:
        raise ComparisonError("hidden activations differ in shape")
    if not hidden_a:
        return 0.0
    if hidden_a[0].shape[0] == 0:
        raise ArgumentError("probe is empty")
    gaps = [np.linalg.norm(ha - hb, axis=1) for ha, hb in zip(hidden_a, hidden_b)]
    return float(np.mean(np.concatenate(gaps)))


def _confidences(trace: diffnet.ForwardTrace, y: np.ndarray) -> np.ndarray:
    """Each sample's predicted probability of its true label."""
    return trace.probs[np.arange(trace.probs.shape[0]), np.asarray(y, dtype=np.int64)]


def mia_efficacy(
    forget_conf: np.ndarray, member_conf: np.ndarray, nonmember_conf: np.ndarray
) -> float:
    """Fraction of forget samples a confidence-threshold attack calls non-member.

    The attack rule is "member iff confidence at the true label >= tau";
    tau is chosen to maximize balanced accuracy separating the member
    calibration confidences from the non-member ones, searching over the
    observed calibration confidences, with ties resolved toward the smaller
    tau.
    """
    if member_conf.size == 0 or nonmember_conf.size == 0:
        raise ArgumentError("calibration splits must be nonempty")
    member_conf = np.sort(member_conf)
    nonmember_conf = np.sort(nonmember_conf)
    candidates = np.unique(np.concatenate([member_conf, nonmember_conf]))
    tpr = 1.0 - np.searchsorted(member_conf, candidates, side="left") / member_conf.size
    tnr = np.searchsorted(nonmember_conf, candidates, side="left") / nonmember_conf.size
    balanced = (tpr + tnr) / 2.0
    tau = float(candidates[int(np.argmax(balanced))])
    return float((forget_conf < tau).mean())


@np.errstate(over="ignore", invalid="ignore")
def verdict(
    original: diffnet.MlpModel,
    outcome: UnlearnOutcome,
    forget: tuple[np.ndarray, np.ndarray],
    retain: tuple[np.ndarray, np.ndarray],
    test: tuple[np.ndarray, np.ndarray],
    epsilon: float,
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
    f_out = diffnet.forward(model, forget[0])
    r_out = diffnet.forward(model, retain[0])
    t_out = diffnet.forward(model, test[0])
    t_orig = diffnet.forward(original, test[0])
    # the MIA threshold is calibrated on the unlearned model unless asked otherwise
    if calibrate_on_original:
        member_cal, nonmember_cal = diffnet.forward(original, retain[0]), t_orig
    else:
        member_cal, nonmember_cal = r_out, t_out
    forget_acc = accuracy(f_out.probs, forget[1])
    test_acc = accuracy(t_out.probs, test[1])
    test_acc_original = accuracy(t_orig.probs, test[1])
    distances = layerwise_distance(original, model)
    return UnlearnReport(
        forget_acc=forget_acc,
        retain_acc=accuracy(r_out.probs, retain[1]),
        test_acc=test_acc,
        forget_loss=float(f_out.nll(forget[1]).mean()),
        retain_loss=float(r_out.nll(retain[1]).mean()),
        test_loss=float(t_out.nll(test[1]).mean()),
        layer_distances=[float(v) for v in distances.per_layer],
        total_param_distance=distances.total,
        activation_distance=activation_distance(t_orig.hidden, t_out.hidden),
        mia_efficacy=mia_efficacy(
            _confidences(f_out, forget[1]),
            member_conf=_confidences(member_cal, retain[1]),
            nonmember_conf=_confidences(nonmember_cal, test[1]),
        ),
        steps_taken=outcome.steps_taken,
        success=(forget_acc == 0.0) and (test_acc_original - test_acc <= epsilon),
        epsilon=epsilon,
        test_acc_original=test_acc_original,
    )
