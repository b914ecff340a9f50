"""Per-sample unlearning-difficulty metrics and deterministic ranking.

Five scores: MKSD (kernel row sums), MSKSD (row sums of exponentiated
z-scored kernel values), SSN (parameter-gradient norms), EMSKSD (MSKSD
divided by predictive entropy), and the PC confidence baseline. Each metric
carries its own orientation so callers cannot silently invert a ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import write_csv
from .errors import ArgumentError, ConfigurationError, DataError
from .stein import ScoreTable, SteinKernelMatrix

HIGHER_IS_HARDER = "higher_is_harder"
HIGHER_IS_EASIER = "higher_is_easier"

METRICS = ("MKSD", "MSKSD", "SSN", "EMSKSD", "PC")

METRIC_ORIENTATION = {
    "MKSD": HIGHER_IS_HARDER,
    "MSKSD": HIGHER_IS_HARDER,
    "SSN": HIGHER_IS_EASIER,
    "EMSKSD": HIGHER_IS_HARDER,
    "PC": HIGHER_IS_HARDER,
}

DEFAULT_ENTROPY_FLOOR = 1e-6


@dataclass
class DifficultyRanking:
    """Scores plus the induced easiest-to-hardest ordering of sample ids.

    Built by rank, whose lexsort makes easy_to_hard a permutation of sample_ids.
    """

    metric: str
    scores: np.ndarray
    easy_to_hard: np.ndarray
    sample_ids: np.ndarray


def mksd(m: SteinKernelMatrix) -> np.ndarray:
    """Row sums of the kernel matrix, diagonal included."""
    return m.values.sum(axis=1)


def msksd(m: SteinKernelMatrix, global_standardize: bool = False) -> np.ndarray:
    """Row sums of exponentiated z-scored kernel values.

    Standardization (population std) is per row by default, so each
    sample's kernel-value distribution is brought to a common scale and the
    aggregate reacts to its skew rather than its magnitude. The global mode
    (one z-scoring over the whole matrix) exists for sensitivity runs; the
    two modes differ only in the axis the mean and std are taken over.

    One n x n buffer beside the kernel holds every step, in numpy's `std`
    order: the deviations from the mean are squared in place, summed and
    divided by the count, and the square root is the std; the deviations
    are then written again, divided by the std and exponentiated in place.
    """
    values = m.values
    if m.n < 2:
        raise ArgumentError("standardization needs at least 2 values")
    axis = None if global_standardize else 1
    mean = values.mean(axis=axis, keepdims=True)
    buf = np.subtract(values, mean)
    np.square(buf, out=buf)
    std = buf.sum(axis=axis, keepdims=True)
    std /= values.size if global_standardize else values.shape[1]
    np.sqrt(std, out=std)
    if np.any(std == 0.0):
        if global_standardize:
            raise DataError("kernel matrix is constant; cannot standardize")
        first = int(m.sample_ids[np.argmax(std == 0.0)])
        raise DataError(f"sample {first}: row is constant; cannot standardize")
    np.subtract(values, mean, out=buf)
    buf /= std
    np.exp(buf, out=buf)
    return buf.sum(axis=1)


def ssn(table: ScoreTable) -> np.ndarray:
    """Parameter-space gradient norms; large values sit near the decision boundary."""
    return table.param_grad_norms.copy()


def entropy(probs: np.ndarray) -> np.ndarray | float:
    """Shannon entropy in nats of a probability vector or of each row of an
    (n, C) array, with 0 * log(0) taken as 0."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim not in (1, 2):
        raise ArgumentError(f"expected probability vectors, got shape {p.shape}")
    if np.any(p < 0) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-8):
        raise ArgumentError("input is not a probability vector")
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0)
    return -(p * log_p).sum(axis=-1)


def emsksd(
    msksd_scores: np.ndarray,
    table: ScoreTable,
    entropy_floor: float = DEFAULT_ENTROPY_FLOOR,
) -> np.ndarray:
    """MSKSD divided by predictive entropy, floored to survive one-hot outputs."""
    if entropy_floor <= 0:
        raise ConfigurationError(f"entropy floor must be positive, got {entropy_floor}")
    msksd_scores = np.asarray(msksd_scores, dtype=np.float64)
    if msksd_scores.shape[0] != table.n:
        raise ArgumentError(
            f"{msksd_scores.shape[0]} scores for {table.n} table rows"
        )
    return msksd_scores / np.maximum(entropy(table.probs), entropy_floor)


def pc(table: ScoreTable, labels: np.ndarray) -> np.ndarray:
    """Predictive confidence at the true label, the baseline difficulty score."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != table.n:
        raise ArgumentError(f"{labels.shape[0]} labels for {table.n} table rows")
    return table.probs[np.arange(table.n), labels]


def rank(
    scores: np.ndarray,
    orientation: str,
    sample_ids: np.ndarray | None = None,
    metric: str = "",
) -> DifficultyRanking:
    """Deterministic easiest-to-hardest ordering with ties broken by ascending id."""
    scores = np.asarray(scores, dtype=np.float64)
    if sample_ids is None:
        sample_ids = np.arange(scores.shape[0])
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    if orientation not in (HIGHER_IS_HARDER, HIGHER_IS_EASIER):
        raise ArgumentError(f"unknown orientation {orientation!r}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise DataError(
            f"non-finite score for sample {int(sample_ids[bad[0]])}"
        )
    key = scores if orientation == HIGHER_IS_HARDER else -scores
    order = np.lexsort((sample_ids, key))
    return DifficultyRanking(
        metric=metric,
        scores=scores,
        easy_to_hard=sample_ids[order],
        sample_ids=sample_ids,
    )


def compute_metric(
    metric: str,
    table: ScoreTable,
    kernel: SteinKernelMatrix,
    labels: np.ndarray,
    msksd_scores: np.ndarray | None = None,
    entropy_floor: float = DEFAULT_ENTROPY_FLOOR,
) -> DifficultyRanking:
    """Score and rank one metric for the CLI pipelines.

    MSKSD and EMSKSD read `msksd_scores`, the caller's `msksd(kernel)`, so
    a base that ranks both computes it once.
    """
    if metric not in METRICS:
        raise ConfigurationError(f"unknown metric {metric!r}; choose from {METRICS}")
    if metric in ("MSKSD", "EMSKSD") and msksd_scores is None:
        raise ArgumentError(f"{metric} needs the MSKSD scores")
    if metric == "MKSD":
        scores = mksd(kernel)
    elif metric == "MSKSD":
        scores = msksd_scores
    elif metric == "SSN":
        scores = ssn(table)
    elif metric == "EMSKSD":
        scores = emsksd(msksd_scores, table, entropy_floor)
    else:
        scores = pc(table, labels)
    return rank(scores, METRIC_ORIENTATION[metric], table.sample_ids, metric)


def rankings_to_csv(rankings: list[DifficultyRanking], path: str | Path) -> None:
    """One row per (sample, metric): sample_id, metric, score, rank_easy_to_hard."""

    def rows():
        for ranking in rankings:
            position = {sid: r for r, sid in enumerate(ranking.easy_to_hard.tolist())}
            for sid, score in zip(ranking.sample_ids.tolist(), ranking.scores.tolist()):
                yield sid, ranking.metric, score, position[sid]

    write_csv(path, ("sample_id", "metric", "score", "rank_easy_to_hard"), rows())
