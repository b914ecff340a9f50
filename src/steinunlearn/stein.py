"""Stein kernel matrices over training samples.

An RBF base kernel with median-heuristic bandwidth is lifted to a
model-parameterized Stein kernel over sample pairs; row/column indices are
training samples and the score entering the kernel is the input-space
gradient of the model's log-likelihood. The kernel builder takes any score
rows, so analytic densities can be checked directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist

from . import diffnet
from .data import write_csv
from .errors import ArgumentError, ConfigurationError, DataError, ShapeError


@dataclass
class ScoreTable:
    """Per-sample input-space scores, parameter-gradient norms, and predicted probs.

    score_table builds it from one backprop: the fields share one sample
    count, the norms are square roots and each probs row is a softmax, so
    only finiteness is checked here.
    """

    input_scores: np.ndarray      # (n, d), row i = grad_x log p(y_i | x_i)
    param_grad_norms: np.ndarray  # (n,), L2 norm of the parameter-space gradient
    probs: np.ndarray             # (n, C)
    sample_ids: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.input_scores, self.param_grad_norms, self.probs):
            if not np.all(np.isfinite(arr)):
                raise DataError("score table contains non-finite entries")

    @property
    def n(self) -> int:
        return self.input_scores.shape[0]


@dataclass
class SteinKernelMatrix:
    """Matrix of Stein kernel values over sample ids.

    `stein_kernel_matrix` builds an n x n float matrix over n ids and
    mirrors its upper triangle, so the matrices it builds are square and
    exactly symmetric; that is not re-checked here.
    """

    values: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise DataError("kernel matrix contains non-finite values")
        if np.any(np.diag(self.values) <= 0):
            raise DataError("kernel matrix diagonal must be strictly positive")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def neighbours(self, sample_id: int) -> np.ndarray:
        """The other sample ids by descending kernel value with `sample_id`,
        ties broken toward the smaller id."""
        hits = np.flatnonzero(self.sample_ids == sample_id)
        if hits.size != 1:
            raise ArgumentError(f"sample id {sample_id} not in kernel matrix")
        others = np.flatnonzero(self.sample_ids != sample_id)
        order = np.lexsort((self.sample_ids[others], -self.values[hits[0], others]))
        return self.sample_ids[others[order]]


def median_bandwidth(features: np.ndarray) -> float:
    """Median pairwise Euclidean distance; falls back to the smallest nonzero one."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] < 2:
        raise ArgumentError("median bandwidth needs at least 2 points")
    dists = pdist(features)
    h = float(np.median(dists))
    if h == 0.0:
        nonzero = dists[dists > 0]
        if nonzero.size == 0:
            raise DataError("all points identical; bandwidth is undefined")
        h = float(nonzero.min())
    return h


def score_table(
    model: diffnet.MlpModel, X: np.ndarray, y: np.ndarray, ids: np.ndarray
) -> ScoreTable:
    """Input scores, gradient norms and probs of the rows (X, y) of sample `ids`."""
    scores, norms, probs = diffnet.per_sample_scores(model, X, y)
    return ScoreTable(scores, norms, probs, ids)


def stein_kernel_matrix(
    features: np.ndarray,
    scores: np.ndarray,
    h: float,
    sample_ids: np.ndarray | None = None,
) -> SteinKernelMatrix:
    """Pairwise Stein kernel matrix from feature rows and their score rows.

    For the RBF base kernel k with bandwidth h, entry (i, j) is

        k(x_i,x_j) * [ s_i.s_j + (s_i - s_j).(x_i - x_j)/h^2 + d/h^2
                       - ||x_i - x_j||^2/h^4 ]

    The scores may come from any density, not just a trained classifier.

    The matrix is built in its own buffer, in this order, and no more than
    two n x n float64 arrays are alive at once:

    - the Gram part ((s_i.x_i + s_j.x_j) - s_i.x_j - s_j.x_i) / h^2 is
      written into the buffer, then S @ S.T and d/h^2 are added to it;
    - each row i of the strict upper triangle takes its squared distances
      from the condensed `pdist`, subtracts ||x_i - x_j||^2/h^4, is
      multiplied by k(x_i, x_j), has 0.0 added (a -0.0 left where k
      underflows becomes +0.0) and is copied into column i, so symmetry is
      exact;
    - the diagonal takes its closed form ||s_i||^2 + d/h^2.

    An overflow is not warned about: it leaves non-finite entries, which
    the returned matrix reports as a DataError.
    """
    if h <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {h}")
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if X.shape != S.shape:
        raise ShapeError(f"features {X.shape} and scores {S.shape} must match")
    n, d = X.shape
    if sample_ids is None:
        sample_ids = np.arange(n)

    with np.errstate(over="ignore", invalid="ignore"):
        h2 = h * h
        sx = np.einsum("ij,ij->i", S, X)
        vals = np.add(sx[:, None], sx[None, :])
        sxt = S @ X.T
        vals -= sxt
        vals -= sxt.T
        del sxt
        vals /= h2
        vals += S @ S.T
        vals += d / h2
        # condensed squared distances: row i's pairs (i, j > i) are contiguous
        r2 = pdist(X, "sqeuclidean")
        start = 0
        for i in range(n - 1):
            stop = start + n - 1 - i
            row, r = vals[i, i + 1:], r2[start:stop]
            row -= r / (h2 * h2)
            row *= np.exp(r / -(2.0 * h2))
            row += 0.0
            vals[i + 1:, i] = row
            start = stop
        np.fill_diagonal(vals, np.einsum("ij,ij->i", S, S) + d / h2)
    return SteinKernelMatrix(vals, sample_ids)


def kernel_matrix_to_csv(m: SteinKernelMatrix, path: str | Path) -> None:
    """Row-major CSV dump with sample ids as header, for external plotting."""
    write_csv(path, m.sample_ids.tolist(), (row.tolist() for row in m.values))
