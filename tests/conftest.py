"""Shared fixtures and numerical-oracle helpers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from steinunlearn import diffnet, stein
from steinunlearn.errors import (
    ArgumentError, ConfigurationError, DataError, ShapeError, SteinUnlearnError,
)


def rel_close(a, b, rtol, floor=1.0):
    """Relative closeness with an absolute floor for near-zero references."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.all(np.abs(a - b) <= rtol * scale)


def random_model(rng, sizes, activation="tanh"):
    """Model with parameters drawn uniformly in [-1, 1]."""
    spec = diffnet.NetworkSpec(tuple(sizes), activation)
    params = rng.uniform(-1.0, 1.0, spec.n_params)
    return diffnet.MlpModel(spec, params)


def fd_grad_params(model, X, y, h=1e-5):
    """Central-difference gradient of the mean NLL w.r.t. every parameter."""
    grad = np.empty_like(model.params)
    for i in range(model.params.shape[0]):
        plus = model.params.copy()
        plus[i] += h
        minus = model.params.copy()
        minus[i] -= h
        grad[i] = (
            diffnet.forward(model.with_params(plus), X).nll(y).mean()
            - diffnet.forward(model.with_params(minus), X).nll(y).mean()
        ) / (2 * h)
    return grad


def sgd_epoch_params(model, X, y, lr, epochs, batch_size, seed):
    """Per-epoch params of seeded mini-batch SGD that rebuilds the model each step.

    The reference for diffnet.train: the same shuffles and the same update,
    but every step builds a new model around params - lr * grad.
    """
    rng = np.random.default_rng(seed)
    per_epoch = []
    for _ in range(epochs):
        perm = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], batch_size):
            idx = perm[start : start + batch_size]
            g = diffnet.grad_params(model, X[idx], y[idx])
            model = model.with_params(model.params - lr * g)
        per_epoch.append(model.params)
    return per_epoch


def fd_grad_input(model, x, y, h=1e-5):
    """Central-difference gradient of log p(y | x) w.r.t. the input."""

    def loglik(xv):
        trace = diffnet.forward(model, xv[None])
        return -trace.nll([y])[0]

    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        plus = x.copy()
        plus[i] += h
        minus = x.copy()
        minus[i] -= h
        grad[i] = (loglik(plus) - loglik(minus)) / (2 * h)
    return grad


def rbf(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """exp(-||a - b||^2 / (2 h^2))."""
    if h <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {h}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    delta = a - b
    return float(np.exp(-(delta @ delta) / (2.0 * h * h)))


def stein_kernel(
    a: np.ndarray, b: np.ndarray, s_a: np.ndarray, s_b: np.ndarray, h: float
) -> float:
    """Closed-form Stein kernel for the RBF base kernel.

    Combines the base-kernel cross-Hessian trace (raw feature similarity),
    the score inner product, and the two kernel-gradient/score cross terms
    into one scalar:

        k(a,b) * [ s_a.s_b + (s_a - s_b).(a - b)/h^2 + d/h^2 - ||a-b||^2/h^4 ]
    """
    if h <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {h}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    s_a = np.asarray(s_a, dtype=np.float64)
    s_b = np.asarray(s_b, dtype=np.float64)
    if not (a.shape == b.shape == s_a.shape == s_b.shape):
        raise ShapeError(
            f"shape mismatch: a{a.shape} b{b.shape} s_a{s_a.shape} s_b{s_b.shape}"
        )
    d = a.shape[0]
    delta = a - b
    r2 = float(delta @ delta)
    k = np.exp(-r2 / (2.0 * h * h))
    h2 = h * h
    cross = float((s_a - s_b) @ delta)
    return float(k * (float(s_a @ s_b) + cross / h2 + d / h2 - r2 / (h2 * h2)))


def same_bits(a, b):
    """Equal shapes and values with equal sign bits, so -0.0 differs from +0.0."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def result_or_error(fn, *args):
    """fn(*args), or the type and text of the SteinUnlearnError it raises."""
    try:
        return fn(*args)
    except SteinUnlearnError as exc:
        return type(exc), str(exc)


def traced_peak(fn):
    """fn()'s result and the most bytes it held at once beyond what was
    allocated when it started, as tracemalloc sees them (numpy reports its
    array buffers to tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


@st.composite
def kernel_inputs(draw):
    """Features, scores and a bandwidth for 1-24 samples, spread from
    overlapping to so far apart at small h that the RBF factor underflows;
    sometimes the last row repeats the first (a zero off-diagonal distance)."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.01, 1.0, 30.0]))
    if draw(st.booleans()):
        X[-1] = X[0]
    S = rng.normal(size=(n, d)) * draw(st.floats(1e-3, 1e3))
    return X, S, draw(st.floats(0.05, 20.0))


def stein_kernel_matrix_oracle(features, scores, h, sample_ids=None):
    """Whole-matrix Stein kernel build: the reference for
    `stein.stein_kernel_matrix`, which must match it bit for bit.

    Every term is a full n x n array; the strict upper triangle is mirrored
    by `triu + triu.T` and the diagonal takes its closed form.
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
        r2 = squareform(pdist(X, "sqeuclidean"))
        k = np.exp(-r2 / (2.0 * h2))
        ss = S @ S.T
        # cross[i,j] = (s_i - s_j) . (x_i - x_j), expanded into four Gram pieces
        sx = np.einsum("ij,ij->i", S, X)
        sxt = S @ X.T
        cross = sx[:, None] + sx[None, :] - sxt - sxt.T
        vals = k * (ss + cross / h2 + d / h2 - r2 / (h2 * h2))
        vals = np.triu(vals, 1)
        vals = vals + vals.T
        np.fill_diagonal(vals, np.einsum("ij,ij->i", S, S) + d / h2)
    return stein.SteinKernelMatrix(vals, sample_ids)


def msksd_oracle(m, global_standardize=False):
    """Whole-matrix MSKSD with numpy's `std` and `mean`: the reference for
    `scoring.msksd`, which must match it bit for bit."""
    values = m.values
    if m.n < 2:
        raise ArgumentError("standardization needs at least 2 values")
    axis = None if global_standardize else 1
    std = values.std(axis=axis, keepdims=True)
    if np.any(std == 0.0):
        if global_standardize:
            raise DataError("kernel matrix is constant; cannot standardize")
        first = int(m.sample_ids[np.argmax(std == 0.0)])
        raise DataError(f"sample {first}: row is constant; cannot standardize")
    z = (values - values.mean(axis=axis, keepdims=True)) / std
    return np.exp(z).sum(axis=1)


def ksd_statistic(m, mode="u_stat"):
    """Kernel Stein discrepancy estimate from a Stein kernel matrix.

    v_stat averages all entries; u_stat drops the diagonal, giving the
    unbiased estimator that is zero in expectation under a matched model
    (Liu, Lee & Jordan 2016).
    """
    if mode not in ("u_stat", "v_stat"):
        raise ArgumentError(f"mode must be 'u_stat' or 'v_stat', got {mode!r}")
    n = m.n
    total = float(m.values.sum())
    if mode == "v_stat":
        return total / (n * n)
    if n < 2:
        raise ArgumentError("u-statistic needs at least 2 samples")
    return (total - float(np.trace(m.values))) / (n * (n - 1))


def expand_forget_set_oracle(target_id, m, k):
    """The target plus its k most Stein-similar samples, ids sorted ascending,
    read straight from the kernel matrix `m`: the reference for
    `unlearn.expand_forget_set` on `m.neighbours(target_id)`.

    Ties in kernel value are broken toward the smaller sample id.
    """
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    if k >= m.n:
        raise ArgumentError(f"k={k} exceeds training size {m.n}")
    hits = np.flatnonzero(m.sample_ids == target_id)
    if hits.size != 1:
        raise ArgumentError(f"sample id {target_id} not in kernel matrix")
    row = m.values[int(hits[0])]
    candidates = np.flatnonzero(m.sample_ids != target_id)
    order = np.lexsort((m.sample_ids[candidates], -row[candidates]))
    chosen = m.sample_ids[candidates[order[:k]]]
    return np.sort(np.concatenate([[np.int64(target_id)], chosen]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def models_built(monkeypatch):
    """A function that calls fn() and returns (MlpModels it constructed, result)."""
    count = 0
    post_init = diffnet.MlpModel.__post_init__

    def counting(self):
        nonlocal count
        count += 1
        post_init(self)

    monkeypatch.setattr(diffnet.MlpModel, "__post_init__", counting)

    def run(fn):
        nonlocal count
        count = 0
        result = fn()
        return count, result

    return run
