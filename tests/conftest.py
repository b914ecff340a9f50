"""Shared fixtures and numerical-oracle helpers."""

import numpy as np
import pytest

from steinunlearn import diffnet


def rel_close(a, b, rtol, floor=1.0):
    """Relative closeness with an absolute floor for near-zero references."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.all(np.abs(a - b) <= rtol * scale)


def random_model(rng, sizes, activation="tanh"):
    """Model with parameters drawn uniformly in [-1, 1]."""
    spec = diffnet.NetworkSpec(tuple(sizes), activation)
    layout = diffnet.build_layout(spec)
    params = rng.uniform(-1.0, 1.0, layout.n_params)
    return diffnet.MlpModel(spec, params, layout)


def fd_grad_params(model, X, y, h=1e-5):
    """Central-difference gradient of the mean NLL w.r.t. every parameter."""
    grad = np.empty_like(model.params)
    for i in range(model.params.shape[0]):
        plus = model.params.copy()
        plus[i] += h
        minus = model.params.copy()
        minus[i] -= h
        grad[i] = (
            diffnet.mean_nll(model.with_params(plus), X, y)
            - diffnet.mean_nll(model.with_params(minus), X, y)
        ) / (2 * h)
    return grad


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
