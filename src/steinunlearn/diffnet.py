"""Small fully-connected classifier with exact gradients.

Forward passes, cross-entropy training, and backprop gradients with respect
to both parameters and inputs. Parameters live in one flat float64 vector
(all weight matrices first, then all bias vectors, layer by layer) so that
models can be compared, perturbed, and serialized coordinate-wise. That
layout is written down once, in NetworkSpec.views; every layer-wise reader
or writer of a flat vector goes through its per-layer views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError, ConfigurationError, LabelError, NumericalError, ShapeError,
)

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer sizes (input dim, hidden dims, class count) and hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ConfigurationError("layer_sizes: need at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ConfigurationError(f"layer_sizes: every size must be >= 1, got {sizes}")
        if sizes[-1] < 2:
            raise ConfigurationError(
                "layer_sizes: the output layer needs at least 2 classes"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"activation: expected one of {ACTIVATIONS}, got {self.activation!r}"
            )

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        """Number of weight layers (linear maps), not counting the input."""
        return len(self.layer_sizes) - 1

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each layer's (fan_out, fan_in) weight and its bias, as views into flat.

        flat holds n_params entries: every weight matrix row-major, then
        every bias vector, layer by layer. Writing a view writes flat.
        """
        sizes = self.layer_sizes
        weights, biases = [], []
        lo = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            weights.append(flat[lo : lo + fan_in * fan_out].reshape(fan_out, fan_in))
            lo += fan_in * fan_out
        for fan_out in sizes[1:]:
            biases.append(flat[lo : lo + fan_out])
            lo += fan_out
        return weights, biases


@dataclass
class MlpModel:
    """Architecture spec plus one flat parameter vector.

    Treat instances as immutable, except that train and grad_ascent step
    the working copy they made in place. weights and biases are the spec's
    per-layer views into params, so they follow every such step.
    """

    spec: NetworkSpec
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=np.float64)
        n_params = self.spec.n_params
        if self.params.ndim != 1 or self.params.shape[0] != n_params:
            raise ShapeError(f"expected {n_params} parameters, got {self.params.shape}")
        if not np.all(np.isfinite(self.params)):
            raise NumericalError("parameter vector contains non-finite entries")
        self.weights, self.biases = self.spec.views(self.params)

    def with_params(self, params: np.ndarray) -> "MlpModel":
        return MlpModel(self.spec, params)

    def copy(self) -> "MlpModel":
        return self.with_params(self.params.copy())


@dataclass
class ForwardTrace:
    """Per-layer intermediates of one forward pass over an (n, d) batch.

    activations[0] is the input batch; activations[l] feeds layer l.
    pre_activations[l] is the affine output of layer l; the last one holds
    the logits. Every loss, gradient and measurement reads from one trace.
    """

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    probs: np.ndarray

    @property
    def logits(self) -> np.ndarray:
        return self.pre_activations[-1]

    @property
    def hidden(self) -> list[np.ndarray]:
        """Post-nonlinearity hidden-layer outputs, per layer."""
        return self.activations[1:]

    def nll(self, y: np.ndarray) -> np.ndarray:
        """Per-sample negative log-likelihood, computed as logsumexp - logit."""
        z = self.logits
        y = _check_labels(y, z.shape[1], z.shape[0])
        m = z.max(axis=1)
        lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
        return lse - z[np.arange(z.shape[0]), y]


def init_network(spec: NetworkSpec, seed: int) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.n_params)
    for w in spec.views(params)[0]:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return MlpModel(spec, params)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def forward(model: MlpModel, X: np.ndarray) -> ForwardTrace:
    """The one forward pass: run the net on an (n, d) batch (a vector is one row)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != model.spec.input_dim:
        raise ShapeError(
            f"expected batch of shape (n, {model.spec.input_dim}), got {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ShapeError("input batch contains non-finite entries")
    acts = [X]
    zs = []
    a = X
    last = model.spec.n_layers - 1
    for layer in range(model.spec.n_layers):
        z = a @ model.weights[layer].T + model.biases[layer]
        zs.append(z)
        if layer < last:
            a = _activate(z, model.spec.activation)
            acts.append(a)
    # softmax, shifted by the row maximum so that exp cannot overflow
    e = np.exp(zs[-1] - zs[-1].max(axis=1, keepdims=True))
    return ForwardTrace(zs, acts, e / e.sum(axis=1, keepdims=True))


def _check_labels(y: np.ndarray, n_classes: int, n: int) -> np.ndarray:
    """Labels as int64 for a nonempty batch of n samples, each in [0, n_classes)."""
    if n == 0:
        raise ArgumentError("batch is empty")
    y = np.asarray(y)
    if y.ndim == 0:
        y = y[None]
    y = y.astype(np.int64)
    if y.shape != (n,):
        raise ShapeError(f"{n} samples but labels of shape {y.shape}")
    if y.min() < 0 or y.max() >= n_classes:
        raise LabelError(f"labels must lie in [0, {n_classes}), got range "
                         f"[{y.min()}, {y.max()}]")
    return y


def _backprop(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[ForwardTrace, list[np.ndarray]]:
    """One forward pass plus per-sample backprop state.

    Returns (trace, deltas) where deltas[l][k] is the gradient of
    sample k's NLL with respect to layer l's pre-activation. No batch
    averaging is applied here; callers reduce as they need.
    """
    trace = forward(model, X)
    y = _check_labels(y, model.spec.n_classes, trace.probs.shape[0])
    L = model.spec.n_layers
    delta = trace.probs.copy()
    delta[np.arange(y.shape[0]), y] -= 1.0
    deltas: list[np.ndarray] = [np.empty(0)] * L
    deltas[L - 1] = delta
    for layer in range(L - 2, -1, -1):
        upstream = deltas[layer + 1] @ model.weights[layer + 1]
        deltas[layer] = upstream * _activate_grad(
            trace.pre_activations[layer], model.spec.activation
        )
    return trace, deltas


def _batch_mean(
    model: MlpModel, deltas: list[np.ndarray], acts: list[np.ndarray]
) -> np.ndarray:
    """Flat batch mean of delta x activation per weight and of delta per bias."""
    n = acts[0].shape[0]
    out = np.empty_like(model.params)
    for delta, a, w, b in zip(deltas, acts, *model.spec.views(out)):
        np.divide(delta.T @ a, n, out=w)
        np.divide(delta.sum(axis=0), n, out=b)
    return out


def grad_params(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean NLL over the batch, flat, same layout as params."""
    trace, deltas = _backprop(model, X, y)
    return _batch_mean(model, deltas, trace.activations)


def loss_and_grad(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean NLL over the batch and its gradient, from one forward pass."""
    trace, deltas = _backprop(model, X, y)
    return float(trace.nll(y).mean()), _batch_mean(model, deltas, trace.activations)


def per_sample_scores(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input scores, parameter-gradient norms and probs from one backprop.

    Row k of the (n, d) input scores is the gradient of log p(y_k | x_k)
    w.r.t. x_k. Entry k of the (n,) norms is the L2 norm of sample k's
    parameter-space NLL gradient: for a single sample the weight gradient
    of a linear layer is the outer product delta x activation, whose
    Frobenius norm factorizes, so no per-sample gradient vector is built.
    The (n, C) probs are the forward pass's softmax.
    """
    trace, deltas = _backprop(model, X, y)
    sq = np.zeros(trace.probs.shape[0])
    for layer in range(model.spec.n_layers):
        acts = trace.activations[layer]
        d2 = np.einsum("ij,ij->i", deltas[layer], deltas[layer])
        a2 = np.einsum("ij,ij->i", acts, acts)
        sq += d2 * (a2 + 1.0)
    return -(deltas[0] @ model.weights[0]), np.sqrt(sq), trace.probs


def fisher_diagonal(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean squared per-sample NLL gradient, per coordinate (diagonal FIM)."""
    trace, deltas = _backprop(model, X, y)
    return _batch_mean(
        model, [d ** 2 for d in deltas], [a ** 2 for a in trace.activations]
    )


# only the run that made this working copy steps it in place; overflow in a
# diverging run surfaces as non-finite parameters, checked after every step
@np.errstate(over="ignore", invalid="ignore")
def train(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    lr: float,
    epochs: int,
    batch_size: int,
    seed: int,
    on_epoch=None,
) -> MlpModel:
    """Mini-batch SGD on mean cross-entropy with seeded per-epoch shuffling.

    Deterministic for fixed (model, data, hyperparameters, seed). epochs=0
    returns an identical copy. on_epoch, when given, is called with
    (epoch_index, snapshot) after each epoch; the snapshot is a copy, so
    it observes but cannot alter the run. A step that makes a parameter
    non-finite raises NumericalError naming its epoch and batch step.
    """
    if lr <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {lr}")
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _check_labels(y, model.spec.n_classes, X.shape[0])
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    current = model.copy()
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for step, start in enumerate(range(0, n, batch_size)):
            idx = perm[start : start + batch_size]
            current.params -= lr * grad_params(current, X[idx], y[idx])
            if not np.isfinite(current.params).all():
                raise NumericalError(
                    f"SGD diverged at epoch {epoch}, batch step {step}: "
                    "parameter vector contains non-finite entries"
                )
        if on_epoch is not None:
            on_epoch(epoch, current.copy())
    return current
