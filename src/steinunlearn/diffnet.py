"""Small fully-connected classifier with exact gradients.

Forward passes, cross-entropy training, and backprop gradients with respect
to both parameters and inputs. Parameters live in one flat float64 vector
(all weight matrices first, then all bias vectors, layer by layer) so that
models can be compared, perturbed, and serialized coordinate-wise.
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


@dataclass(frozen=True)
class ParamLayout:
    """Offsets of each layer's weight and bias block in the flat vector."""

    weight_slices: tuple[tuple[int, int], ...]
    weight_shapes: tuple[tuple[int, int], ...]
    bias_slices: tuple[tuple[int, int], ...]
    n_params: int


def build_layout(spec: NetworkSpec) -> ParamLayout:
    sizes = spec.layer_sizes
    w_slices, w_shapes = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w_shapes.append((fan_out, fan_in))
        w_slices.append((offset, offset + fan_in * fan_out))
        offset += fan_in * fan_out
    b_slices = []
    for fan_out in sizes[1:]:
        b_slices.append((offset, offset + fan_out))
        offset += fan_out
    return ParamLayout(tuple(w_slices), tuple(w_shapes), tuple(b_slices), offset)


@dataclass
class MlpModel:
    """Architecture spec plus one flat parameter vector.

    Treat instances as immutable; operations that change parameters return
    a new model built around a fresh vector.
    """

    spec: NetworkSpec
    params: np.ndarray
    layout: ParamLayout = field(repr=False)

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.ndim != 1 or self.params.shape[0] != self.layout.n_params:
            raise ShapeError(
                f"expected {self.layout.n_params} parameters, got {self.params.shape}"
            )
        if not np.all(np.isfinite(self.params)):
            raise NumericalError("parameter vector contains non-finite entries")

    def weight(self, layer: int) -> np.ndarray:
        lo, hi = self.layout.weight_slices[layer]
        return self.params[lo:hi].reshape(self.layout.weight_shapes[layer])

    def bias(self, layer: int) -> np.ndarray:
        lo, hi = self.layout.bias_slices[layer]
        return self.params[lo:hi]

    def with_params(self, params: np.ndarray) -> "MlpModel":
        return MlpModel(self.spec, np.asarray(params, dtype=np.float64), self.layout)

    def copy(self) -> "MlpModel":
        return self.with_params(self.params.copy())


@dataclass
class ForwardTrace:
    """Per-layer intermediates of one forward pass.

    activations[0] is the input vector; activations[l] feeds layer l.
    pre_activations[l] is the affine output of layer l; the last one is
    the logits vector.
    """

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray


def init_network(spec: NetworkSpec, seed: int) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic for a fixed seed."""
    layout = build_layout(spec)
    rng = np.random.default_rng(seed)
    params = np.zeros(layout.n_params)
    for layer, ((lo, hi), (fan_out, fan_in)) in enumerate(
        zip(layout.weight_slices, layout.weight_shapes)
    ):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params[lo:hi] = rng.uniform(-bound, bound, size=hi - lo)
    return MlpModel(spec, params, layout)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(
    model: MlpModel, X: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Run the net on an (n, d) batch; returns (activations, pre_activations, probs)."""
    X = np.asarray(X, dtype=np.float64)
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
        z = a @ model.weight(layer).T + model.bias(layer)
        zs.append(z)
        if layer < last:
            a = _activate(z, model.spec.activation)
            acts.append(a)
    return acts, zs, softmax(zs[-1])


def forward(model: MlpModel, x: np.ndarray) -> ForwardTrace:
    """Forward pass for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D feature vector, got shape {x.shape}")
    acts, zs, probs = _forward_batch(model, x[None, :])
    return ForwardTrace(
        pre_activations=[z[0] for z in zs],
        activations=[a[0] for a in acts],
        logits=zs[-1][0],
        probs=probs[0],
    )


def _check_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim == 0:
        y = y[None]
    y = y.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise LabelError(f"labels must lie in [0, {n_classes}), got range "
                         f"[{y.min()}, {y.max()}]")
    return y


def nll_loss(trace: ForwardTrace, y: int) -> float:
    """Negative log-likelihood of class y, computed as logsumexp - logit."""
    logits = trace.logits
    if not 0 <= int(y) < logits.shape[0]:
        raise LabelError(f"label {y} out of range for {logits.shape[0]} classes")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    return float(lse - logits[int(y)])


def _nll_batch(zs_last: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = zs_last.max(axis=1)
    lse = m + np.log(np.exp(zs_last - m[:, None]).sum(axis=1))
    return lse - zs_last[np.arange(zs_last.shape[0]), y]


def mean_nll(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy loss over a batch."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _check_labels(y, model.spec.n_classes)
    if X.shape[0] == 0:
        raise ArgumentError("batch is empty")
    _, zs, _ = _forward_batch(model, X)
    return float(_nll_batch(zs[-1], y).mean())


def _backprop_deltas(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Per-sample backprop state.

    Returns (activations, deltas, probs) where deltas[l][k] is the gradient
    of sample k's NLL with respect to layer l's pre-activation. No batch
    averaging is applied here; callers reduce as they need.
    """
    acts, zs, probs = _forward_batch(model, X)
    n = X.shape[0]
    L = model.spec.n_layers
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    deltas: list[np.ndarray] = [np.empty(0)] * L
    deltas[L - 1] = delta
    for layer in range(L - 2, -1, -1):
        upstream = deltas[layer + 1] @ model.weight(layer + 1)
        deltas[layer] = upstream * _activate_grad(zs[layer], model.spec.activation)
    return acts, deltas, probs


def grad_params(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean NLL over the batch, flat, same layout as params."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ArgumentError("batch is empty")
    y = _check_labels(y, model.spec.n_classes)
    if y.shape[0] != X.shape[0]:
        raise ShapeError(f"{X.shape[0]} samples but {y.shape[0]} labels")
    acts, deltas, _ = _backprop_deltas(model, X, y)
    n = X.shape[0]
    grad = np.zeros_like(model.params)
    for layer in range(model.spec.n_layers):
        lo, hi = model.layout.weight_slices[layer]
        grad[lo:hi] = (deltas[layer].T @ acts[layer]).ravel() / n
        lo, hi = model.layout.bias_slices[layer]
        grad[lo:hi] = deltas[layer].sum(axis=0) / n
    return grad


def grad_input(model: MlpModel, x: np.ndarray, y: int) -> np.ndarray:
    """Gradient of log p(y | x) with respect to x (log-likelihood, not loss)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D feature vector, got shape {x.shape}")
    return input_scores(model, x[None, :], np.asarray([y]))[0]


def input_scores(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample gradients of log p(y_k | x_k) w.r.t. x_k, stacked (n, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _check_labels(y, model.spec.n_classes)
    _, deltas, _ = _backprop_deltas(model, X, y)
    return -(deltas[0] @ model.weight(0))


def per_sample_grad_norms(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L2 norm of each sample's parameter-space NLL gradient.

    For a single sample the weight gradient of a linear layer is the outer
    product delta x activation, whose Frobenius norm factorizes, so norms
    come out of the batched backprop without materializing per-sample
    gradient vectors.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _check_labels(y, model.spec.n_classes)
    acts, deltas, _ = _backprop_deltas(model, X, y)
    sq = np.zeros(X.shape[0])
    for layer in range(model.spec.n_layers):
        d2 = np.einsum("ij,ij->i", deltas[layer], deltas[layer])
        a2 = np.einsum("ij,ij->i", acts[layer], acts[layer])
        sq += d2 * (a2 + 1.0)
    return np.sqrt(sq)


def fisher_diagonal(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean squared per-sample NLL gradient, per coordinate (diagonal FIM)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ArgumentError("batch is empty")
    y = _check_labels(y, model.spec.n_classes)
    acts, deltas, _ = _backprop_deltas(model, X, y)
    n = X.shape[0]
    fim = np.zeros_like(model.params)
    for layer in range(model.spec.n_layers):
        d2 = deltas[layer] ** 2
        lo, hi = model.layout.weight_slices[layer]
        fim[lo:hi] = (d2.T @ (acts[layer] ** 2)).ravel() / n
        lo, hi = model.layout.bias_slices[layer]
        fim[lo:hi] = d2.sum(axis=0) / n
    return fim


def predict_probs(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities for an (n, d) batch."""
    _, _, probs = _forward_batch(model, np.atleast_2d(np.asarray(X, dtype=np.float64)))
    return probs


def hidden_activations(model: MlpModel, X: np.ndarray) -> list[np.ndarray]:
    """Post-nonlinearity hidden-layer outputs for an (n, d) batch, per layer."""
    acts, _, _ = _forward_batch(model, np.atleast_2d(np.asarray(X, dtype=np.float64)))
    return acts[1:]


# overflow in a diverging run surfaces as non-finite parameters, which
# with_params rejects on every step
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
    (epoch_index, model) after each epoch; it observes but cannot alter
    the run. A step that makes a parameter non-finite raises NumericalError
    naming its epoch and batch step.
    """
    if lr <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {lr}")
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _check_labels(y, model.spec.n_classes)
    n = X.shape[0]
    if n == 0:
        raise ArgumentError("training split is empty")
    rng = np.random.default_rng(seed)
    current = model.copy()
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for step, start in enumerate(range(0, n, batch_size)):
            idx = perm[start : start + batch_size]
            g = grad_params(current, X[idx], y[idx])
            try:
                current = current.with_params(current.params - lr * g)
            except NumericalError as exc:
                raise NumericalError(
                    f"SGD diverged at epoch {epoch}, batch step {step}: {exc}"
                ) from exc
        if on_epoch is not None:
            on_epoch(epoch, current)
    return current
