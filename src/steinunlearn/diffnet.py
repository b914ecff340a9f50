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
        z = a @ model.weight(layer).T + model.bias(layer)
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


def mean_nll(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy loss over a batch."""
    return float(forward(model, X).nll(y).mean())


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
        upstream = deltas[layer + 1] @ model.weight(layer + 1)
        deltas[layer] = upstream * _activate_grad(
            trace.pre_activations[layer], model.spec.activation
        )
    return trace, deltas


def _batch_mean(
    model: MlpModel, deltas: list[np.ndarray], acts: list[np.ndarray]
) -> np.ndarray:
    """Flat batch mean of delta x activation per weight and of delta per bias."""
    n = acts[0].shape[0]
    out = np.zeros_like(model.params)
    for layer in range(model.spec.n_layers):
        lo, hi = model.layout.weight_slices[layer]
        out[lo:hi] = (deltas[layer].T @ acts[layer]).ravel() / n
        lo, hi = model.layout.bias_slices[layer]
        out[lo:hi] = deltas[layer].sum(axis=0) / n
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


def input_scores(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample gradients of log p(y_k | x_k) w.r.t. x_k, stacked (n, d)."""
    _, deltas = _backprop(model, X, y)
    return -(deltas[0] @ model.weight(0))


def per_sample_grad_norms(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L2 norm of each sample's parameter-space NLL gradient.

    For a single sample the weight gradient of a linear layer is the outer
    product delta x activation, whose Frobenius norm factorizes, so norms
    come out of the batched backprop without materializing per-sample
    gradient vectors.
    """
    trace, deltas = _backprop(model, X, y)
    sq = np.zeros(trace.probs.shape[0])
    for layer in range(model.spec.n_layers):
        acts = trace.activations[layer]
        d2 = np.einsum("ij,ij->i", deltas[layer], deltas[layer])
        a2 = np.einsum("ij,ij->i", acts, acts)
        sq += d2 * (a2 + 1.0)
    return np.sqrt(sq)


def fisher_diagonal(model: MlpModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean squared per-sample NLL gradient, per coordinate (diagonal FIM)."""
    trace, deltas = _backprop(model, X, y)
    return _batch_mean(
        model, [d ** 2 for d in deltas], [a ** 2 for a in trace.activations]
    )


def predict_probs(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities for an (n, d) batch."""
    return forward(model, X).probs


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
    y = _check_labels(y, model.spec.n_classes, X.shape[0])
    n = X.shape[0]
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
