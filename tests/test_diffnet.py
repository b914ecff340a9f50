"""Network engine: initialization, forward, losses, gradients, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinunlearn import diffnet
from steinunlearn.data import make_blobs
from steinunlearn.errors import (
    ConfigurationError, LabelError, NumericalError, ShapeError,
)

from conftest import fd_grad_input, fd_grad_params, random_model, rel_close


class TestNetworkSpec:
    def test_rejects_single_layer(self):
        with pytest.raises(ConfigurationError):
            diffnet.NetworkSpec((4,))

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            diffnet.NetworkSpec((2, 0, 3))

    def test_rejects_single_class_output(self):
        with pytest.raises(ConfigurationError):
            diffnet.NetworkSpec((2, 4, 1))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            diffnet.NetworkSpec((2, 3), activation="sigmoid")


class TestInit:
    def test_param_count(self):
        model = diffnet.init_network(diffnet.NetworkSpec((2, 4, 3)), 7)
        assert model.params.shape == (27,)  # 2*4+4 + 4*3+3

    def test_deterministic(self):
        spec = diffnet.NetworkSpec((2, 4, 3))
        a = diffnet.init_network(spec, 7)
        b = diffnet.init_network(spec, 7)
        assert np.array_equal(a.params, b.params)

    def test_weights_within_fan_bound(self):
        # every layer's weights obey the uniform bound sqrt(6 / (fan_in + fan_out))
        model = diffnet.init_network(diffnet.NetworkSpec((2, 4, 3)), 7)
        for layer, (fan_out, fan_in) in enumerate(model.layout.weight_shapes):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = model.weight(layer)
            assert np.all(np.abs(w) < bound)
        assert np.sqrt(6.0 / 6.0) == 1.0  # first layer of [2,4,3]

    def test_biases_zero(self):
        model = diffnet.init_network(diffnet.NetworkSpec((3, 5, 2)), 0)
        for layer in range(model.spec.n_layers):
            assert np.all(model.bias(layer) == 0.0)


class TestForward:
    def test_zero_params_uniform_probs(self):
        spec = diffnet.NetworkSpec((2, 4, 3))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.zeros(layout.n_params), layout)
        trace = diffnet.forward(model, np.array([3.0, -1.0])[None])
        assert np.allclose(trace.probs, 1.0 / 3.0)

    def test_stable_softmax_no_overflow(self):
        # linear net producing logits (1000, 0)
        spec = diffnet.NetworkSpec((1, 2))
        layout = diffnet.build_layout(spec)
        params = np.array([1000.0, 0.0, 0.0, 0.0])  # W=[[1000],[0]], b=0
        model = diffnet.MlpModel(spec, params, layout)
        probs = diffnet.forward(model, np.array([1.0])[None]).probs[0]
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-300)

    def test_dimension_mismatch(self, rng):
        model = random_model(rng, (2, 4, 3))
        with pytest.raises(ShapeError):
            diffnet.forward(model, np.array([1.0, 2.0, 3.0])[None])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_probs_sum_to_one_and_positive(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, (3, 5, 4), activation="relu")
        probs = diffnet.forward(model, rng.normal(size=3)[None]).probs[0]
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs > 0.0)


class TestNllLoss:
    def test_uniform_probs(self):
        spec = diffnet.NetworkSpec((2, 4))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.zeros(layout.n_params), layout)
        trace = diffnet.forward(model, np.array([1.0, 2.0])[None])
        assert trace.nll([2])[0] == pytest.approx(np.log(4.0), rel=1e-12)

    def test_confident_prediction_near_zero(self):
        spec = diffnet.NetworkSpec((1, 2))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.array([50.0, -50.0, 0.0, 0.0]), layout)
        trace = diffnet.forward(model, np.array([1.0])[None])
        assert trace.nll([0])[0] < 1e-20

    def test_two_class_scalar_value(self):
        # logits (2, 0), y=0 -> log(1 + e^-2)
        spec = diffnet.NetworkSpec((1, 2))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.array([2.0, 0.0, 0.0, 0.0]), layout)
        trace = diffnet.forward(model, np.array([1.0])[None])
        assert trace.nll([0])[0] == pytest.approx(
            0.12692801104297249, rel=1e-12
        )

    def test_label_out_of_range(self, rng):
        model = random_model(rng, (2, 3))
        trace = diffnet.forward(model, np.array([0.1, 0.2])[None])
        with pytest.raises(LabelError):
            trace.nll([3])


class TestGradParams:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            sizes = [(2, 3), (2, 4, 3), (3, 5, 4, 2)][trial % 3]
            model = random_model(rng, sizes, activation="tanh")
            X = rng.uniform(-1, 1, (1, sizes[0]))
            y = np.array([rng.integers(sizes[-1])])
            g = diffnet.grad_params(model, X, y)
            fd = fd_grad_params(model, X, y)
            assert rel_close(g, fd, 1e-4, floor=1e-3), f"trial {trial}"

    def test_zero_gradient_at_certainty(self):
        # logits so extreme that probs[y] == 1.0 in float64
        spec = diffnet.NetworkSpec((1, 2))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.array([800.0, 0.0, 0.0, 0.0]), layout)
        g = diffnet.grad_params(model, np.array([[1.0]]), np.array([0]))
        assert np.all(g == 0.0)

    def test_duplicated_batch_equals_single(self, rng):
        model = random_model(rng, (2, 4, 3))
        x = rng.normal(size=2)
        single = diffnet.grad_params(model, x[None, :], np.array([1]))
        doubled = diffnet.grad_params(
            model, np.stack([x, x]), np.array([1, 1])
        )
        assert np.allclose(single, doubled, rtol=1e-14, atol=1e-16)

    def test_empty_batch_rejected(self, rng):
        from steinunlearn.errors import ArgumentError

        model = random_model(rng, (2, 3))
        with pytest.raises(ArgumentError):
            diffnet.grad_params(model, np.empty((0, 2)), np.empty(0, dtype=int))


class TestGradInput:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            sizes = [(2, 3), (3, 4, 3), (2, 5, 5, 2)][trial % 3]
            model = random_model(rng, sizes, activation="tanh")
            x = rng.uniform(-1, 1, sizes[0])
            y = int(rng.integers(sizes[-1]))
            g = diffnet.input_scores(model, x[None], [y])[0]
            fd = fd_grad_input(model, x, y)
            assert rel_close(g, fd, 1e-4, floor=1e-3), f"trial {trial}"

    def test_linear_model_analytic(self, rng):
        # no hidden layer: grad of log p(y|x) w.r.t. x is (e_y - probs) @ W
        spec = diffnet.NetworkSpec((3, 4))
        layout = diffnet.build_layout(spec)
        params = rng.uniform(-1, 1, layout.n_params)
        model = diffnet.MlpModel(spec, params, layout)
        x = rng.normal(size=3)
        y = 2
        trace = diffnet.forward(model, x[None])
        e_y = np.zeros(4)
        e_y[y] = 1.0
        expected = (e_y - trace.probs[0]) @ model.weight(0)
        assert np.allclose(diffnet.input_scores(model, x[None], [y])[0], expected,
                           rtol=1e-12)

    def test_zero_at_certainty(self):
        spec = diffnet.NetworkSpec((1, 2))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.array([800.0, 0.0, 0.0, 0.0]), layout)
        assert np.all(diffnet.input_scores(model, np.array([[1.0]]), [0])[0] == 0.0)


class TestTrain:
    def test_zero_epochs_identity(self, rng):
        model = random_model(rng, (2, 4, 3))
        X = rng.normal(size=(10, 2))
        y = rng.integers(0, 3, 10)
        out = diffnet.train(model, X, y, lr=0.1, epochs=0, batch_size=4, seed=0)
        assert np.array_equal(out.params, model.params)

    def test_deterministic(self, rng):
        model = random_model(rng, (2, 4, 3))
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 3, 20)
        a = diffnet.train(model, X, y, lr=0.05, epochs=5, batch_size=4, seed=3)
        b = diffnet.train(model, X, y, lr=0.05, epochs=5, batch_size=4, seed=3)
        assert np.array_equal(a.params, b.params)

    def test_nonpositive_lr_rejected(self, rng):
        model = random_model(rng, (2, 3))
        with pytest.raises(ConfigurationError):
            diffnet.train(model, np.zeros((2, 2)), np.array([0, 1]),
                          lr=0.0, epochs=1, batch_size=1, seed=0)

    def test_divergence_raises_numerical_error_naming_step(self):
        ds = make_blobs(30, np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]), 0.8, 0)
        model = diffnet.init_network(diffnet.NetworkSpec((2, 8, 3)), 0)
        with pytest.raises(NumericalError, match="epoch 0, batch step"):
            diffnet.train(model, ds.features, ds.labels, lr=1e200, epochs=3,
                          batch_size=16, seed=0)

    def test_single_step_decreases_sample_nll(self):
        # one tiny SGD step on a single sample must lower that sample's loss
        rng = np.random.default_rng(42)
        for trial in range(10):
            model = random_model(rng, (2, 4, 3), activation="tanh")
            x = rng.uniform(-1, 1, (1, 2))
            y = np.array([int(rng.integers(3))])
            before = diffnet.mean_nll(model, x, y)
            g = diffnet.grad_params(model, x, y)
            stepped = model.with_params(model.params - 1e-4 * g)
            after = diffnet.mean_nll(stepped, x, y)
            assert after < before, f"trial {trial}"

    def test_separable_blobs_reach_train_accuracy(self):
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        ds = make_blobs(200, centers, std=0.5, seed=0)
        model = diffnet.init_network(diffnet.NetworkSpec((2, 32, 32, 3)), 0)
        trained = diffnet.train(
            model, ds.features, ds.labels, lr=0.05, epochs=200, batch_size=32, seed=0
        )
        preds = diffnet.predict_probs(trained, ds.features).argmax(axis=1)
        assert (preds == ds.labels).mean() >= 0.95
