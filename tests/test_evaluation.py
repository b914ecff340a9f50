"""Accuracy, model distances, the MIA threshold attack, and the verdict."""

import numpy as np
import pytest

from steinunlearn import diffnet, evaluation
from steinunlearn.errors import ArgumentError, ComparisonError
from steinunlearn.unlearn import UnlearnOutcome

from conftest import random_model


def _zero_model(sizes):
    spec = diffnet.NetworkSpec(tuple(sizes))
    layout = diffnet.build_layout(spec)
    return diffnet.MlpModel(spec, np.zeros(layout.n_params), layout)


class TestAccuracy:
    def test_perfect_predictions(self):
        # identity-ish linear model: class = sign of feature
        spec = diffnet.NetworkSpec((1, 2))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.array([-5.0, 5.0, 0.0, 0.0]), layout)
        X = np.array([[-1.0], [1.0], [2.0], [-3.0]])
        y = np.array([0, 1, 1, 0])
        assert evaluation.accuracy(diffnet.predict_probs(model, X), y) == 1.0

    def test_one_in_five(self):
        spec = diffnet.NetworkSpec((1, 2))
        layout = diffnet.build_layout(spec)
        model = diffnet.MlpModel(spec, np.array([5.0, -5.0, 0.0, 0.0]), layout)
        X = np.ones((5, 1))
        y = np.array([0, 1, 1, 1, 1])  # model always predicts 0
        probs = diffnet.predict_probs(model, X)
        assert evaluation.accuracy(probs, y) == pytest.approx(0.2)

    def test_constant_logits_balanced_split(self):
        model = _zero_model((2, 4, 3))  # argmax ties -> always class 0
        X = np.random.default_rng(0).normal(size=(300, 2))
        y = np.tile(np.array([0, 1, 2]), 100)
        probs = diffnet.predict_probs(model, X)
        assert evaluation.accuracy(probs, y) == pytest.approx(1.0 / 3)

    def test_error_fraction_complement(self, rng):
        model = random_model(rng, (2, 4, 3))
        X = rng.normal(size=(50, 2))
        y = rng.integers(0, 3, 50)
        acc = evaluation.accuracy(diffnet.predict_probs(model, X), y)
        preds = diffnet.predict_probs(model, X).argmax(axis=1)
        err = float((preds != y).mean())
        assert acc + err == 1.0

    def test_empty_split_rejected(self, rng):
        model = random_model(rng, (2, 3))
        with pytest.raises(ArgumentError):
            evaluation.accuracy(diffnet.predict_probs(model, np.empty((0, 2))),
                                np.empty(0, dtype=int))


class TestLayerwiseDistance:
    def test_identical_models_zero(self, rng):
        model = random_model(rng, (2, 4, 3))
        d = evaluation.layerwise_distance(model, model.copy())
        assert np.all(d.per_layer == 0.0)
        assert d.total == 0.0

    def test_single_bias_perturbation(self, rng):
        model = random_model(rng, (2, 4, 3))
        perturbed = model.copy()
        lo, _ = perturbed.layout.bias_slices[1]
        new_params = perturbed.params.copy()
        new_params[lo] += 3.0
        perturbed = model.with_params(new_params)
        d = evaluation.layerwise_distance(model, perturbed)
        assert d.per_layer[0] == 0.0
        assert d.per_layer[1] == pytest.approx(3.0)
        assert d.total == pytest.approx(3.0)

    def test_symmetry(self, rng):
        a = random_model(rng, (2, 4, 3))
        b = a.with_params(a.params + rng.normal(size=a.params.shape))
        da = evaluation.layerwise_distance(a, b)
        db = evaluation.layerwise_distance(b, a)
        assert np.allclose(da.per_layer, db.per_layer)
        assert da.total == db.total

    def test_spec_mismatch(self, rng):
        with pytest.raises(ComparisonError):
            evaluation.layerwise_distance(
                random_model(rng, (2, 4, 3)), random_model(rng, (2, 5, 3))
            )

    def test_zero_total_iff_identical(self, rng):
        a = random_model(rng, (2, 4, 3))
        b = a.with_params(a.params.copy())
        assert evaluation.layerwise_distance(a, b).total == 0.0
        nudged = a.params.copy()
        nudged[5] = np.nextafter(nudged[5], np.inf)
        c = a.with_params(nudged)
        assert not np.array_equal(a.params, c.params)
        assert evaluation.layerwise_distance(a, c).total > 0.0


def _activation_distance(a, b, probe):
    return evaluation.activation_distance(
        diffnet.forward(a, probe).hidden, diffnet.forward(b, probe).hidden
    )


class TestActivationDistance:
    def test_identical_models_zero(self, rng):
        model = random_model(rng, (2, 4, 3))
        probe = rng.normal(size=(10, 2))
        assert _activation_distance(model, model.copy(), probe) == 0.0

    def test_nonnegative_finite(self, rng):
        a = random_model(rng, (2, 4, 3))
        b = random_model(rng, (2, 4, 3))
        probe = rng.normal(size=(10, 2))
        d = _activation_distance(a, b, probe)
        assert np.isfinite(d) and d >= 0.0

    def test_final_layer_change_invisible(self, rng):
        # doubling an output-layer weight leaves hidden activations alone
        model = random_model(rng, (2, 4, 3))
        lo, hi = model.layout.weight_slices[-1]
        new_params = model.params.copy()
        new_params[lo:hi] *= 2.0
        changed = model.with_params(new_params)
        probe = rng.normal(size=(8, 2))
        assert _activation_distance(model, changed, probe) == 0.0


def _mia_efficacy(model, forget, member_cal, nonmember_cal):
    def conf(X, y):
        return diffnet.predict_probs(model, X)[np.arange(y.shape[0]), y]

    return evaluation.mia_efficacy(conf(*forget), conf(*member_cal),
                                   conf(*nonmember_cal))


def _linear_conf_model(weight):
    """1 feature, 2 classes: confidence in class 0 rises with weight * x."""
    spec = diffnet.NetworkSpec((1, 2))
    layout = diffnet.build_layout(spec)
    return diffnet.MlpModel(spec, np.array([weight, -weight, 0.0, 0.0]), layout)


class TestMiaEfficacy:
    def test_perfectly_separable_attack(self):
        # members: x=+5 (confidence ~1), non-members: x=-5 (confidence ~0)
        model = _linear_conf_model(5.0)
        members = (np.full((10, 1), 5.0), np.zeros(10, dtype=int))
        nonmembers = (np.full((10, 1), -5.0), np.zeros(10, dtype=int))
        forget = (np.full((4, 1), -5.0), np.zeros(4, dtype=int))
        assert _mia_efficacy(model, forget, members, nonmembers) == 1.0

    def test_forget_above_every_calibration_value(self):
        model = _linear_conf_model(5.0)
        members = (np.full((10, 1), 1.0), np.zeros(10, dtype=int))
        nonmembers = (np.full((10, 1), -1.0), np.zeros(10, dtype=int))
        forget = (np.full((4, 1), 3.0), np.zeros(4, dtype=int))
        assert _mia_efficacy(model, forget, members, nonmembers) == 0.0

    def test_duplication_invariance(self, rng):
        model = _linear_conf_model(2.0)
        mx = rng.normal(size=(20, 1)) + 0.5
        nx = rng.normal(size=(20, 1)) - 0.5
        fx = rng.normal(size=(6, 1))
        my, ny, fy = (np.zeros(20, dtype=int), np.zeros(20, dtype=int),
                      np.zeros(6, dtype=int))
        base = _mia_efficacy(model, (fx, fy), (mx, my), (nx, ny))
        doubled = _mia_efficacy(
            model, (fx, fy),
            (np.vstack([mx, mx]), np.concatenate([my, my])),
            (np.vstack([nx, nx]), np.concatenate([ny, ny])),
        )
        assert base == doubled

    def test_in_unit_interval(self, rng):
        model = _linear_conf_model(1.0)
        mk = lambda n, mu: (rng.normal(size=(n, 1)) + mu, np.zeros(n, dtype=int))
        e = _mia_efficacy(model, mk(7, 0.0), mk(15, 1.0), mk(15, -1.0))
        assert 0.0 <= e <= 1.0

    def test_empty_calibration_rejected(self):
        model = _linear_conf_model(1.0)
        ok = (np.ones((3, 1)), np.zeros(3, dtype=int))
        empty = (np.empty((0, 1)), np.empty(0, dtype=int))
        with pytest.raises(ArgumentError):
            _mia_efficacy(model, ok, empty, ok)


class TestVerdict:
    def _splits(self, rng, model):
        X = rng.normal(size=(40, 1)) * 3
        preds = diffnet.predict_probs(model, X).argmax(axis=1)
        return X, preds

    def test_unchanged_model_fails(self, rng):
        model = _linear_conf_model(5.0)
        X, preds = self._splits(rng, model)
        outcome = UnlearnOutcome(model.copy(), 0, 0.0)
        report = evaluation.verdict(
            model, outcome,
            forget=(X[:2], preds[:2]),   # still classified correctly
            retain=(X[2:20], preds[2:20]),
            test=(X[20:], preds[20:]),
            epsilon=0.05,
        )
        assert report.forget_acc == 1.0
        assert not report.success

    def test_flip_with_small_test_drop_succeeds(self, rng):
        original = _linear_conf_model(5.0)
        flipped = _linear_conf_model(-5.0)  # predicts the other class everywhere
        X, preds = self._splits(rng, original)
        outcome = UnlearnOutcome(flipped, 3, 0.0)
        report = evaluation.verdict(
            original, outcome,
            forget=(X[:2], preds[:2]),
            retain=(X[2:20], preds[2:20]),
            test=(X[20:], 1 - preds[20:]),  # flipped model aces this test set
            epsilon=0.05,
        )
        assert report.forget_acc == 0.0
        assert report.test_acc_original == 0.0  # original gets flipped labels wrong
        assert report.success  # no drop relative to original

    def test_flip_with_large_test_drop_fails(self, rng):
        original = _linear_conf_model(5.0)
        flipped = _linear_conf_model(-5.0)
        X, preds = self._splits(rng, original)
        outcome = UnlearnOutcome(flipped, 3, 0.0)
        report = evaluation.verdict(
            original, outcome,
            forget=(X[:2], preds[:2]),
            retain=(X[2:20], preds[2:20]),
            test=(X[20:], preds[20:]),  # flipped model scores 0 here
            epsilon=0.05,
        )
        assert report.forget_acc == 0.0
        assert report.test_acc == 0.0
        assert not report.success

    def test_monotone_in_epsilon(self, rng):
        original = _linear_conf_model(5.0)
        flipped = _linear_conf_model(-5.0)
        X, preds = self._splits(rng, original)
        outcome = UnlearnOutcome(flipped, 3, 0.0)
        successes = []
        for eps in (0.0, 0.5, 1.0):
            report = evaluation.verdict(
                original, outcome,
                forget=(X[:2], preds[:2]),
                retain=(X[2:20], preds[2:20]),
                test=(X[20:], preds[20:]),
                epsilon=eps,
            )
            successes.append(report.success)
        # once successful, larger epsilon keeps it successful
        for earlier, later in zip(successes, successes[1:]):
            assert later or not earlier
