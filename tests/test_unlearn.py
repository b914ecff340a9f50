"""Unlearning methods: stopping rules, isolation from the forget set, noise law."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinunlearn import diffnet, stein, unlearn
from steinunlearn.data import AccessLog, make_blobs, split
from steinunlearn.errors import ArgumentError, ConfigurationError, NumericalError

from conftest import expand_forget_set_oracle, random_model


@pytest.fixture(scope="module")
def trained_blobs():
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    ds = make_blobs(60, centers, std=0.8, seed=0)
    plan = split(ds, 0.2, seed=0)
    model = diffnet.init_network(diffnet.NetworkSpec((2, 16, 3)), 0)
    X, y = ds.features[plan.train_ids], ds.labels[plan.train_ids]
    model = diffnet.train(model, X, y, lr=0.05, epochs=60, batch_size=16, seed=0)
    return ds, plan, model


class TestUnlearnConfig:
    def test_reference_grad_ascent_config_accepted(self):
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=1e-4, epochs=50, overfit_threshold=5.0
        )
        assert cfg.lr == 1e-4 and cfg.epochs == 50 and cfg.overfit_threshold == 5.0

    def test_reference_fine_tune_config_accepted(self):
        cfg = unlearn.UnlearnConfig(method="fine_tune", lr=0.1, epochs=10)
        assert cfg.lr == 0.1 and cfg.epochs == 10

    def test_reference_fisher_config_accepted(self):
        cfg = unlearn.UnlearnConfig(method="fisher", alpha=1e-5)
        assert cfg.alpha == 1e-5

    def test_reference_retrain_config_accepted(self):
        cfg = unlearn.UnlearnConfig(method="retrain", lr=0.01, epochs=100)
        assert cfg.lr == 0.01 and cfg.epochs == 100

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            unlearn.UnlearnConfig(method="distill", lr=0.1, epochs=1)

    def test_missing_lr_rejected(self):
        with pytest.raises(ConfigurationError):
            unlearn.UnlearnConfig(method="fine_tune", epochs=3)


class TestGradAscent:
    def test_zero_threshold_takes_zero_steps(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=0.01, epochs=50, overfit_threshold=0.0
        )
        out = unlearn.grad_ascent(model, ds, plan.with_forget(plan.train_ids[:1]), cfg)
        assert out.steps_taken == 0
        assert np.array_equal(out.unlearned.params, model.params)

    def test_loss_monotone_at_small_lr(self, trained_blobs):
        ds, plan, model = trained_blobs
        target = plan.train_ids[:1]
        moved = plan.with_forget(target)
        X, y = ds.features[target], ds.labels[target]
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=1e-5, epochs=40, overfit_threshold=1e9
        )
        current = model
        losses = [diffnet.forward(current, X).nll(y).mean()]
        one = unlearn.UnlearnConfig(
            method="grad_ascent", lr=1e-5, epochs=1, overfit_threshold=1e9
        )
        for _ in range(40):
            current = unlearn.grad_ascent(current, ds, moved, one).unlearned
            losses.append(diffnet.forward(current, X).nll(y).mean())
        diffs = np.diff(losses)
        assert np.all(diffs >= 0)

    def test_stops_at_threshold(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=0.05, epochs=500, overfit_threshold=2.0
        )
        out = unlearn.grad_ascent(model, ds, plan.with_forget(plan.train_ids[:1]), cfg)
        X, y = ds.features[plan.train_ids[:1]], ds.labels[plan.train_ids[:1]]
        final = diffnet.forward(out.unlearned, X).nll(y).mean()
        assert final >= 2.0 or out.steps_taken == 500

    def test_empty_forget_rejected(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=0.01, epochs=1, overfit_threshold=5.0
        )
        with pytest.raises(ArgumentError):
            unlearn.grad_ascent(model, ds, plan, cfg)

    def test_deterministic(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=0.02, epochs=30, overfit_threshold=5.0
        )
        a = unlearn.grad_ascent(model, ds, plan.with_forget(plan.train_ids[:2]), cfg)
        b = unlearn.grad_ascent(model, ds, plan.with_forget(plan.train_ids[:2]), cfg)
        assert np.array_equal(a.unlearned.params, b.unlearned.params)
        assert a.steps_taken == b.steps_taken

    def test_divergence_reports_last_finite_step(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=1e12, epochs=200, overfit_threshold=1e308
        )
        text = "gradient ascent diverged to a non-finite loss; last finite step was 13"
        with pytest.raises(NumericalError, match=f"^{re.escape(text)}$"):
            unlearn.grad_ascent(model, ds, plan.with_forget(plan.train_ids[:1]), cfg)

    def test_overflowing_step_reports_non_finite_parameters(self):
        # a zero model at loss log 2 whose weight gradient is about +-2.46, so
        # the first step of lr 1e308 overflows the parameters
        ds = make_blobs(5, np.array([[0.0], [10.0]]), std=0.5, seed=0)
        plan = split(ds, 0.2, seed=0)
        model = diffnet.MlpModel(diffnet.NetworkSpec((1, 2)), np.zeros(4))
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=1e308, epochs=5, overfit_threshold=1e308
        )
        text = ("gradient ascent diverged to non-finite parameters; "
                "last finite step was 0")
        with pytest.raises(NumericalError, match=f"^{re.escape(text)}$"):
            unlearn.grad_ascent(model, ds, plan.with_forget(plan.train_ids), cfg)

    @pytest.mark.parametrize("epochs", [0, 1, 8])
    def test_builds_one_model_for_any_step_count(self, trained_blobs, models_built,
                                                  epochs):
        # one working copy, stepped in place: no model per ascent step
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=1e-3, epochs=epochs, overfit_threshold=1e9
        )
        forget = plan.with_forget(plan.train_ids[:2])
        built, out = models_built(lambda: unlearn.grad_ascent(model, ds, forget, cfg))
        assert built == 1
        assert out.steps_taken == epochs

    def test_leaves_input_model_unchanged(self, trained_blobs):
        ds, plan, model = trained_blobs
        before = model.params.copy()
        cfg = unlearn.UnlearnConfig(
            method="grad_ascent", lr=0.05, epochs=10, overfit_threshold=1e9
        )
        out = unlearn.grad_ascent(model, ds, plan.with_forget(plan.train_ids[:2]), cfg)
        assert out.steps_taken == 10
        assert np.array_equal(model.params, before)
        assert not np.shares_memory(out.unlearned.params, model.params)


class TestFineTune:
    def test_zero_epochs_identity(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(method="fine_tune", lr=0.1, epochs=0)
        out = unlearn.fine_tune(model, ds, plan, cfg)
        assert np.array_equal(out.unlearned.params, model.params)

    def test_never_reads_forget_samples(self, trained_blobs):
        ds, plan, model = trained_blobs
        forget = plan.train_ids[:3]
        moved = plan.with_forget(forget)
        ds.access_log = AccessLog()
        try:
            cfg = unlearn.UnlearnConfig(method="fine_tune", lr=0.05, epochs=2,
                                        batch_size=16)
            unlearn.fine_tune(model, ds, moved, cfg)
            assert all(ds.access_log.count(f) == 0 for f in forget)
        finally:
            ds.access_log = None

    def test_retain_accuracy_preserved(self, trained_blobs):
        ds, plan, model = trained_blobs
        moved = plan.with_forget(plan.train_ids[:1])
        X, y = ds.features[moved.retain_ids], ds.labels[moved.retain_ids]
        before = float(
            (diffnet.forward(model, X).probs.argmax(1) == y).mean()
        )
        cfg = unlearn.UnlearnConfig(method="fine_tune", lr=0.05, epochs=5,
                                    batch_size=16, seed=1)
        out = unlearn.fine_tune(model, ds, moved, cfg)
        after = float(
            (diffnet.forward(out.unlearned, X).probs.argmax(1) == y).mean()
        )
        assert after >= before - 0.02

    def test_deterministic(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(method="fine_tune", lr=0.05, epochs=3,
                                    batch_size=8, seed=5)
        a = unlearn.fine_tune(model, ds, plan, cfg)
        b = unlearn.fine_tune(model, ds, plan, cfg)
        assert np.array_equal(a.unlearned.params, b.unlearned.params)


class TestFisherForget:
    def test_zero_alpha_identity(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(method="fisher", alpha=0.0, seed=3)
        out = unlearn.fisher_forget(model, ds, plan, cfg)
        assert np.array_equal(out.unlearned.params, model.params)

    def test_sigma_monotone_in_importance(self, trained_blobs):
        ds, plan, model = trained_blobs
        X, y = ds.features[plan.retain_ids], ds.labels[plan.retain_ids]
        fim = diffnet.fisher_diagonal(model, X, y)
        sigma = np.sqrt(1e-5 / (fim + unlearn.FISHER_DAMPING))
        order = np.argsort(fim)
        assert np.all(np.diff(sigma[order]) <= 0)

    def test_fisher_diagonal_matches_per_sample_loop(self):
        # oracle: mean of squared single-sample gradients, one backprop each
        rng = np.random.default_rng(3)
        model = random_model(rng, (2, 4, 3), activation="tanh")
        X = rng.uniform(-1, 1, (7, 2))
        y = rng.integers(0, 3, 7)
        fast = diffnet.fisher_diagonal(model, X, y)
        slow = np.zeros_like(model.params)
        for i in range(7):
            g = diffnet.grad_params(model, X[i : i + 1], y[i : i + 1])
            slow += g * g
        slow /= 7
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-15)

    def test_seeded_noise_reproducible(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(method="fisher", alpha=1e-5, seed=11)
        a = unlearn.fisher_forget(model, ds, plan, cfg)
        b = unlearn.fisher_forget(model, ds, plan, cfg)
        assert np.array_equal(a.unlearned.params, b.unlearned.params)

    def test_noise_std_matches_law(self, trained_blobs):
        # empirical per-coordinate std over 1000 seeded draws within 10% of sigma
        ds, plan, model = trained_blobs
        X, y = ds.features[plan.retain_ids], ds.labels[plan.retain_ids]
        fim = diffnet.fisher_diagonal(model, X, y)
        sigma = np.sqrt(1e-4 / (fim + unlearn.FISHER_DAMPING))
        draws = np.empty((1000, model.params.shape[0]))
        for s in range(1000):
            cfg = unlearn.UnlearnConfig(method="fisher", alpha=1e-4, seed=s)
            draws[s] = (
                unlearn.fisher_forget(model, ds, plan, cfg).unlearned.params
                - model.params
            )
        empirical = draws.std(axis=0)
        # spot-check a subset of coordinates to keep the assertion readable
        idx = np.linspace(0, sigma.size - 1, 25).astype(int)
        assert np.all(np.abs(empirical[idx] - sigma[idx]) <= 0.10 * sigma[idx])


class TestRetrain:
    def test_empty_forget_same_seed_reproduces_original(self, trained_blobs):
        ds, plan, model = trained_blobs
        cfg = unlearn.UnlearnConfig(
            method="retrain", lr=0.05, epochs=60, batch_size=16, seed=0
        )
        out = unlearn.retrain(model, ds, plan, cfg)
        assert np.array_equal(out.unlearned.params, model.params)

    def test_never_reads_forget_samples(self, trained_blobs):
        ds, plan, model = trained_blobs
        forget = plan.train_ids[:4]
        moved = plan.with_forget(forget)
        ds.access_log = AccessLog()
        try:
            cfg = unlearn.UnlearnConfig(
                method="retrain", lr=0.05, epochs=2, batch_size=16, seed=0
            )
            unlearn.retrain(model, ds, moved, cfg)
            assert all(ds.access_log.count(f) == 0 for f in forget)
        finally:
            ds.access_log = None


class TestExpandForgetSet:
    def _matrix(self, values, ids=None):
        values = np.asarray(values, dtype=np.float64)
        ids = np.arange(values.shape[0]) if ids is None else np.asarray(ids)
        return stein.SteinKernelMatrix(values, ids)

    def test_k_zero_is_target_alone(self):
        m = self._matrix([[9.0, 1.0], [1.0, 9.0]])
        assert np.array_equal(unlearn.expand_forget_set(0, m.neighbours(0), 0), [0])

    def test_k_max_is_everything(self):
        m = self._matrix([[9.0, 1.0, 2.0], [1.0, 9.0, 3.0], [2.0, 3.0, 9.0]])
        assert np.array_equal(unlearn.expand_forget_set(1, m.neighbours(1), 2), [0, 1, 2])

    def test_selects_largest_kernel_values(self):
        vals = np.array([
            [9.0, 5.0, 1.0, 5.0],
            [5.0, 9.0, 0.0, 0.0],
            [1.0, 0.0, 9.0, 0.0],
            [5.0, 0.0, 0.0, 9.0],
        ])
        m = self._matrix(vals)
        assert np.array_equal(unlearn.expand_forget_set(0, m.neighbours(0), 2), [0, 1, 3])

    def test_ties_break_toward_smaller_id(self):
        vals = np.array([
            [9.0, 5.0, 5.0, 1.0],
            [5.0, 9.0, 0.0, 0.0],
            [5.0, 0.0, 9.0, 0.0],
            [1.0, 0.0, 0.0, 9.0],
        ])
        m = self._matrix(vals)
        assert np.array_equal(unlearn.expand_forget_set(0, m.neighbours(0), 1), [0, 1])

    def test_k_out_of_range(self):
        m = self._matrix([[9.0, 1.0], [1.0, 9.0]])
        with pytest.raises(ArgumentError):
            unlearn.expand_forget_set(0, m.neighbours(0), 2)

    def test_nontrivial_ids(self):
        vals = np.array([[9.0, 2.0], [2.0, 9.0]])
        m = self._matrix(vals, ids=[100, 200])
        assert np.array_equal(unlearn.expand_forget_set(200, m.neighbours(200), 1),
                              [100, 200])


@st.composite
def tied_kernels(draw):
    """A symmetric matrix over non-contiguous, shuffled ids whose entries come
    from a few values, so that most rows hold ties."""
    n = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    levels = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(levels) - 1),
                          min_size=n * n, max_size=n * n))
    values = np.asarray(levels)[picks].reshape(n, n)
    values = np.triu(values, 1) + np.triu(values, 1).T
    np.fill_diagonal(values, 9.0)
    return stein.SteinKernelMatrix(values, np.asarray(ids, dtype=np.int64))


class TestNeighboursMatchKernelOracle:
    @given(m=tied_kernels())
    @settings(max_examples=200, deadline=None)
    def test_every_target_and_k(self, m):
        for target in m.sample_ids.tolist():
            neighbours = m.neighbours(target)
            for k in range(m.n):
                got = unlearn.expand_forget_set(target, neighbours, k)
                want = expand_forget_set_oracle(target, m, k)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            for k in (-1, m.n):
                with pytest.raises(ArgumentError) as got_exc:
                    unlearn.expand_forget_set(target, neighbours, k)
                with pytest.raises(ArgumentError) as want_exc:
                    expand_forget_set_oracle(target, m, k)
                assert str(got_exc.value) == str(want_exc.value)

    def test_unknown_id_names_the_id(self):
        m = stein.SteinKernelMatrix(np.array([[9.0, 2.0], [2.0, 9.0]]),
                                    np.array([100, 200]))
        with pytest.raises(ArgumentError, match="^sample id 150 not in kernel matrix$"):
            m.neighbours(150)
