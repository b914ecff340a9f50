"""Stein kernel closed form, kernel matrices, and KSD statistics."""

import numpy as np
import pytest
from hypothesis import given, settings

from steinunlearn import diffnet, experiment, stein
from steinunlearn.config import ExperimentConfig
from steinunlearn.data import LabeledDataset, gather, make_blobs
from steinunlearn.errors import (
    ArgumentError,
    ConfigurationError,
    DataError,
    ShapeError,
)

from conftest import (
    fd_grad_params, kernel_inputs, ksd_statistic, random_model, rbf, rel_close,
    same_bits, stein_kernel, stein_kernel_matrix_oracle, traced_peak,
)
from test_golden import golden_config_dict


def fd_stein_kernel(a, b, s_a, s_b, h, step=1e-5):
    """Independent oracle: evaluate the kernel's four terms by numerically
    differentiating the base RBF kernel instead of using any closed form."""

    def k(aa, bb):
        d = aa - bb
        return np.exp(-(d @ d) / (2 * h * h))

    def e(i, d):
        v = np.zeros(d)
        v[i] = step
        return v

    d = a.shape[0]
    hessian_trace = sum(
        (k(a + e(i, d), b + e(i, d)) - k(a + e(i, d), b - e(i, d))
         - k(a - e(i, d), b + e(i, d)) + k(a - e(i, d), b - e(i, d)))
        / (4 * step * step)
        for i in range(d)
    )
    score_product = k(a, b) * float(s_a @ s_b)
    grad_a = np.array([(k(a + e(i, d), b) - k(a - e(i, d), b)) / (2 * step)
                       for i in range(d)])
    grad_b = np.array([(k(a, b + e(i, d)) - k(a, b - e(i, d))) / (2 * step)
                       for i in range(d)])
    cross = float(grad_a @ s_b) + float(grad_b @ s_a)
    return hessian_trace + score_product + cross


class TestMedianBandwidth:
    def test_three_point_median(self):
        # 1-D points {0, 1, 3}: pairwise distances {1, 2, 3}
        h = stein.median_bandwidth(np.array([[0.0], [1.0], [3.0]]))
        assert h == 2.0

    def test_duplicate_fallback(self):
        h = stein.median_bandwidth(np.array([[0.0], [0.0], [5.0]]))
        assert h == 5.0

    def test_zero_median_falls_back_to_smallest_nonzero(self):
        # six points at 0 give 15 zero distances of 28: the median is 0
        X = np.array([[0.0]] * 6 + [[7.0], [2.0]])
        assert stein.median_bandwidth(X) == 2.0

    def test_all_identical_rejected(self):
        with pytest.raises(DataError):
            stein.median_bandwidth(np.array([[1.0], [1.0], [1.0]]))

    def test_single_point_rejected(self):
        with pytest.raises(ArgumentError):
            stein.median_bandwidth(np.array([[1.0]]))

    def test_blob_sample_positive_finite(self):
        ds = make_blobs(250, np.array([[0.0, 0.0], [4.0, 4.0]]), std=1.0, seed=0)
        h = stein.median_bandwidth(ds.features)
        assert np.isfinite(h) and h > 0


class TestRbf:
    def test_identical_points(self):
        assert rbf(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.7) == 1.0

    def test_unit_exponent(self):
        # ||a-b|| = h*sqrt(2) forces exponent -1
        h = 1.3
        a = np.array([0.0])
        b = np.array([h * np.sqrt(2.0)])
        assert rbf(a, b, h) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_far_apart_vanishes(self):
        assert rbf(np.array([0.0]), np.array([1e4]), 1.0) == 0.0

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            rbf(np.array([0.0]), np.array([1.0]), 0.0)


class TestSteinKernel:
    def test_zero_scores_same_point(self):
        d, h = 3, 0.8
        z = np.zeros(d)
        a = np.array([1.0, -2.0, 0.5])
        assert stein_kernel(a, a, z, z, h) == pytest.approx(d / h**2, rel=1e-12)

    def test_diagonal_value(self):
        a = np.array([0.3, -0.7])
        s = np.array([1.5, 2.0])
        h = 1.1
        expected = float(s @ s) + 2 / h**2
        assert stein_kernel(a, a, s, s, h) == pytest.approx(expected, rel=1e-12)

    def test_swap_symmetry_bitwise(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 6))
            a, b = rng.normal(size=d), rng.normal(size=d)
            s_a, s_b = rng.normal(size=d), rng.normal(size=d)
            h = float(rng.uniform(0.5, 2.0))
            assert stein_kernel(a, b, s_a, s_b, h) == stein_kernel(
                b, a, s_b, s_a, h
            )

    def test_matches_finite_difference_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(120):
            d = [1, 2, 5][trial % 3]
            a, b = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
            s_a, s_b = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
            h = float(rng.uniform(0.5, 2.0))
            closed = stein_kernel(a, b, s_a, s_b, h)
            fd = fd_stein_kernel(a, b, s_a, s_b, h)
            assert rel_close(closed, fd, 1e-4), f"trial {trial}"

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            stein_kernel(
                np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(3), 1.0
            )


class TestScoreTable:
    def test_shapes(self, rng):
        ds = make_blobs(10, np.array([[0.0, 0.0], [4.0, 4.0]]), std=1.0, seed=0)
        model = random_model(rng, (2, 5, 2))
        table = stein.score_table(model, *gather(ds, ds.ids), ds.ids)
        assert table.input_scores.shape == (20, 2)
        assert table.param_grad_norms.shape == (20,)
        assert table.probs.shape == (20, 2)

    def test_confident_sample_zero_row(self):
        spec = diffnet.NetworkSpec((1, 2))
        model = diffnet.MlpModel(spec, np.array([800.0, 0.0, 0.0, 0.0]))
        ds = LabeledDataset(np.array([[1.0]]), np.array([0]), np.array([0]), 2)
        table = stein.score_table(model, *gather(ds, ds.ids), ds.ids)
        assert np.all(table.input_scores == 0.0)
        assert table.param_grad_norms[0] == 0.0

    def test_norms_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, (2, 4, 3), activation="tanh")
        X = rng.uniform(-1, 1, (5, 2))
        y = rng.integers(0, 3, 5)
        ds = LabeledDataset(X, y, np.arange(5), 3)
        table = stein.score_table(model, *gather(ds, ds.ids), ds.ids)
        for i in range(5):
            fd_norm = np.linalg.norm(fd_grad_params(model, X[i : i + 1], y[i : i + 1]))
            assert rel_close(table.param_grad_norms[i], fd_norm, 1e-4, floor=1e-3)


class TestKernelMatrix:
    def test_single_sample_formula(self):
        X = np.array([[1.0, 2.0]])
        S = np.array([[0.5, -0.5]])
        h = 1.5
        m = stein.stein_kernel_matrix(X, S, h)
        expected = float(S[0] @ S[0]) + 2 / h**2
        assert m.values[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_exact_symmetry_by_mirroring(self, rng):
        X = rng.normal(size=(40, 3))
        S = rng.normal(size=(40, 3))
        m = stein.stein_kernel_matrix(X, S, 1.0)
        assert np.array_equal(m.values, m.values.T)

    def test_agrees_with_scalar_kernel(self, rng):
        X = rng.normal(size=(12, 2))
        S = rng.normal(size=(12, 2))
        h = 0.9
        m = stein.stein_kernel_matrix(X, S, h)
        for i in range(12):
            for j in range(12):
                expected = stein_kernel(X[i], X[j], S[i], S[j], h)
                assert rel_close(m.values[i, j], expected, 1e-9)

    def test_permutation_equivariance(self, rng):
        X = rng.normal(size=(15, 2))
        S = rng.normal(size=(15, 2))
        m = stein.stein_kernel_matrix(X, S, 1.0)
        perm = rng.permutation(15)
        mp = stein.stein_kernel_matrix(X[perm], S[perm], 1.0)
        assert np.allclose(mp.values, m.values[np.ix_(perm, perm)], atol=1e-12)

    def test_model_pathway_matches_raw_pathway(self, rng):
        ds = make_blobs(8, np.array([[0.0, 0.0], [3.0, 3.0]]), std=1.0, seed=1)
        model = random_model(rng, (2, 4, 2))
        table = stein.score_table(model, *gather(ds, ds.ids), ds.ids)
        m = stein.stein_kernel_matrix(
            ds.features, table.input_scores, 1.2, table.sample_ids
        )
        scores = diffnet.per_sample_scores(model, ds.features, ds.labels)[0]
        raw = stein.stein_kernel_matrix(ds.features, scores, 1.2, ds.ids)
        assert np.array_equal(m.values, raw.values)
        assert np.array_equal(m.sample_ids, raw.sample_ids)


def assert_kernel_invariants(m):
    """What `SteinKernelMatrix` relies on its builder for, and what it checks."""
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) > 0)
    assert np.all(np.isfinite(m.values))


class TestKernelInvariants:
    """`stein_kernel_matrix` is exactly symmetric by construction, with a
    positive diagonal and finite entries."""

    def test_golden_config_kernel(self, monkeypatch):
        built = []
        real = stein.stein_kernel_matrix

        def spy(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(stein, "stein_kernel_matrix", spy)
        config = ExperimentConfig.from_dict(golden_config_dict())
        experiment.train_base(config, 0)
        assert len(built) == 1
        assert_kernel_invariants(built[0])

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("n", [1, 2, 3001])
    def test_random_inputs(self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        X = rng.normal(size=(n, d))
        S = rng.normal(size=(n, d))
        h = stein.median_bandwidth(X) if n > 1 else 1.0
        assert_kernel_invariants(stein.stein_kernel_matrix(X, S, h))


class TestBuildMatchesOracle:
    """`stein_kernel_matrix` gives the whole-matrix build's bits, signs of
    zero included, and its error text."""

    @given(inputs=kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_random_inputs(self, inputs):
        new = stein.stein_kernel_matrix(*inputs)
        assert same_bits(new.values, stein_kernel_matrix_oracle(*inputs).values)

    def test_far_clusters_underflow_to_positive_zero(self):
        X = np.array([[0.0, 0.0], [0.5, 0.0], [100.0, 0.0], [100.0, 0.5]])
        S = np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.4], [0.1, 0.1]])
        # across the clusters k underflows to 0 and the bracket is negative,
        # so the entry is -0.0 until the mirror adds 0.0
        assert np.signbit(stein_kernel(X[0], X[2], S[0], S[2], 1.0))
        new = stein.stein_kernel_matrix(X, S, 1.0)
        assert same_bits(new.values, stein_kernel_matrix_oracle(X, S, 1.0).values)
        across = new.values[:2, 2:]
        assert np.all(across == 0.0) and not np.any(np.signbit(across))

    def test_overflowing_scores_raise_the_same_error(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        S = np.full((3, 2), 1e200)
        with pytest.raises(DataError) as new:
            stein.stein_kernel_matrix(X, S, 1.0)
        with pytest.raises(DataError) as old:
            stein_kernel_matrix_oracle(X, S, 1.0)
        assert str(new.value) == str(old.value) == "kernel matrix contains non-finite values"


def test_build_holds_at_most_two_kernel_buffers():
    # tracemalloc sees numpy's buffers; the whole-matrix build peaks at ~7.1
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1000, 16))
    S = rng.normal(size=(1000, 16))
    h = stein.median_bandwidth(X)
    m, peak = traced_peak(lambda: stein.stein_kernel_matrix(X, S, h))
    assert peak <= 2.25 * m.values.nbytes, peak / m.values.nbytes


def test_median_bandwidth_holds_at_most_the_condensed_distances():
    # the condensed distances are half an n x n buffer; a copied median adds another
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1000, 16))
    _, peak = traced_peak(lambda: stein.median_bandwidth(X))
    assert peak <= 0.6 * 1000 * 1000 * 8, peak / (1000 * 1000 * 8)


class TestKsdStatistic:
    def test_constant_matrix(self):
        vals = np.full((4, 4), 2.5)
        m = stein.SteinKernelMatrix(vals, np.arange(4))
        assert ksd_statistic(m, "v_stat") == pytest.approx(2.5)
        assert ksd_statistic(m, "u_stat") == pytest.approx(2.5)

    def test_u_stat_needs_two_samples(self):
        m = stein.SteinKernelMatrix(np.array([[1.0]]), np.arange(1))
        with pytest.raises(ArgumentError):
            ksd_statistic(m, "u_stat")

    def test_null_hypothesis_within_monte_carlo_error(self):
        # samples from a standard Gaussian scored with the true score -x:
        # the u-statistic is zero in expectation (Stein identity)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 2))
        h = stein.median_bandwidth(X)
        m = stein.stein_kernel_matrix(X, -X, h)
        u = ksd_statistic(m, "u_stat")
        off = m.values[~np.eye(500, dtype=bool)]
        se = off.std() / np.sqrt(off.size)
        assert abs(u) <= 4 * se

    def test_mean_shift_alternative_large_and_monotone(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 2))
        h = stein.median_bandwidth(X)
        null_u = ksd_statistic(
            stein.stein_kernel_matrix(X, -X, h), "u_stat"
        )
        us = []
        for shift in (0.5, 1.0, 2.0):
            mu = np.full(2, shift)
            m = stein.stein_kernel_matrix(X, -(X - mu), h)
            us.append(ksd_statistic(m, "u_stat"))
        assert us[1] > 0
        assert us[1] > 10 * abs(null_u)
        assert us[0] < us[1] < us[2]


class TestCsvExport:
    def test_round_trippable_dump(self, tmp_path, rng):
        X = rng.normal(size=(5, 2))
        S = rng.normal(size=(5, 2))
        m = stein.stein_kernel_matrix(X, S, 1.0, np.arange(10, 15))
        path = tmp_path / "kernel.csv"
        stein.kernel_matrix_to_csv(m, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "10,11,12,13,14"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, m.values)
