"""Difficulty metrics: forced scalar values, invariances, brute-force oracle."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinunlearn import scoring, stein
from steinunlearn.errors import ArgumentError, ConfigurationError, DataError

from conftest import (
    kernel_inputs, msksd_oracle, result_or_error, same_bits,
    stein_kernel_matrix_oracle, traced_peak,
)


def _matrix(values, ids=None):
    values = np.asarray(values, dtype=np.float64)
    if ids is None:
        ids = np.arange(values.shape[0])
    return stein.SteinKernelMatrix(values, np.asarray(ids))


def _table(probs, norms=None, scores=None, ids=None):
    probs = np.asarray(probs, dtype=np.float64)
    n, _ = probs.shape
    return stein.ScoreTable(
        input_scores=np.zeros((n, 2)) if scores is None else np.asarray(scores),
        param_grad_norms=np.zeros(n) if norms is None else np.asarray(norms),
        probs=probs,
        sample_ids=np.arange(n) if ids is None else np.asarray(ids),
    )


class TestMksd:
    def test_single_entry(self):
        m = _matrix([[2.5]])
        assert scoring.mksd(m) == pytest.approx([2.5])

    def test_row_sums(self):
        m = _matrix([[1.0, 2.0], [2.0, 4.0]])
        assert scoring.mksd(m) == pytest.approx([3.0, 6.0])

    def test_permutation_equivariance(self, rng):
        vals = rng.normal(size=(6, 6))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 10.0)
        m = _matrix(vals)
        perm = rng.permutation(6)
        mp_ = _matrix(vals[np.ix_(perm, perm)], ids=np.arange(6)[perm])
        assert np.allclose(scoring.mksd(mp_), scoring.mksd(m)[perm])


def _rotations(row):
    """Kernel matrix whose rows are the rotations of `row`, and the index of
    the unrotated one. That index is the argmax, so the diagonal is max(row)."""
    row = np.asarray(row, dtype=np.float64)
    top = int(np.argmax(row))
    rows = [np.roll(row, i - top) for i in range(row.size)]
    return _matrix(np.stack(rows)), top


def _msksd_zscores(monkeypatch, m, global_standardize=False):
    """The z-scores `scoring.msksd` exponentiates for `m`."""
    seen = []
    real_exp = np.exp

    def spy(z, *args, **kwargs):
        seen.append(np.array(z))
        return real_exp(z, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", spy)
        scoring.msksd(m, global_standardize)
    (z,) = seen
    return z


class TestStandardizeRow:
    """Row standardization inside `msksd`, read off the z-scores it exponentiates."""

    def test_forced_values(self, monkeypatch):
        m, i = _rotations([1.0, 2.0, 3.0])
        z = _msksd_zscores(monkeypatch, m)[i]
        root = 1.224744871391589  # sqrt(3/2)
        assert z == pytest.approx([-root, 0.0, root], rel=1e-12)

    def test_zero_mean_unit_std(self, rng, monkeypatch):
        row = rng.normal(size=50) * 7 + 3
        m, i = _rotations(row)
        z = _msksd_zscores(monkeypatch, m)[i]
        assert abs(z.mean()) <= 1e-10
        assert abs(z.std() - 1.0) <= 1e-10

    def test_affine_invariance(self, rng, monkeypatch):
        row = rng.normal(size=20)
        m1, i = _rotations(row)
        m2, _ = _rotations(3.5 * row + 11.0)
        z1 = _msksd_zscores(monkeypatch, m1)[i]
        z2 = _msksd_zscores(monkeypatch, m2)[i]
        assert np.allclose(z1, z2, atol=1e-10)

    def test_constant_row_rejected(self):
        with pytest.raises(DataError):
            scoring.msksd(_rotations(np.full(4, 2.0))[0])


class TestMsksd:
    def test_symmetric_row_forced_value(self):
        # outer product of (1,2,3): every row standardizes to
        # (-sqrt(3/2), 0, +sqrt(3/2)); expected value frozen from mpmath
        base = np.array([1.0, 2.0, 3.0])
        m = _matrix(np.outer(base, base))
        expected = 4.697130349293591
        assert scoring.msksd(m) == pytest.approx([expected] * 3, rel=1e-12)

    def test_affine_rows_identical_scores(self):
        # row1 = 2*row0 + 5 entrywise, so both standardize identically
        m = _matrix([[1.0, 7.0, 3.0], [7.0, 19.0, 11.0], [3.0, 11.0, 2.0]])
        s = scoring.msksd(m)
        assert s[0] == pytest.approx(s[1], rel=1e-12)

    def test_right_skew_scores_higher_than_mirror(self):
        # sum of exp is convex, so a right-skewed row beats its mirror image;
        # 10 - right z-scores like -right but keeps the diagonal positive
        right = np.array([0.0, 0.0, 0.0, 0.0, 10.0])
        m_right, i = _rotations(right)
        m_left, j = _rotations(10.0 - right)
        assert scoring.msksd(m_right)[i] > scoring.msksd(m_left)[j]

    def test_degenerate_row_names_sample(self):
        m = _matrix([[1.0, 1.0], [1.0, 3.0]], ids=[41, 42])
        with pytest.raises(DataError, match="sample 41: row is constant"):
            scoring.msksd(m)

    def test_global_mode_differs_from_rowwise(self):
        vals = np.array([[1.0, 2.0, 3.0], [2.0, 40.0, 60.0], [3.0, 60.0, 90.0]])
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, [5.0, 50.0, 95.0])
        m = _matrix(vals)
        assert not np.allclose(scoring.msksd(m), scoring.msksd(m, True))

    def test_constant_matrix_rejected_in_global_mode(self):
        m = _matrix(np.full((3, 3), 2.0))
        with pytest.raises(DataError, match="kernel matrix is constant"):
            scoring.msksd(m, True)

    @pytest.mark.parametrize("global_standardize", [False, True])
    def test_single_sample_rejected(self, global_standardize):
        with pytest.raises(ArgumentError, match="at least 2 values"):
            scoring.msksd(_matrix([[2.5]]), global_standardize)


class TestMsksdMatchesOracle:
    """`msksd` gives the whole-matrix version's bits and error texts in both modes."""

    @staticmethod
    def assert_same(m, global_standardize):
        new = result_or_error(scoring.msksd, m, global_standardize)
        old = result_or_error(msksd_oracle, m, global_standardize)
        assert type(new) is type(old)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert same_bits(new, old)

    @given(inputs=kernel_inputs(), global_standardize=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_kernels(self, inputs, global_standardize):
        self.assert_same(stein_kernel_matrix_oracle(*inputs), global_standardize)

    @pytest.mark.parametrize("global_standardize", [False, True])
    @pytest.mark.parametrize("values", [
        pytest.param([[1.0, 1.0, 1.0], [1.0, 3.0, 2.0], [1.0, 2.0, 4.0]], id="constant-row"),
        pytest.param(np.full((3, 3), 2.0), id="constant-matrix"),
        pytest.param([[2.5]], id="single-sample"),
    ])
    def test_degenerate_kernels(self, values, global_standardize):
        self.assert_same(_matrix(values, ids=np.arange(40, 40 + len(values))),
                         global_standardize)


@pytest.mark.parametrize("global_standardize", [False, True])
def test_msksd_adds_at_most_one_buffer_to_the_kernel(global_standardize):
    # tracemalloc sees numpy's buffers; the whole-matrix version adds 2
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1000, 16))
    m = stein.stein_kernel_matrix(X, rng.normal(size=(1000, 16)), stein.median_bandwidth(X))
    _, peak = traced_peak(lambda: scoring.msksd(m, global_standardize))
    assert peak <= 1.25 * m.values.nbytes, peak / m.values.nbytes


class TestSsnAndPc:
    def test_ssn_returns_norms(self):
        t = _table(np.array([[0.5, 0.5], [0.9, 0.1]]), norms=[1.5, 0.0])
        assert scoring.ssn(t) == pytest.approx([1.5, 0.0])
        assert np.all(scoring.ssn(t) >= 0)

    def test_pc_confidence_at_label(self):
        t = _table(np.array([[0.7, 0.3], [0.2, 0.8]]))
        s = scoring.pc(t, np.array([0, 0]))
        assert s == pytest.approx([0.7, 0.2])
        assert np.all((0 <= s) & (s <= 1))

    def test_pc_one_hot(self):
        t = _table(np.array([[1.0, 0.0]]))
        assert scoring.pc(t, np.array([0])) == pytest.approx([1.0])


class TestEntropy:
    def test_uniform_is_log_c(self):
        assert scoring.entropy(np.full(4, 0.25)) == pytest.approx(
            np.log(4.0), rel=1e-12
        )

    def test_one_hot_zero(self):
        assert scoring.entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_binary_support(self):
        assert scoring.entropy(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
            np.log(2.0), rel=1e-12
        )

    def test_non_simplex_rejected(self):
        with pytest.raises(ArgumentError):
            scoring.entropy(np.array([0.5, 0.6]))

    def test_rows_match_each_vector(self):
        rows = np.array([[0.25, 0.25, 0.5], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        expected = [scoring.entropy(row) for row in rows]
        assert np.array_equal(scoring.entropy(rows), expected)

    def test_non_simplex_row_rejected(self):
        with pytest.raises(ArgumentError):
            scoring.entropy(np.array([[0.5, 0.5], [0.5, 0.6]]))


class TestEmsksd:
    def test_scalar_division(self):
        # msksd 4.697130349293591 over entropy ln 4; frozen from mpmath
        t = _table(np.full((1, 4), 0.25))
        out = scoring.emsksd(np.array([4.697130349293591]), t)
        assert out == pytest.approx([3.3882633306674503], rel=1e-12)

    def test_floor_engages_on_one_hot(self):
        t = _table(np.array([[1.0, 0.0]]))
        out = scoring.emsksd(np.array([2.0]), t, entropy_floor=1e-6)
        assert out == pytest.approx([2.0 / 1e-6])

    def test_halving_under_entropy_doubling(self):
        t1 = _table(np.array([[0.5, 0.5, 0.0, 0.0]]))   # entropy ln 2
        t2 = _table(np.array([[0.25, 0.25, 0.25, 0.25]]))  # entropy ln 4 = 2 ln 2
        s1 = scoring.emsksd(np.array([3.0]), t1)
        s2 = scoring.emsksd(np.array([3.0]), t2)
        assert s2[0] == pytest.approx(s1[0] / 2.0, rel=1e-12)

    def test_nonpositive_floor_rejected(self):
        t = _table(np.array([[0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            scoring.emsksd(np.array([1.0]), t, entropy_floor=0.0)


class TestRank:
    def test_higher_is_harder(self):
        r = scoring.rank(np.array([3.0, 1.0, 2.0]), scoring.HIGHER_IS_HARDER)
        assert np.array_equal(r.easy_to_hard, [1, 2, 0])

    def test_higher_is_easier(self):
        r = scoring.rank(np.array([3.0, 1.0, 2.0]), scoring.HIGHER_IS_EASIER)
        assert np.array_equal(r.easy_to_hard, [0, 2, 1])

    def test_tie_break_by_id(self):
        r = scoring.rank(np.array([5.0, 5.0]), scoring.HIGHER_IS_HARDER)
        assert np.array_equal(r.easy_to_hard, [0, 1])

    def test_nan_rejected_with_sample(self):
        with pytest.raises(DataError, match="7"):
            scoring.rank(
                np.array([1.0, np.nan]), scoring.HIGHER_IS_HARDER,
                sample_ids=np.array([3, 7]),
            )

    def test_rerank_is_bit_stable(self, rng):
        scores = rng.normal(size=30)
        a = scoring.rank(scores, scoring.HIGHER_IS_HARDER)
        b = scoring.rank(scores, scoring.HIGHER_IS_HARDER)
        assert np.array_equal(a.easy_to_hard, b.easy_to_hard)


class TestAffineSensitivity:
    def test_mksd_changes_under_scaling_msksd_does_not(self):
        vals = np.array([[3.0, 1.0, 2.0], [1.0, 4.0, 0.5], [2.0, 0.5, 5.0]])
        m1 = _matrix(vals)
        m2 = _matrix(vals * 7.0)
        assert not np.allclose(scoring.mksd(m1), scoring.mksd(m2))
        assert np.allclose(scoring.msksd(m1), scoring.msksd(m2), rtol=1e-12)


class TestBruteForceOracle:
    """Every metric on a 3-point dataset vs an mpmath re-derivation."""

    VALUES = np.array([
        [4.0, 1.5, -0.5],
        [1.5, 3.0, 2.0],
        [-0.5, 2.0, 5.0],
    ])
    NORMS = np.array([0.25, 1.75, 0.5])
    PROBS = np.array([
        [0.2, 0.5, 0.3],
        [0.9, 0.05, 0.05],
        [1.0 / 3, 1.0 / 3, 1.0 / 3],
    ])
    LABELS = np.array([1, 0, 2])

    def _oracle(self):
        mp.mp.dps = 50
        vals = [[mp.mpf(repr(float(v))) for v in row] for row in self.VALUES]
        mksd = [sum(row) for row in vals]
        msksd = []
        for row in vals:
            mean = sum(row) / 3
            std = mp.sqrt(sum((v - mean) ** 2 for v in row) / 3)
            msksd.append(sum(mp.e ** ((v - mean) / std) for v in row))
        entropies = []
        for prow in self.PROBS:
            entropies.append(
                -sum(mp.mpf(repr(float(p))) * mp.log(mp.mpf(repr(float(p))))
                     for p in prow if p > 0)
            )
        emsksd = [
            m / max(h, mp.mpf("1e-6")) for m, h in zip(msksd, entropies)
        ]
        ssn = [mp.mpf(repr(float(v))) for v in self.NORMS]
        pc = [mp.mpf(repr(float(self.PROBS[i][self.LABELS[i]]))) for i in range(3)]
        return {
            "MKSD": [float(v) for v in mksd],
            "MSKSD": [float(v) for v in msksd],
            "EMSKSD": [float(v) for v in emsksd],
            "SSN": [float(v) for v in ssn],
            "PC": [float(v) for v in pc],
        }

    def test_all_metrics_and_rankings_match(self):
        m = _matrix(self.VALUES)
        t = _table(self.PROBS, norms=self.NORMS)
        expected = self._oracle()
        computed = {
            "MKSD": scoring.mksd(m),
            "MSKSD": scoring.msksd(m),
            "EMSKSD": scoring.emsksd(scoring.msksd(m), t),
            "SSN": scoring.ssn(t),
            "PC": scoring.pc(t, self.LABELS),
        }
        for name, exp in expected.items():
            assert computed[name] == pytest.approx(exp, rel=1e-12), name
            # rankings must match an independent sort of the oracle values
            orientation = scoring.METRIC_ORIENTATION[name]
            sign = 1.0 if orientation == scoring.HIGHER_IS_HARDER else -1.0
            oracle_order = sorted(range(3), key=lambda i: (sign * exp[i], i))
            r = scoring.rank(computed[name], orientation, metric=name)
            assert list(r.easy_to_hard) == oracle_order, name


class TestPermutationEquivariance:
    def test_all_metrics(self, rng):
        n = 7
        vals = rng.normal(size=(n, n))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 20.0)
        probs = rng.dirichlet(np.ones(3), size=n)
        norms = rng.uniform(0, 2, n)
        labels = rng.integers(0, 3, n)
        perm = rng.permutation(n)

        m = _matrix(vals)
        t = _table(probs, norms=norms)
        m_p = _matrix(vals[np.ix_(perm, perm)], ids=np.arange(n)[perm])
        t_p = _table(probs[perm], norms=norms[perm], ids=np.arange(n)[perm])

        pairs = [
            (scoring.mksd(m), scoring.mksd(m_p)),
            (scoring.msksd(m), scoring.msksd(m_p)),
            (scoring.ssn(t), scoring.ssn(t_p)),
            (scoring.emsksd(scoring.msksd(m), t),
             scoring.emsksd(scoring.msksd(m_p), t_p)),
            (scoring.pc(t, labels), scoring.pc(t_p, labels[perm])),
        ]
        for base, permuted in pairs:
            assert np.allclose(permuted, base[perm], rtol=1e-12)
