import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calrisk.core import (
    CANONICAL,
    Dataset,
    InputError,
    NumericError,
    PairModel,
    one_hot,
    residual_matrix,
)
from calrisk.estimators import fit_kde, fit_kkr, kkr_prepare
from calrisk.pipeline import default_grid
from calrisk.risk import (
    RiskValue,
    empirical_risk,
    linear_risk,
    risk_from_factors,
    risk_from_matrix,
)
from calrisk.sim import SimConfig, SimModel, simulate
from oracles import dense_linear_risk, pair_target, pointwise_risk, random_canonical


class ConstantModel(PairModel):
    """h identically equal to a constant; used to probe the risk directly.
    F = 1 and R = c give F R^T = c exactly."""

    def __init__(self, c):
        self.c = c

    def factors(self, P):
        return np.ones((len(P), 1)), np.full((len(P), 1), self.c)


class TestEmpiricalRisk:
    def test_perfect_predictions_zero_risk(self):
        # one-hot predictions with matching labels: all targets are zero
        ds = Dataset(np.eye(3)[[0, 1, 2, 0]], np.array([0, 1, 2, 0]), CANONICAL)
        assert empirical_risk(ConstantModel(0.0), ds).value == 0.0

    def test_two_sample_hand_computation(self):
        ds = Dataset(
            np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0, 1]), CANONICAL
        )
        t = pair_target((ds.probs[0], ds.labels[0]), (ds.probs[1], ds.labels[1]))  # -0.5
        c = 0.3
        rv = empirical_risk(ConstantModel(c), ds)
        assert rv.value == pytest.approx((t - c) ** 2, abs=1e-15)
        assert rv.pairs_used == 2

    def test_rejects_tiny_eval_set(self):
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([0]), CANONICAL)
        with pytest.raises(InputError):
            empirical_risk(ConstantModel(0.0), ds)

    def test_callable_and_model_paths_agree(self):
        rng = np.random.default_rng(0)
        ds = random_canonical(rng, 15, 3)
        model = fit_kkr(kkr_prepare(random_canonical(rng, 10, 3), 0.5), 0.1)
        fast = empirical_risk(model, ds)
        slow = pointwise_risk(model, ds)
        assert fast.value == pytest.approx(slow.value, rel=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_canonical(rng, 12, 3)
        perm = rng.permutation(12)
        a = empirical_risk(ConstantModel(0.05), ds)
        b = empirical_risk(ConstantModel(0.05), ds.subset(perm))
        assert a.value == pytest.approx(b.value, abs=1e-12)


class TestRiskFromFactors:
    """The factored U-statistic against the dense one on F F^T and D D^T."""

    @staticmethod
    def dense(F, D):
        return risk_from_matrix(F @ F.T, D)

    @given(st.integers(2, 40), st.sampled_from([1, 3]), st.sampled_from([1, 3]),
           st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense(self, m, width, d, seed, asymmetric):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(m, width)) * rng.uniform(0.01, 1.0)
        D = rng.normal(size=(m, d))
        if asymmetric:
            # R other than F, as for kkr: scored through the dense matrix itself
            R = rng.normal(size=(m, width))
            assert risk_from_factors(F, R, D) == risk_from_matrix(F @ R.T, D)
            return
        got, want = risk_from_factors(F, F, D), self.dense(F, D)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert (got.pairs_used, got.dropped_nan) == (want.pairs_used, want.dropped_nan)

    @given(st.integers(0, 10_000), st.lists(st.booleans(), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_nan_rows_drop_the_same_pairs(self, seed, holes):
        m = len(holes)
        if m - sum(holes) < 2:
            holes = [False, False] + holes[2:]
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(m, 3))
        D = rng.normal(size=(m, 3))
        for i in np.flatnonzero(holes):
            F[i, rng.integers(3)] = np.nan  # one NaN entry spoils the row
        got, want = risk_from_factors(F, F, D), self.dense(F, D)
        assert (got.pairs_used, got.dropped_nan) == (want.pairs_used, want.dropped_nan)
        assert got.value == pytest.approx(want.value, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_negative_where_f_reproduces_d(self, seed):
        # F = D R with R orthogonal has F F^T = D D^T, so the risk is 0; on
        # most of these seeds the expansion rounds to about -1e-16 unclamped
        rng = np.random.default_rng(seed)
        D = rng.dirichlet(np.ones(3), 20) - one_hot(rng.integers(0, 3, 20), 3)
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        F = D @ R
        got = risk_from_factors(F, F, D)
        assert 0.0 <= got.value < 1e-12
        assert got.value == pytest.approx(self.dense(F, D).value, abs=1e-12)

    @pytest.mark.parametrize("finite", [0, 1])
    def test_fewer_than_two_finite_rows_raise(self, finite):
        F = np.full((4, 1), np.nan)
        F[:finite] = 0.5
        D = np.ones((4, 2))
        with pytest.raises(NumericError, match="no usable pairs"):
            self.dense(F, D)
        with pytest.raises(NumericError, match="no usable pairs"):
            risk_from_factors(F, F, D)

    @pytest.mark.parametrize("bandwidth", [1e-2, 1e-4])
    def test_empirical_risk_takes_the_factored_path(self, matrix_risk_calls, bandwidth):
        # on sharply concentrated predictions a tiny bandwidth underflows
        # the kernel weights of most evaluation rows to the NaN sentinel
        ds = simulate(SimConfig(n=25, seed=2)).dataset
        kde = fit_kde(simulate(SimConfig(n=40, seed=1)).dataset, bandwidth)
        for model in (kde, SimModel(0.7)):
            got = empirical_risk(model, ds)
            assert matrix_risk_calls == []  # symmetric factors form no (m, m) matrix
            want = risk_from_matrix(model.pairwise(ds.probs), residual_matrix(ds))
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert (got.pairs_used, got.dropped_nan) == (want.pairs_used, want.dropped_nan)
        assert (empirical_risk(kde, ds).dropped_nan > 0) == (bandwidth < 1e-3)


class TestNanAccounting:
    class HoleyModel(PairModel):
        """Constant model whose predictions at sample 0 are NaN: row 0 of
        both factors is NaN, so row and column 0 of F R^T are."""

        def factors(self, P):
            F, R = np.ones((len(P), 1)), np.zeros((len(P), 1))
            F[0] = R[0] = np.nan
            return F, R

    def test_pairs_dropped_and_counted(self):
        ds = random_canonical(np.random.default_rng(1), 6, 3)
        rv = empirical_risk(self.HoleyModel(), ds)
        assert rv.pairs_used == 5 * 4
        assert rv.dropped_nan == 2 * 5

    def test_all_nan_raises(self):
        H = np.full((3, 3), np.nan)
        with pytest.raises(NumericError):
            risk_from_matrix(H, np.zeros((3, 2)))


class TestOverflow:
    """Finite predictions whose squared errors overflow give no risk value."""

    F = np.full((4, 1), 1e100)
    D = np.zeros((4, 2))

    def test_dense_risk_raises(self):
        with pytest.raises(NumericError, match="overflow"):
            risk_from_matrix(self.F @ self.F.T, self.D)
        with pytest.raises(NumericError, match="overflow"):
            risk_from_factors(self.F, self.F.copy(), self.D)  # R is not F: dense

    def test_factored_risk_raises(self):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="overflow"):
                risk_from_factors(self.F, self.F, self.D)
        assert seen == []  # numpy's overflow warnings would reach stderr

    def test_linear_risk_raises(self):
        with pytest.raises(NumericError, match="overflow"):
            linear_risk(self.F, self.F, self.D, seed=0)


def constant_linear_risk(c, ds, seed=0):
    """`linear_risk` of the model h = c: F = 1 and R = c give F R^T = c."""
    m = len(ds)
    return linear_risk(np.ones((m, 1)), np.full((m, 1), c), residual_matrix(ds), seed)


class TestLinearRisk:
    def test_zero_case(self):
        ds = Dataset(np.eye(3)[[0, 1, 2]], np.array([0, 1, 2]), CANONICAL)
        assert constant_linear_risk(0.0, ds).value == 0.0

    def test_two_samples_match_quadratic(self):
        ds = random_canonical(np.random.default_rng(2), 2, 3)
        quad = empirical_risk(ConstantModel(0.1), ds)
        lin = constant_linear_risk(0.1, ds)
        assert lin.value == pytest.approx(quad.value, abs=1e-15)

    def test_expectation_matches_quadratic(self):
        # over many shuffles the circular estimator averages to the full
        # U-statistic up to Monte-Carlo noise
        rng = np.random.default_rng(3)
        ds = random_canonical(rng, 200, 3)
        model = ConstantModel(0.02)
        quad = empirical_risk(model, ds).value
        values = np.array([
            constant_linear_risk(model.c, ds, seed=s).value for s in range(500)
        ])
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - quad) <= 3 * se

    def test_one_row_has_no_pair(self):
        # its one circular pair is (0, 0), a diagonal pair the U-statistic excludes
        ds = random_canonical(np.random.default_rng(5), 1, 3)
        with pytest.raises(NumericError, match="no usable pairs"):
            constant_linear_risk(0.1, ds)

    def test_pair_count(self):
        ds = random_canonical(np.random.default_rng(4), 20, 3)
        assert constant_linear_risk(0.0, ds).pairs_used == 20

    @given(st.integers(2, 30), st.sampled_from([1, 3]), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_matrices(self, m, width, seed):
        # F R^T with R != F, as for kkr, and NaN feature rows, as for kde
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(m, width))
        R = rng.normal(size=(m, width))
        F[rng.random(m) < 0.2] = np.nan
        D = rng.normal(size=(m, 3))
        try:
            want = dense_linear_risk(F @ R.T, D @ D.T, seed)
        except NumericError:
            with pytest.raises(NumericError, match="no usable pairs"):
                linear_risk(F, R, D, seed)
            return
        got = linear_risk(F, R, D, seed)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert (got.pairs_used, got.dropped_nan) == (want.pairs_used, want.dropped_nan)


class TestKkrRisk:
    def test_matrix_entries_match_pointwise(self):
        rng = np.random.default_rng(5)
        train = random_canonical(rng, 6, 3)
        evalset = random_canonical(rng, 5, 3)
        model = fit_kkr(kkr_prepare(train, 0.5), 0.1)
        H = model.pairwise(evalset.probs)
        for i in range(5):
            for j in range(5):
                assert H[i, j] == pytest.approx(
                    model.predict(evalset.probs[i], evalset.probs[j]), abs=1e-10
                )

    def test_matches_slow_path(self, matrix_risk_calls):
        rng = np.random.default_rng(6)
        train = random_canonical(rng, 30, 3)
        evalset = random_canonical(rng, 20, 3)
        model = fit_kkr(kkr_prepare(train, 0.5), 0.5)
        fast = empirical_risk(model, evalset)
        assert matrix_risk_calls == [(20, 20)]  # kkr's factors are asymmetric
        slow = pointwise_risk(model, evalset)
        assert fast.value == pytest.approx(slow.value, abs=1e-10)

    def test_ridge_limit_is_mean_squared_target(self):
        rng = np.random.default_rng(7)
        train = random_canonical(rng, 10, 3)
        evalset = random_canonical(rng, 12, 3)
        model = fit_kkr(kkr_prepare(train, 0.5), 1e12)
        rv = empirical_risk(model, evalset)
        baseline = empirical_risk(ConstantModel(0.0), evalset)
        assert rv.value == pytest.approx(baseline.value, rel=1e-6)

    def test_equivalence_across_default_grid(self):
        rng = np.random.default_rng(9)
        train = random_canonical(rng, 25, 3)
        evalset = random_canonical(rng, 15, 3)
        for lam in default_grid("kkr", CANONICAL, len(train)):
            model = fit_kkr(kkr_prepare(train, 0.5), lam)
            fast = empirical_risk(model, evalset)
            slow = pointwise_risk(model, evalset)
            assert fast.value == pytest.approx(slow.value, rel=1e-8, abs=1e-12)


def test_risk_value_fields():
    rv = RiskValue(0.5, 10, 2)
    assert rv.value == 0.5 and rv.pairs_used == 10 and rv.dropped_nan == 2
