import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calrisk.core import CANONICAL, Dataset, InputError, NumericError, Sample, pair_target
from calrisk.estimators import fit_kkr
from calrisk.pipeline import default_grid
from calrisk.risk import (
    RiskValue,
    empirical_risk,
    empirical_risk_linear,
    risk_from_matrix,
)


def random_canonical(rng, n, d):
    P = rng.dirichlet(np.ones(d), size=n)
    labels = np.array([rng.choice(d, p=row) for row in P])
    return Dataset(P, labels, CANONICAL)


class ConstantModel:
    """h identically equal to a constant; used to probe the risk directly."""

    def __init__(self, c):
        self.c = c

    def pairwise(self, P):
        return np.full((len(P), len(P)), self.c)

    def diag(self, P):
        return np.full(len(P), self.c)


def zero_h(p, p2):
    return 0.0


class TestEmpiricalRisk:
    def test_perfect_predictions_zero_risk(self):
        # one-hot predictions with matching labels: all targets are zero
        ds = Dataset(np.eye(3)[[0, 1, 2, 0]], np.array([0, 1, 2, 0]), CANONICAL)
        assert empirical_risk(zero_h, ds).value == 0.0

    def test_two_sample_hand_computation(self):
        ds = Dataset(
            np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0, 1]), CANONICAL
        )
        t = pair_target(ds.sample(0), ds.sample(1))  # -0.5
        c = 0.3
        rv = empirical_risk(ConstantModel(c), ds)
        assert rv.value == pytest.approx((t - c) ** 2, abs=1e-15)
        assert rv.pairs_used == 2

    def test_rejects_tiny_eval_set(self):
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([0]), CANONICAL)
        with pytest.raises(InputError):
            empirical_risk(zero_h, ds)

    def test_callable_and_model_paths_agree(self):
        rng = np.random.default_rng(0)
        ds = random_canonical(rng, 15, 3)
        model = fit_kkr(random_canonical(rng, 10, 3), 0.1, 0.5)
        fast = empirical_risk(model, ds)
        slow = empirical_risk(lambda p, p2: model.predict(p, p2), ds)
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


class TestNanAccounting:
    class HoleyModel:
        """Constant model whose predictions at sample 0 are NaN."""

        def pairwise(self, P):
            H = np.zeros((len(P), len(P)))
            H[0, :] = np.nan
            H[:, 0] = np.nan
            return H

    def test_pairs_dropped_and_counted(self):
        ds = random_canonical(np.random.default_rng(1), 6, 3)
        rv = empirical_risk(self.HoleyModel(), ds)
        assert rv.pairs_used == 5 * 4
        assert rv.dropped_nan == 2 * 5

    def test_all_nan_raises(self):
        H = np.full((3, 3), np.nan)
        with pytest.raises(NumericError):
            risk_from_matrix(H, np.zeros((3, 3)))


class TestLinearRisk:
    def test_zero_case(self):
        ds = Dataset(np.eye(3)[[0, 1, 2]], np.array([0, 1, 2]), CANONICAL)
        assert empirical_risk_linear(zero_h, ds).value == 0.0

    def test_two_samples_match_quadratic(self):
        ds = random_canonical(np.random.default_rng(2), 2, 3)
        quad = empirical_risk(ConstantModel(0.1), ds)
        lin = empirical_risk_linear(ConstantModel(0.1), ds)
        assert lin.value == pytest.approx(quad.value, abs=1e-15)

    def test_expectation_matches_quadratic(self):
        # over many shuffles the circular estimator averages to the full
        # U-statistic up to Monte-Carlo noise
        rng = np.random.default_rng(3)
        ds = random_canonical(rng, 200, 3)
        model = ConstantModel(0.02)
        quad = empirical_risk(model, ds).value
        values = np.array([
            empirical_risk_linear(model, ds, seed=s).value for s in range(500)
        ])
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - quad) <= 3 * se

    def test_pair_count(self):
        ds = random_canonical(np.random.default_rng(4), 20, 3)
        assert empirical_risk_linear(zero_h, ds).pairs_used == 20


class TestKkrRisk:
    def test_matrix_entries_match_pointwise(self):
        rng = np.random.default_rng(5)
        train = random_canonical(rng, 6, 3)
        evalset = random_canonical(rng, 5, 3)
        model = fit_kkr(train, 0.1, 0.5)
        H = model.pairwise(evalset.probs)
        for i in range(5):
            for j in range(5):
                assert H[i, j] == pytest.approx(
                    model.predict(evalset.probs[i], evalset.probs[j]), abs=1e-10
                )

    def test_matches_slow_path(self):
        rng = np.random.default_rng(6)
        train = random_canonical(rng, 30, 3)
        evalset = random_canonical(rng, 20, 3)
        model = fit_kkr(train, 0.5, 0.5)
        fast = empirical_risk(model, evalset)
        slow = empirical_risk(lambda p, p2: model.predict(p, p2), evalset)
        assert fast.value == pytest.approx(slow.value, abs=1e-10)

    def test_ridge_limit_is_mean_squared_target(self):
        rng = np.random.default_rng(7)
        train = random_canonical(rng, 10, 3)
        evalset = random_canonical(rng, 12, 3)
        model = fit_kkr(train, 1e12, 0.5)
        rv = empirical_risk(model, evalset)
        baseline = empirical_risk(zero_h, evalset)
        assert rv.value == pytest.approx(baseline.value, rel=1e-6)

    def test_equivalence_across_default_grid(self):
        rng = np.random.default_rng(9)
        train = random_canonical(rng, 25, 3)
        evalset = random_canonical(rng, 15, 3)
        for lam in default_grid("kkr", CANONICAL, len(train)):
            model = fit_kkr(train, lam, 0.5)
            fast = empirical_risk(model, evalset)
            slow = empirical_risk(lambda p, p2: model.predict(p, p2), evalset)
            assert fast.value == pytest.approx(slow.value, rel=1e-8, abs=1e-12)


def test_risk_value_fields():
    rv = RiskValue(0.5, 10, 2)
    assert rv.value == 0.5 and rv.pairs_used == 10 and rv.dropped_nan == 2
