import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calrisk.core import InputError, softmax_rows
from calrisk.risk import empirical_risk
from calrisk.sim import (
    DEFAULT_THETAS,
    SimConfig,
    SimModel,
    risk_curve,
    simulate,
)


class TestSimulate:
    def test_shapes_and_validity(self):
        sim = simulate(SimConfig(n=50, d=4, seed=0))
        assert sim.dataset.probs.shape == (50, 4)
        assert sim.ground_truth.shape == (50, 4)
        np.testing.assert_allclose(sim.dataset.probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((sim.dataset.labels >= 0) & (sim.dataset.labels < 4))

    def test_predictions_recover_ground_truth(self):
        # softmax((1/t) log f(X)) = P up to the shift invariance of softmax
        sim = simulate(SimConfig(n=100, seed=1))
        recovered = softmax_rows(
            np.log(np.clip(sim.dataset.probs, 1e-300, None)) / 0.3
        )
        np.testing.assert_allclose(recovered, sim.ground_truth, atol=1e-9)

    def test_determinism(self):
        a = simulate(SimConfig(seed=7))
        b = simulate(SimConfig(seed=7))
        np.testing.assert_array_equal(a.dataset.probs, b.dataset.probs)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)

    def test_accuracy_near_ninety_percent(self):
        accs = []
        for seed in range(10):
            sim = simulate(SimConfig(seed=seed))
            pred = np.argmax(sim.dataset.probs, axis=1)
            accs.append(np.mean(pred == sim.dataset.labels))
        assert 0.85 <= np.mean(accs) <= 0.95

    def test_rejects_bad_config(self):
        with pytest.raises(InputError):
            SimConfig(n=1)
        with pytest.raises(InputError):
            SimConfig(alpha=0.0)
        with pytest.raises(InputError):
            SimConfig(model_temp=-1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(InputError, match="concentration must be positive and finite"):
            SimConfig(alpha=alpha)

    def test_rejects_a_concentration_whose_draws_overflow(self):
        # five gamma draws of about 1e308 sum past the largest float
        with pytest.raises(InputError, match="concentration 1e\\+308 is too large"):
            simulate(SimConfig(alpha=1e308))

    @pytest.mark.parametrize("temp", [float("nan"), float("inf")])
    def test_rejects_non_finite_model_temp(self, temp):
        with pytest.raises(InputError, match="model temperature must be positive and finite"):
            SimConfig(model_temp=temp)

    @pytest.mark.parametrize("alpha", [1e-300, 5e-324])
    def test_tiny_alpha_returns_on_the_simplex(self, alpha):
        # every gamma draw underflows to 0 here, so a sampler that redraws
        # the all-zero rows never returns; the alarm ends such a run
        def timeout(signum, frame):
            raise TimeoutError("simulate did not return")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            start = time.perf_counter()
            sim = simulate(SimConfig(alpha=alpha))
            elapsed = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 1.0
        P = sim.ground_truth
        assert np.isfinite(P).all() and (P >= 0.0).all()
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(sim.dataset.probs).all()


class TestEvalHsim:
    def test_theta_zero_collapses_to_uniform(self):
        p = np.array([0.2, 0.3, 0.5])
        p2 = np.array([0.6, 0.3, 0.1])
        u = np.full(3, 1 / 3)
        expected = float((p - u) @ (p2 - u))
        assert SimModel(0.0).predict(p, p2) == pytest.approx(expected, abs=1e-12)

    def test_theta_one_recovers_ground_truth(self):
        sim = simulate(SimConfig(n=20, seed=2))
        f = sim.dataset.probs
        P = sim.ground_truth
        expected = float((f[0] - P[0]) @ (f[1] - P[1]))
        assert SimModel(1.0).predict(f[0], f[1]) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("temp", [0.0, -0.3, float("nan"), float("inf")])
    def test_rejects_a_temperature_that_is_not_positive_and_finite(self, temp):
        # inf would give theta/t = 0, the uniform model, and 0 divides by zero
        with pytest.raises(InputError, match="model temperature must be positive and finite"):
            SimModel(1.0, temp)

    @given(st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_uniform_is_fixed_point(self, theta):
        p = np.array([0.5, 0.5])
        assert SimModel(theta).predict(p, p) == pytest.approx(0.0, abs=1e-12)


class TestRiskCurve:
    def test_default_seed_orders_temperatures(self):
        sim = simulate(SimConfig(seed=0))
        r1 = empirical_risk(SimModel(1.0), sim.dataset).value
        r2 = empirical_risk(SimModel(2.0), sim.dataset).value
        assert r1 < r2

    def test_curve_shape(self):
        sim = simulate(SimConfig(n=100, seed=4))
        curve = risk_curve(sim, DEFAULT_THETAS)
        assert [t for t, _, _ in curve] == list(DEFAULT_THETAS)
        for _, risk, se in curve:
            assert risk >= 0.0 and se >= 0.0

    def test_needs_two_thetas(self):
        sim = simulate(SimConfig(n=20, seed=5))
        with pytest.raises(InputError):
            risk_curve(sim, [1.0])

    def test_too_few_samples_for_the_folds_rejected_before_any_risk(self, monkeypatch):
        from calrisk import sim as sim_module

        calls = []
        monkeypatch.setattr(sim_module, "empirical_risk",
                            lambda *args: calls.append(args) or empirical_risk(*args))
        sim = simulate(SimConfig(n=9, seed=5))
        with pytest.raises(InputError, match=r"5 folds needs n >= 10, got n=9"):
            risk_curve(sim, DEFAULT_THETAS)
        assert calls == []
        risk_curve(simulate(SimConfig(n=10, seed=5)), DEFAULT_THETAS)
        assert calls

    @pytest.mark.parametrize("thetas,temp", [([1.0, 1e307], 0.3), ([-1e307, 1.0], 0.3),
                                             ([0.5, 1.0], 1e-320)],
                             ids=["theta-1e307", "theta-minus-1e307", "temp-1e-320"])
    def test_theta_whose_scaled_logs_overflow_rejected_before_any_risk(
            self, monkeypatch, thetas, temp):
        from calrisk import sim as sim_module

        calls = []
        monkeypatch.setattr(sim_module, "empirical_risk",
                            lambda *args: calls.append(args) or empirical_risk(*args))
        sim = simulate(SimConfig(n=20, model_temp=temp, seed=5))
        with pytest.raises(InputError, match="scaled logs overflow"):
            risk_curve(sim, thetas)
        assert calls == []
        # theta = 1e306 at t = 0.3 is inside the bound
        assert len(risk_curve(simulate(SimConfig(n=20, seed=5)), [1.0, 1e306])) == 2

    def test_interior_argmin(self):
        for seed in range(10):
            sim = simulate(SimConfig(seed=seed))
            curve = risk_curve(sim, DEFAULT_THETAS)
            idx = int(np.argmin([r for _, r, _ in curve]))
            assert 0 < idx < len(DEFAULT_THETAS) - 1

    def test_shift_invariant_predictions(self):
        # adding a constant to log P does not change softened predictions
        rng = np.random.default_rng(6)
        P = rng.dirichlet(np.ones(5), size=10)
        logP = np.log(P)
        factor = 0.3
        direct = softmax_rows(factor * logP)
        shifted = softmax_rows(factor * (logP + 3.7))
        np.testing.assert_allclose(direct, shifted, atol=1e-12)

    def test_mean_risk_separation_at_theta_one(self):
        # theta=1 beats every other grid value once averaged over seeds.
        # Risks at different theta on the same seed are strongly correlated,
        # so the separation is measured on paired per-seed differences.
        risks = {t: [] for t in DEFAULT_THETAS}
        for seed in range(100):
            sim = simulate(SimConfig(seed=seed))
            for t in DEFAULT_THETAS:
                risks[t].append(empirical_risk(SimModel(t), sim.dataset).value)
        base = np.array(risks[1.0])
        for t in DEFAULT_THETAS:
            if t == 1.0:
                continue
            diff = np.array(risks[t]) - base
            se = diff.std(ddof=1) / np.sqrt(len(diff))
            assert diff.mean() >= 2 * se, f"theta={t}: {diff.mean()} vs 2*{se}"
