"""Acceptance suite: one test per release criterion.

Every test prints a single PASS/FAIL line (visible in the -rA summary) and
asserts the criterion at its stated tolerance. Criterion 9 runs the full
pipeline at n=5000 and dominates the suite's runtime.
"""

import time

import numpy as np
import pytest

from calrisk.core import CANONICAL, Dataset, PairModel, kfold_indices, one_hot
from calrisk.estimators import (
    fit_binning,
    fit_kde,
    fit_kkr,
    fit_ukkr,
    kde_prepare,
    kde_regress,
    kkr_prepare,
    rbf_gram,
)
from calrisk.pipeline import RunConfig, run_evaluate
from calrisk.risk import empirical_risk
from calrisk.sim import DEFAULT_THETAS, SimConfig, SimModel, simulate
from oracles import eval_kkr_naive, pointwise_risk, random_canonical


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_simulation_identifies_theta_one():
    # n=500, d=5, alpha=0.04, 100 seeds: the mean risk curve over the
    # default temperature grid bottoms out at theta=1, and the per-seed
    # argmin lies in [0.9, 1.1] for at least 95 of the seeds
    start = time.perf_counter()
    grid = DEFAULT_THETAS
    curves = []
    hits = 0
    for seed in range(100):
        sim = simulate(SimConfig(seed=seed))
        risks = [empirical_risk(SimModel(t), sim.dataset).value for t in grid]
        curves.append(risks)
        if 0.9 <= grid[int(np.argmin(risks))] <= 1.1:
            hits += 1
    mean_curve = np.mean(curves, axis=0)
    mean_argmin = grid[int(np.argmin(mean_curve))]
    elapsed = time.perf_counter() - start
    ok = 0.9 <= mean_argmin <= 1.1 and hits >= 95 and elapsed < 60.0
    _report(
        1, ok,
        f"mean-curve argmin {mean_argmin}, per-seed window hits {hits}/100, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_simulation_accuracy():
    accs = []
    for seed in range(50):
        sim = simulate(SimConfig(seed=seed))
        pred = np.argmax(sim.dataset.probs, axis=1)
        accs.append(float(np.mean(pred == sim.dataset.labels)))
    mean_acc = float(np.mean(accs))
    ok = 0.85 <= mean_acc <= 0.95
    _report(2, ok, f"mean top-1 accuracy over 50 seeds = {mean_acc:.4f}")


def test_criterion_3_kronecker_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst = 0.0
    cases = 0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.choice([2, 3, 5]))
        ds = random_canonical(rng, n, d)
        for lam in (0.01, 1.0):
            model = fit_kkr(kkr_prepare(ds, 0.5), lam)
            p, p2 = rng.dirichlet(np.ones(d), size=2)
            fast = model.predict(p, p2)
            slow = eval_kkr_naive(ds, lam, 0.5, p, p2)
            rel = abs(fast - slow) / max(abs(slow), 1e-300)
            worst = max(worst, rel)
            cases += 1
    ok = worst <= 1e-8
    _report(3, ok, f"{cases} cases, worst relative error {worst:.3e}")


def test_criterion_4_fast_risk_equivalence():
    rng = np.random.default_rng(101)
    worst_risk = 0.0
    worst_entry = 0.0
    for _ in range(10):
        train = random_canonical(rng, 50, 3)
        evalset = random_canonical(rng, 40, 3)
        lam = float(rng.uniform(0.05, 1.0))
        model = fit_kkr(kkr_prepare(train, 0.5), lam)
        fast = empirical_risk(model, evalset).value
        slow = pointwise_risk(model, evalset).value
        worst_risk = max(worst_risk, abs(fast - slow))
        H = model.pairwise(evalset.probs)
        for i, j in rng.integers(0, 40, size=(5, 2)):
            point = model.predict(evalset.probs[i], evalset.probs[j])
            worst_entry = max(worst_entry, abs(H[i, j] - point))
    ok = worst_risk <= 1e-10 and worst_entry <= 1e-10
    _report(
        4, ok,
        f"worst risk gap {worst_risk:.3e}, worst matrix entry gap "
        f"{worst_entry:.3e}",
    )


def test_criterion_5_two_step_identity_at_lambda_zero():
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    while checked < 10:
        n = int(rng.integers(5, 21))
        ds = random_canonical(rng, n, 3)
        K = rbf_gram(ds.probs, ds.probs, 0.5)
        if np.linalg.cond(K) >= 1e6:
            continue
        kkr = fit_kkr(kkr_prepare(ds, 0.5), 0.0)
        ukkr = fit_ukkr(kkr_prepare(ds, 0.5), 0.0)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        a = kkr.predict(p, p2)
        b = ukkr.predict(p, p2)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
        checked += 1
    ok = worst <= 1e-6
    _report(5, ok, f"{checked} well-conditioned systems, worst rel err {worst:.3e}")


def test_criterion_6_plugin_identities():
    rng = np.random.default_rng(103)
    conf = rng.uniform(0.2, 1.0, size=200)
    correct = (rng.random(200) < conf).astype(int)
    top = Dataset(conf[:, None], correct, "top-label")
    bin_model = fit_binning(top, 15)
    bin_diag = float(bin_model.diag(top.probs).mean())
    bin_direct = float(np.sum(bin_model.counts / 200 * bin_model.gaps**2))
    bin_gap = abs(bin_diag - bin_direct)

    ds = random_canonical(rng, 200, 3)
    kde_model = fit_kde(ds, 0.3)
    kde_diag = float(kde_model.diag(ds.probs).mean())
    resid = ds.probs - kde_regress(kde_prepare(ds, ds.probs), 0.3)
    kde_direct = float(np.mean(np.sum(resid**2, axis=1)))
    kde_gap = abs(kde_diag - kde_direct)

    ok = bin_gap <= 1e-12 and kde_gap <= 1e-10
    _report(6, ok, f"binning identity gap {bin_gap:.3e}, KDE identity gap {kde_gap:.3e}")


def test_criterion_7_u_statistic_unbiasedness():
    # 2-class Bernoulli stream: the fixed prediction is p = (q, 1-q) and the
    # label is 0 with probability pi0. With the scalar residual s (q-1 when
    # the label is 0, q otherwise), the pair target for i != j is T = 2 s_i
    # s_j, so for constant h = c the population risk is
    #   E[(T - c)^2] = 4 (E[s^2])^2 - 4 c (E[s])^2 + c^2.
    q, pi0, c = 0.7, 0.6, 0.05
    e_s = q - pi0
    e_s2 = pi0 * (q - 1.0) ** 2 + (1.0 - pi0) * q**2
    analytic = 4.0 * e_s2**2 - 4.0 * c * e_s**2 + c**2

    class Constant(PairModel):
        def factors(self, P):
            # F R^T = c exactly
            return np.ones((len(P), 1)), np.full((len(P), 1), c)

    rng = np.random.default_rng(104)
    values = []
    for _ in range(200):
        labels = (rng.random(100) >= pi0).astype(int)
        probs = np.tile([[q, 1.0 - q]], (100, 1))
        ds = Dataset(probs, labels, CANONICAL)
        values.append(empirical_risk(Constant(), ds).value)
    values = np.array(values)
    se = values.std(ddof=1) / np.sqrt(len(values))
    gap = abs(values.mean() - analytic)
    ok = gap <= 3 * se
    _report(
        7, ok,
        f"MC mean {values.mean():.6f} vs analytic {analytic:.6f} "
        f"(|gap| {gap:.2e} <= 3*SE {3 * se:.2e})",
    )


def test_criterion_8_strict_minimizer_margins():
    # n=2000 simulation (fixed seed for determinism): risk at theta=1 sits
    # below theta in {0.5, 0.75, 1.5, 2.0} by at least 2 fold-standard
    # errors. Risks on the same fold are strongly correlated across theta,
    # so the margin is assessed on per-fold paired differences.
    seed = 1
    sim = simulate(SimConfig(n=2000, seed=seed))
    folds = kfold_indices(2000, 5, seed)
    base = np.array([
        empirical_risk(SimModel(1.0), sim.dataset.subset(f)).value
        for f in folds
    ])
    margins = {}
    ok = True
    for theta in (0.5, 0.75, 1.5, 2.0):
        other = np.array([
            empirical_risk(SimModel(theta), sim.dataset.subset(f)).value
            for f in folds
        ])
        diff = other - base
        se = diff.std(ddof=1) / np.sqrt(len(folds))
        margins[theta] = (float(diff.mean()), float(se))
        ok = ok and diff.mean() >= 2 * se
    detail = ", ".join(
        f"theta={t}: {m:.2e} vs 2*SE {2 * s:.2e}" for t, (m, s) in margins.items()
    )
    _report(8, ok, detail)


def test_criterion_9_calibrated_model_floor():
    # labels drawn from the predictions themselves (n=5000, d=3): every
    # family's final estimate under its default grid stays at or below
    # 0.05. Predictions follow the simulated classifier's distribution; a
    # calibrated model's predictions cluster like a real classifier's
    # rather than spreading uniformly over the simplex.
    rng = np.random.default_rng(105)
    sim = simulate(SimConfig(n=5000, d=3, seed=105))
    P = sim.dataset.probs
    labels = np.array([rng.choice(3, p=row) for row in P])
    ds = Dataset(P, labels, CANONICAL)
    estimates = {}
    report_tce, _ = run_evaluate(
        RunConfig(mode="tce", families=("bin", "bin15"), seed=0), ds
    )
    report_cce, _ = run_evaluate(
        RunConfig(mode="cce", families=("kde", "kkr", "ukkr"), seed=0), ds
    )
    for report in (report_tce, report_cce):
        for fam, entry in report["families"].items():
            estimates[fam] = entry["estimate"]
    ok = all(v <= 0.05 for v in estimates.values())
    detail = ", ".join(f"{fam}={v:.4f}" for fam, v in sorted(estimates.items()))
    _report(9, ok, detail)


def test_criterion_10_cubic_scaling():
    rng = np.random.default_rng(106)
    times = {}
    for n in (500, 1000):
        train = random_canonical(rng, n, 3)
        evalset = random_canonical(rng, n, 3)
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            model = fit_kkr(kkr_prepare(train, 0.5), 1.0)
            empirical_risk(model, evalset)
            best = min(best, time.perf_counter() - start)
        times[n] = best
    ratio = times[1000] / times[500]
    ok = ratio <= 10.0
    _report(
        10, ok,
        f"fit+risk wall time {times[500]:.3f}s (n=500) -> {times[1000]:.3f}s "
        f"(n=1000), ratio {ratio:.2f}",
    )
