import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import dirichlet as scipy_dirichlet

from calrisk.core import CANONICAL, TOP_LABEL, Dataset, InputError, NumericError, one_hot
from calrisk.estimators import (
    BinningModel,
    clip_simplex,
    dirichlet_kernel,
    eval_kkr_naive,
    fit_binning,
    fit_kde,
    fit_kkr,
    fit_ukkr,
    kde_regress,
    rbf_gram,
    rbf_kernel,
)
from calrisk.sim import SimModel


def random_canonical(rng, n, d):
    P = rng.dirichlet(np.ones(d), size=n)
    labels = np.array([rng.choice(d, p=row) for row in P])
    return Dataset(P, labels, CANONICAL)


def random_top_label(rng, n):
    conf = rng.uniform(0.2, 1.0, size=n)
    correct = (rng.random(n) < conf).astype(int)
    return Dataset(conf[:, None], correct, TOP_LABEL)


# the final estimate averages `diag` while cross-validation scores
# `pairwise`, so every family's surfaces must agree with each other and
# with the single-pair `predict`
PROTOCOL_MODELS = {
    "bin": lambda rng: fit_binning(random_top_label(rng, 40), 5),
    "kde-canonical": lambda rng: fit_kde(random_canonical(rng, 20, 3), 0.3),
    "kde-top-label": lambda rng: fit_kde(random_top_label(rng, 20), 0.3),
    "kkr": lambda rng: fit_kkr(random_canonical(rng, 8, 3), 0.2, 0.5),
    "ukkr": lambda rng: fit_ukkr(random_canonical(rng, 8, 3), 0.2, 0.5),
    "sim": lambda rng: SimModel(0.8),
}


@pytest.mark.parametrize("family", sorted(PROTOCOL_MODELS))
def test_pairwise_and_diag_match_pointwise(family):
    rng = np.random.default_rng(18)
    model = PROTOCOL_MODELS[family](rng)
    if family in ("bin", "kde-top-label"):
        P = rng.uniform(0.2, 1.0, size=(5, 1))
    else:
        P = rng.dirichlet(np.ones(3), size=5)
    H = model.pairwise(P)
    d = model.diag(P)
    assert H.shape == (5, 5) and d.shape == (5,)
    np.testing.assert_allclose(d, np.diagonal(H), rtol=1e-12, atol=1e-15)
    for i in range(5):
        for j in range(5):
            assert model.predict(P[i], P[j]) == pytest.approx(
                H[i, j], rel=1e-12, abs=1e-15
            )


class TestRbfKernel:
    def test_identity(self):
        assert rbf_kernel([0.3, 0.7], [0.3, 0.7], 0.5) == 1.0

    def test_unit_squared_distance(self):
        # gamma=0.5, ||x-y||^2 = 2 -> e^-1
        assert rbf_kernel([1.0, 0.0], [0.0, 1.0], 0.5) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_monotone_in_distance(self):
        x = np.array([1.0, 0.0])
        values = [rbf_kernel(x, [1.0 - t, t], 0.5) for t in (0.1, 0.3, 0.5)]
        assert values[0] > values[1] > values[2]

    def test_gram_matches_pointwise(self):
        rng = np.random.default_rng(0)
        X = rng.dirichlet(np.ones(3), size=4)
        Y = rng.dirichlet(np.ones(3), size=5)
        G = rbf_gram(X, Y, 0.5)
        for i in range(4):
            for j in range(5):
                assert G[i, j] == pytest.approx(rbf_kernel(X[i], Y[j], 0.5), rel=1e-12)


class TestDirichletKernel:
    def test_beta_reference(self):
        # d=2, y=(0.5,0.5), b=0.5 -> alpha=(2,2); Beta(2,2) density at 0.5 is 1.5
        assert dirichlet_kernel([0.5, 0.5], [0.5, 0.5], 0.5) == pytest.approx(
            1.5, rel=1e-12
        )

    def test_matches_scipy_density(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.dirichlet(np.ones(3))
            y = rng.dirichlet(np.ones(3))
            b = rng.uniform(0.1, 2.0)
            alpha = clip_simplex(y)[0] / b + 1.0
            expected = scipy_dirichlet.pdf(clip_simplex(x)[0][:-1], alpha)
            assert dirichlet_kernel(x, y, b) == pytest.approx(expected, rel=1e-9)

    def test_permutation_symmetry(self):
        x = np.array([0.2, 0.3, 0.5])
        y = np.array([0.1, 0.6, 0.3])
        perm = [2, 0, 1]
        assert dirichlet_kernel(x, y, 0.7) == pytest.approx(
            dirichlet_kernel(x[perm], y[perm], 0.7), rel=1e-12
        )

    def test_boundary_is_finite(self):
        v = dirichlet_kernel([0.0, 1.0], [0.5, 0.5], 0.5)
        assert np.isfinite(v) and v >= 0.0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(InputError):
            dirichlet_kernel([0.5, 0.5], [0.5, 0.5], 0.0)


class TestBinning:
    def test_single_bin_gap(self):
        ds = random_top_label(np.random.default_rng(2), 50)
        model = fit_binning(ds, 1)
        expected = ds.probs[:, 0].mean() - ds.labels.mean()
        assert model.gaps[0] == pytest.approx(expected, abs=1e-15)

    def test_hand_computed_toy(self):
        # five samples, all in the last of 2 bins: conf mean 0.9, accuracy 0.8
        conf = np.array([0.86, 0.88, 0.9, 0.92, 0.94])
        correct = np.array([1, 1, 1, 1, 0])
        model = fit_binning(Dataset(conf[:, None], correct, TOP_LABEL), 2)
        assert model.gaps[0] == 0.0 and model.counts[0] == 0
        assert model.gaps[1] == pytest.approx(0.1, abs=1e-12)
        assert model.counts[1] == 5

    def test_empty_bin(self):
        ds = Dataset(np.array([[0.95], [0.97]]), np.array([1, 1]), TOP_LABEL)
        model = fit_binning(ds, 10)
        assert model.counts[:9].sum() == 0
        np.testing.assert_array_equal(model.gaps[:9], 0.0)

    def test_eval_same_bin_squares_gap(self):
        ds = random_top_label(np.random.default_rng(3), 100)
        model = fit_binning(ds, 5)
        g = model.gaps[3]
        assert model.predict(0.65, 0.7) == pytest.approx(g * g, abs=1e-15)

    def test_eval_cross_bin(self):
        model = BinningModel(
            np.array([0.0, 0.5, 1.0]), np.array([0.1, -0.05]), np.array([3, 3])
        )
        assert model.predict(0.2, 0.8) == pytest.approx(-0.005, abs=1e-15)

    def test_last_bin_closed(self):
        model = fit_binning(random_top_label(np.random.default_rng(4), 30), 4)
        # c=1.0 must fall in the last bin, not out of range
        assert np.isfinite(model.predict(1.0, 1.0))
        with pytest.raises(InputError):
            model.predict(1.1, 0.5)

    def test_diagonal_identity(self):
        # mean of h(c_i, c_i) over training equals sum_m (|B_m|/n) gap_m^2
        ds = random_top_label(np.random.default_rng(5), 200)
        model = fit_binning(ds, 15)
        diag_mean = model.diag(ds.probs).mean()
        direct = np.sum(model.counts / len(ds) * model.gaps**2)
        assert diag_mean == pytest.approx(direct, abs=1e-12)

    def test_requires_top_label_mode(self):
        ds = random_canonical(np.random.default_rng(6), 10, 3)
        with pytest.raises(InputError):
            fit_binning(ds, 5)


class TestKde:
    def test_one_point_reduction(self):
        ds = Dataset(np.array([[0.0, 1.0, 0.0]]), np.array([1]), CANONICAL)
        model = fit_kde(ds, 0.5)
        p = np.array([0.2, 0.5, 0.3])
        p2 = np.array([0.1, 0.8, 0.1])
        e1 = np.array([0.0, 1.0, 0.0])
        expected = float((p - e1) @ (p2 - e1))
        assert model.predict(p, p2) == pytest.approx(expected, rel=1e-9)

    def test_matches_nadaraya_watson_oracle(self):
        # independent recomputation of the ratio with scipy Dirichlet densities
        rng = np.random.default_rng(7)
        ds = random_canonical(rng, 2, 2)
        b = 0.5
        model = fit_kde(ds, b)
        p = rng.dirichlet(np.ones(2))
        p2 = rng.dirichlet(np.ones(2))

        def ghat(q):
            alpha = clip_simplex(q)[0] / b + 1.0
            w = np.array([
                scipy_dirichlet.pdf(clip_simplex(x)[0][:-1], alpha)
                for x in ds.probs
            ])
            Y = one_hot(ds.labels, ds.dim)
            return (w @ Y) / w.sum()

        expected = float((p - ghat(p)) @ (p2 - ghat(p2)))
        assert model.predict(p, p2) == pytest.approx(expected, rel=1e-8)

    def test_flat_kernel_limit(self):
        rng = np.random.default_rng(8)
        ds = random_canonical(rng, 40, 3)
        ghat = kde_regress(ds, rng.dirichlet(np.ones(3), size=5), 1e6)
        label_mean = one_hot(ds.labels, 3).mean(axis=0)
        np.testing.assert_allclose(ghat, np.tile(label_mean, (5, 1)), atol=1e-6)

    def test_diagonal_identity(self):
        # mean of h(p_i, p_i) over training equals the plug-in squared error
        rng = np.random.default_rng(9)
        ds = random_canonical(rng, 200, 3)
        model = fit_kde(ds, 0.3)
        diag_mean = model.diag(ds.probs).mean()
        resid = ds.probs - kde_regress(ds, ds.probs, 0.3)
        direct = float(np.mean(np.sum(resid**2, axis=1)))
        assert diag_mean == pytest.approx(direct, abs=1e-10)

    def test_nan_sentinel_on_underflow(self):
        # a query far from the clustered training mass at a tiny bandwidth
        # underflows its denominator; nearby queries stay finite
        P = np.tile([[0.98, 0.01, 0.01]], (20, 1))
        ds = Dataset(P, np.zeros(20, dtype=int), CANONICAL)
        queries = np.array([[0.01, 0.01, 0.98], [0.98, 0.01, 0.01]])
        ghat = kde_regress(ds, queries, 1e-3)
        assert np.isnan(ghat[0]).all()
        assert np.isfinite(ghat[1]).all()

    def test_top_label_regression(self):
        ds = random_top_label(np.random.default_rng(11), 50)
        ghat = kde_regress(ds, ds.probs, 0.5)
        assert ghat.shape == (50,)
        assert np.all((ghat >= 0.0) & (ghat <= 1.0))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_canonical(rng, 10, 3)
        model = fit_kde(ds, 0.5)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        assert model.predict(p, p2) == pytest.approx(
            model.predict(p2, p), abs=1e-10
        )


class TestKkr:
    def test_n1_closed_form(self):
        ds = Dataset(np.array([[0.6, 0.4]]), np.array([0]), CANONICAL)
        s = float((0.6 - 1.0) ** 2 + 0.4**2)
        for lam in (0.0, 0.5, 2.0):
            model = fit_kkr(ds, lam, 0.5)
            p = np.array([0.3, 0.7])
            p2 = np.array([0.8, 0.2])
            k1 = rbf_kernel(ds.probs[0], p, 0.5)
            k2 = rbf_kernel(ds.probs[0], p2, 0.5)
            expected = k1 * s / (1.0 + lam) * k2
            assert model.predict(p, p2) == pytest.approx(expected, rel=1e-12)

    def test_ridge_limit(self):
        rng = np.random.default_rng(12)
        ds = random_canonical(rng, 10, 3)
        model = fit_kkr(ds, 1e12, 0.5)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        assert abs(model.predict(p, p2)) <= 1e-6

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        for n in range(2, 9):
            ds = random_canonical(rng, n, 3)
            for lam in (0.01, 1.0):
                model = fit_kkr(ds, lam, 0.5)
                p, p2 = rng.dirichlet(np.ones(3), size=2)
                fast = model.predict(p, p2)
                slow = eval_kkr_naive(ds, lam, 0.5, p, p2)
                assert fast == pytest.approx(slow, rel=1e-8, abs=1e-12)

    def test_naive_oracle_n1(self):
        ds = Dataset(np.array([[0.6, 0.4]]), np.array([0]), CANONICAL)
        s = float((0.6 - 1.0) ** 2 + 0.4**2)
        p = np.array([0.3, 0.7])
        p2 = np.array([0.8, 0.2])
        k1 = rbf_kernel(ds.probs[0], p, 0.5)
        k2 = rbf_kernel(ds.probs[0], p2, 0.5)
        assert eval_kkr_naive(ds, 0.5, 0.5, p, p2) == pytest.approx(
            k1 * s * k2 / 1.5, rel=1e-12
        )

    def test_naive_oracle_size_guard(self):
        ds = random_canonical(np.random.default_rng(14), 13, 3)
        with pytest.raises(InputError):
            eval_kkr_naive(ds, 0.1, 0.5, ds.probs[0], ds.probs[1])

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        ds = random_canonical(rng, 12, 4)
        model = fit_kkr(ds, 0.1, 0.5)
        p, p2 = rng.dirichlet(np.ones(4), size=2)
        assert model.predict(p, p2) == pytest.approx(
            model.predict(p2, p), abs=1e-10
        )

    def test_self_evaluation_nonnegative(self):
        rng = np.random.default_rng(16)
        ds = random_canonical(rng, 15, 3)
        model = fit_kkr(ds, 0.5, 0.5)
        for p in rng.dirichlet(np.ones(3), size=10):
            assert model.predict(p, p) >= -1e-10

    def test_class_permutation_invariance(self):
        # relabeling classes permutes residual components; inner products and
        # RBF distances are preserved, so predictions are unchanged
        rng = np.random.default_rng(17)
        ds = random_canonical(rng, 10, 4)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        ds_perm = Dataset(ds.probs[:, perm], inv[ds.labels], CANONICAL)
        model = fit_kkr(ds, 0.1, 0.5)
        model_perm = fit_kkr(ds_perm, 0.1, 0.5)
        p, p2 = rng.dirichlet(np.ones(4), size=2)
        assert model.predict(p, p2) == pytest.approx(
            model_perm.predict(p[perm], p2[perm]), rel=1e-10
        )

    def test_lambda_zero_singular_gram(self):
        probs = np.tile([[0.5, 0.5]], (5, 1))
        ds = Dataset(probs, np.zeros(5, dtype=int), CANONICAL)
        with pytest.raises(NumericError):
            fit_kkr(ds, 0.0, 0.5)


class TestUkkr:
    def test_n1_closed_form(self):
        ds = Dataset(np.array([[0.6, 0.4]]), np.array([0]), CANONICAL)
        s = float((0.6 - 1.0) ** 2 + 0.4**2)
        for lam in (0.0, 0.5, 2.0):
            model = fit_ukkr(ds, lam, 0.5)
            p = np.array([0.3, 0.7])
            p2 = np.array([0.8, 0.2])
            k1 = rbf_kernel(ds.probs[0], p, 0.5)
            k2 = rbf_kernel(ds.probs[0], p2, 0.5)
            expected = k1 * s * k2 / (1.0 + lam) ** 2
            assert model.predict(p, p2) == pytest.approx(expected, rel=1e-12)

    def test_ridge_limit(self):
        rng = np.random.default_rng(19)
        ds = random_canonical(rng, 10, 3)
        model = fit_ukkr(ds, 1e12, 0.5)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        assert abs(model.predict(p, p2)) <= 1e-12

    def test_matches_factored_oracle(self):
        # independent recomputation via W = (K + lam n I)^-1 Delta^T
        rng = np.random.default_rng(20)
        ds = random_canonical(rng, 3, 3)
        lam = 0.3
        model = fit_ukkr(ds, lam, 0.5)
        K = rbf_gram(ds.probs, ds.probs, 0.5)
        delta = (ds.probs - one_hot(ds.labels, 3)).T
        W = np.linalg.solve(K + lam * 3 * np.eye(3), delta.T)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        kp = rbf_gram(ds.probs, np.atleast_2d(p), 0.5).ravel()
        kp2 = rbf_gram(ds.probs, np.atleast_2d(p2), 0.5).ravel()
        expected = float((W.T @ kp) @ (W.T @ kp2))
        assert model.predict(p, p2) == pytest.approx(expected, rel=1e-10)

    def test_lambda_zero_equals_kkr(self):
        rng = np.random.default_rng(21)
        while True:
            ds = random_canonical(rng, 8, 3)
            K = rbf_gram(ds.probs, ds.probs, 0.5)
            if np.linalg.cond(K) < 1e6:
                break
        kkr = fit_kkr(ds, 0.0, 0.5)
        ukkr = fit_ukkr(ds, 0.0, 0.5)
        for p, p2 in np.split(rng.dirichlet(np.ones(3), size=10), 5):
            a = kkr.predict(p, p2)
            b = ukkr.predict(p, p2)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    def test_self_evaluation_nonnegative(self):
        rng = np.random.default_rng(22)
        ds = random_canonical(rng, 12, 3)
        model = fit_ukkr(ds, 0.2, 0.5)
        for p in rng.dirichlet(np.ones(3), size=10):
            assert model.predict(p, p) >= 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        ds = random_canonical(rng, 10, 3)
        model = fit_ukkr(ds, 0.1, 0.5)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        assert model.predict(p, p2) == pytest.approx(
            model.predict(p2, p), abs=1e-12
        )
