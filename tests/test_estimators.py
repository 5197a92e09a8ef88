import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln
from scipy.stats import dirichlet as scipy_dirichlet

from calrisk import estimators
from calrisk.core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    factor_diag,
    factor_pairwise,
    one_hot,
    residual_matrix,
    top_label_dataset,
)
from calrisk.estimators import (
    CLIP_EPS,
    DEAD_CUTOFF,
    FAST_EXP_FLOOR,
    KDE_BLOCK_BYTES,
    BinningModel,
    KdeModel,
    KkrModel,
    UkkrModel,
    _as_simplex_points,
    _exp_inplace,
    clip_simplex,
    fit_binning,
    fit_kde,
    fit_kkr,
    fit_ukkr,
    kde_regress,
    kkr_prepare,
    rbf_gram,
)
from calrisk.pipeline import default_grid
from calrisk.sim import SimConfig, SimModel, simulate
from oracles import (
    dirichlet_kernel,
    eval_kkr_naive,
    random_canonical,
    random_top_label,
    rbf_kernel,
)


# the final estimate averages `diag` while cross-validation scores
# `pairwise` or, for the factored families, `features`, so every family's
# surfaces must agree with each other and with the single-pair `predict`
PROTOCOL_MODELS = {
    "bin": lambda rng: fit_binning(random_top_label(rng, 40), 5),
    "kde-canonical": lambda rng: fit_kde(random_canonical(rng, 20, 3), 0.3),
    "kde-top-label": lambda rng: fit_kde(random_top_label(rng, 20), 0.3),
    "kkr": lambda rng: fit_kkr(kkr_prepare(random_canonical(rng, 8, 3), 0.5), 0.2),
    "ukkr": lambda rng: fit_ukkr(kkr_prepare(random_canonical(rng, 8, 3), 0.5), 0.2),
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
    # kkr is genuinely pairwise; a fitted ukkr keeps its dense arithmetic
    assert hasattr(model, "features") == (family not in ("kkr", "ukkr"))
    # every model predicts through its factors: H = F R^T exactly
    F, R = model.factors(P)
    assert (R is F) == hasattr(model, "features")
    np.testing.assert_array_equal(F @ R.T, H)
    np.testing.assert_array_equal(np.sum(F * R, axis=1), d)
    if hasattr(model, "features"):
        np.testing.assert_array_equal(model.features(P), F)
        assert F.shape == (5, 1 if family in ("bin", "kde-top-label") else 3)
    else:
        assert F.shape == R.shape == (5, 8)
    for i in range(5):
        for j in range(5):
            assert model.predict(P[i], P[j]) == pytest.approx(
                H[i, j], rel=1e-12, abs=1e-15
            )


@pytest.mark.parametrize("cls", [BinningModel, KdeModel, KkrModel, UkkrModel, SimModel])
def test_every_model_class_binds_the_factor_surfaces(cls):
    # bound in each class body, where per-class tracing finds them
    assert vars(cls)["pairwise"] is factor_pairwise
    assert vars(cls)["diag"] is factor_diag


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

    @pytest.mark.parametrize("num_bins", [1e20, 2e6])
    def test_rejects_too_many_bins(self, num_bins):
        ds = random_top_label(np.random.default_rng(6), 10)
        with pytest.raises(InputError, match="number of bins must be at most 1000000"):
            fit_binning(ds, num_bins)
        assert fit_binning(ds, 10**6).gaps.shape == (10**6,)


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

    # 1/b overflows at 1e-310 and 5e-324; at 1e-306 1/b is finite, but its
    # log-gamma is not
    @pytest.mark.parametrize("b", [1e-306, 1e-310, 5e-324])
    def test_bandwidth_with_overflowing_constants_is_rejected(self, b):
        ds = random_canonical(np.random.default_rng(10), 10, 3)
        with pytest.raises(InputError, match=f"bandwidth {b} "):
            fit_kde(ds, b)
        with pytest.raises(InputError, match="overflow"):
            kde_regress(ds, ds.probs, b)

    def test_top_label_regression(self):
        ds = random_top_label(np.random.default_rng(11), 50)
        ghat = kde_regress(ds, ds.probs, 0.5)
        assert ghat.shape == (50, 1)
        assert np.all((ghat >= 0.0) & (ghat <= 1.0))
        # the features are the confidence residuals, bit for bit
        np.testing.assert_array_equal(fit_kde(ds, 0.5).features(ds.probs),
                                      (ds.probs[:, 0] - ghat[:, 0])[:, None])

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


def kde_regress_plain_exp(train, queries, bandwidth):
    """The textbook Nadaraya-Watson form of kde_regress, one shot over every
    query: the log-kernel product, then a scale pass, a shift pass, a plain
    np.exp and a column sum for the denominators. Oracle only."""
    if bandwidth <= 0:
        raise InputError("bandwidth must be positive")
    Xs = clip_simplex(_as_simplex_points(train.probs))
    Qs = clip_simplex(_as_simplex_points(queries))
    d = Xs.shape[1]
    inv_b = 1.0 / bandwidth
    # log k_dir(x_i; q_j) = (1/b) <q_j, log x_i> + log B(q_j / b + 1)^-1
    log_w = (np.log(Xs) @ Qs.T) * inv_b
    log_w += (gammaln(d + inv_b) - gammaln(Qs * inv_b + 1.0).sum(axis=1))[None, :]
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(log_w)
    denom = w.sum(axis=0)
    bad = ~np.isfinite(denom) | (denom == 0.0)
    denom[bad] = 1.0
    if train.mode == CANONICAL:
        num = w.T @ one_hot(train.labels, train.dim)
        ghat = num / denom[:, None]
        ghat[bad] = np.nan
    else:
        num = w.T @ train.labels.astype(float)
        ghat = num / denom
        ghat[bad] = np.nan
        ghat = ghat[:, None]  # kde_regress's (m, 1) correctness column
    return ghat


def plain_exp(x):
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(x)


TINY = np.finfo(float).tiny
# every range _exp_inplace treats apart: dead (exp exactly 0), the band it
# patches (subnormal and tiny normal results), its fast floor, ordinary
# values, overflow, and the non-finite inputs
EXP_SWEEP = np.concatenate([
    [-np.inf, np.inf, np.nan, -1e6, -800.0, DEAD_CUTOFF, -745.5, -745.13,
     -745.1332191019412, -745.1332191019411, -745.0, -740.0, -720.0,
     -709.5, -708.4, -708.3964185322641, -705.0,
     np.nextafter(FAST_EXP_FLOOR, -np.inf), FAST_EXP_FLOOR,
     np.nextafter(FAST_EXP_FLOOR, np.inf), -699.0, -1.0, -0.0, 0.0, 1.0,
     50.0, 709.0, 709.8, 710.0],
    np.linspace(-746.0, -699.0, 4701),  # the band at a step of 0.01
])


class TestExpInplace:
    def test_constants_rest_on_numpy_facts(self):
        assert np.exp(DEAD_CUTOFF) == 0.0
        assert np.exp(np.nextafter(DEAD_CUTOFF, np.inf)) == 0.0
        floor = np.exp(FAST_EXP_FLOOR)
        assert np.isfinite(floor) and floor >= TINY  # a normal number

    def test_sweep_matches_np_exp_bit_for_bit(self):
        # the subnormal band and the patched lanes are exercised
        ref = plain_exp(EXP_SWEEP)
        assert np.any((ref > 0.0) & (ref < TINY))
        for shape in [(-1,), (1, -1), (EXP_SWEEP.size // 3, 3)]:
            x = EXP_SWEEP[: EXP_SWEEP.size // 3 * 3].reshape(shape).copy()
            out = _exp_inplace(x)
            assert out is x
            assert np.array_equal(x, plain_exp(EXP_SWEEP[: x.size]).reshape(shape),
                                  equal_nan=True)

    def test_empty(self):
        x = np.empty((0, 4))
        assert _exp_inplace(x).shape == (0, 4)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
            elements=st.one_of(
                st.floats(-1e6, -746.0),
                st.floats(-746.0, -700.0),
                st.floats(-700.5, -699.5),
                st.floats(-700.0, 710.0),
                st.sampled_from([-np.inf, np.inf, np.nan]),
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_mixes_match_np_exp(self, x):
        ref = plain_exp(x)
        assert np.array_equal(_exp_inplace(x.copy()), ref, equal_nan=True)


class TestKdeWeightsBitIdentity:
    """kde_regress with `_exp_inplace` equals kde_regress with a plain np.exp
    in its place bit for bit, NaN rows too: the fast path changes no weight."""

    @pytest.fixture
    def band_lanes(self, monkeypatch):
        # lanes _exp_inplace patches, counted so the tests show they reach them
        seen = []
        real = estimators._exp_inplace

        def counted(x):
            seen.append(int(np.count_nonzero((x > DEAD_CUTOFF) & (x < FAST_EXP_FLOOR))))
            return real(x)

        monkeypatch.setattr(estimators, "_exp_inplace", counted)
        return seen

    @staticmethod
    def with_plain_exp(train, queries, b):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_exp_inplace", plain_exp)
            return kde_regress(train, queries, b)

    @pytest.mark.parametrize("mode", [CANONICAL, TOP_LABEL])
    def test_full_default_grid(self, band_lanes, mode):
        ds = simulate(SimConfig(n=400, d=5, seed=5)).dataset
        if mode == TOP_LABEL:
            conf = ds.probs.max(axis=1)
            correct = (ds.labels == ds.probs.argmax(axis=1)).astype(int)
            ds = Dataset(conf[:, None], correct, TOP_LABEL)
        train, queries = ds.subset(np.arange(320)), ds.probs[320:]
        grid = default_grid("kde", mode, len(train))
        assert len(grid) == 20
        for b in grid:
            got = kde_regress(train, queries, b)
            assert np.array_equal(got, self.with_plain_exp(train, queries, b),
                                  equal_nan=True), b
        assert sum(band_lanes) > 0

    def test_nan_rows(self, band_lanes):
        # on this 20-row input kde_regress still rounds as the textbook form does
        P = np.tile([[0.98, 0.01, 0.01]], (20, 1))
        ds = Dataset(P, np.zeros(20, dtype=int), CANONICAL)
        queries = np.array([[0.01, 0.01, 0.98], [0.98, 0.01, 0.01],
                            [0.5, 0.3, 0.2]])
        for b in (1e-3, 1e-2, 3e-2, 0.1):
            got = kde_regress(ds, queries, b)
            assert np.array_equal(got, kde_regress_plain_exp(ds, queries, b),
                                  equal_nan=True), b
        assert np.isnan(kde_regress(ds, queries, 1e-3)[0]).all()


def blocked_rtol(n_train, d, bandwidth):
    """How far kde_regress may move from the one-shot textbook form by
    rounding alone: its products may sum each of the n_train nonnegative
    weights in another order (n_train * eps), whether BLAS picks another
    kernel for a query block or the weight sums ride in the label product,
    and round each log-weight in another order, which the weights see
    multiplied by 1/b: the d-term <q, log x>, |<q, log x>| <= -log(CLIP_EPS),
    with the 1/b scale and the shift folded into the same product."""
    eps = np.finfo(float).eps
    return n_train * eps + 2 * d * eps * -np.log(CLIP_EPS) / bandwidth


# a query far from every training point of the multi-block input: its
# weights underflow at small bandwidths
MIDDLE = 350


def multi_block_input(mode):
    """3000 training rows and 700 queries, so a 512 KiB block holds 21."""
    ds = simulate(SimConfig(n=3700, d=5, seed=3)).dataset
    if mode == TOP_LABEL:
        conf = ds.probs.max(axis=1)
        correct = (ds.labels == ds.probs.argmax(axis=1)).astype(int)
        ds = Dataset(conf[:, None], correct, TOP_LABEL)
    train, queries = ds.subset(np.arange(3000)), ds.probs[3000:].copy()
    queries[MIDDLE] = 0.01 if mode == TOP_LABEL else 0.2
    return train, queries


def sorted_position(queries, row):
    """Where kde_regress takes query `row`: queries go by top class, then
    top probability, of their clipped simplex points."""
    Qs = clip_simplex(_as_simplex_points(queries))
    order = np.lexsort((Qs.max(axis=1), Qs.argmax(axis=1)))
    return int(np.flatnonzero(order == row)[0])


class TestKdeBlocks:
    """kde_regress over query blocks, with each block's dead training columns
    skipped, equals the one-shot weights to rounding."""

    @pytest.fixture
    def block_shapes(self, monkeypatch):
        # the (queries, training columns) of every weight array kde_regress
        # exponentiates
        shapes = []
        real = estimators._exp_inplace

        def spy(x):
            assert x.nbytes <= KDE_BLOCK_BYTES
            shapes.append(x.shape)
            return real(x)

        monkeypatch.setattr(estimators, "_exp_inplace", spy)
        return shapes

    @pytest.mark.parametrize("mode", [CANONICAL, TOP_LABEL])
    def test_many_blocks_match_one_shot_over_default_grid(self, block_shapes, mode):
        train, queries = multi_block_input(mode)
        grid = default_grid("kde", mode, len(train))
        assert len(grid) == 20
        for b in grid:
            block_shapes.clear()
            got = kde_regress(train, queries, b)
            ref = kde_regress_plain_exp(train, queries, b)
            assert np.array_equal(np.isnan(got), np.isnan(ref)), b
            d = _as_simplex_points(queries).shape[1]
            np.testing.assert_allclose(got, ref, rtol=blocked_rtol(len(train), d, b),
                                       atol=0.0, err_msg=str(b))
        # equal blocks; at the smallest bandwidth some block skips columns
        widths = [s[0] for s in block_shapes]
        assert len(widths) > 2 and sum(widths) == len(queries)
        assert max(widths) - min(widths) <= 1
        assert all(s[1] <= len(train) for s in block_shapes)
        assert min(s[1] for s in block_shapes) < len(train)
        # the far query sorts to an end of the order, away from its own row,
        # so its NaN row shows the results go back in query order
        end = 0 if mode == CANONICAL else len(queries) - 1
        assert sorted_position(queries, MIDDLE) == end
        assert np.isnan(kde_regress(train, queries, grid[-1])[MIDDLE]).all()

    @pytest.mark.parametrize("mode", [CANONICAL, TOP_LABEL])
    def test_query_order_does_not_matter(self, mode):
        train, queries = multi_block_input(mode)
        perm = np.random.default_rng(4).permutation(len(queries))
        d = _as_simplex_points(queries).shape[1]
        for b in default_grid("kde", mode, len(train)):
            got = kde_regress(train, queries[perm], b)
            ref = kde_regress(train, queries, b)[perm]
            assert np.array_equal(np.isnan(got), np.isnan(ref)), b
            np.testing.assert_allclose(got, ref, rtol=blocked_rtol(len(train), d, b),
                                       atol=0.0, err_msg=str(b))

    def test_all_dead_block_gives_nan_rows(self, block_shapes):
        # 3000 identical training rows, so a block holds 21 queries: the 21
        # near ones sort into the first block and the 21 far ones, of
        # another top class, into the second, where every column is dead;
        # the far ones come first in query order
        P = np.tile([[0.98, 0.01, 0.01]], (3000, 1))
        ds = Dataset(P, np.zeros(3000, dtype=int), CANONICAL)
        queries = np.repeat([[0.01, 0.01, 0.98], [0.98, 0.01, 0.01]], 21, axis=0)
        ghat = kde_regress(ds, queries, 1e-3)
        assert block_shapes == [(21, 3000), (21, 0)]
        assert np.isnan(ghat[:21]).all()
        assert np.isfinite(ghat[21:]).all()

    def test_canonical_rows_sum_to_one(self, block_shapes):
        # the label numerators and the weight sums come from one product, so
        # a row's numerators add up to its denominator to rounding
        train, queries = multi_block_input(CANONICAL)
        tol = (len(train) + queries.shape[1]) * np.finfo(float).eps
        grid = default_grid("kde", CANONICAL, len(train))
        assert len(grid) == 20
        for b in grid:
            got = kde_regress(train, queries, b)
            finite = np.isfinite(got).all(axis=1)
            assert finite.any() and np.isnan(got[~finite]).all(), b
            np.testing.assert_allclose(got[finite].sum(axis=1), 1.0, rtol=0.0, atol=tol,
                                       err_msg=str(b))
        assert len(block_shapes) > 2 * len(grid)  # several blocks per call

    def test_small_input_is_one_block(self, block_shapes):
        # the input of TestKdeWeightsBitIdentity, which pins bit identity
        ds = simulate(SimConfig(n=400, d=5, seed=5)).dataset
        kde_regress(ds.subset(np.arange(320)), ds.probs[320:], 0.1)
        assert [s[0] for s in block_shapes] == [80]

    def test_no_queries(self):
        ds = random_canonical(np.random.default_rng(3), 30, 3)
        assert kde_regress(ds, np.empty((0, 3)), 0.1).shape == (0, 3)


class TestKkr:
    def test_n1_closed_form(self):
        ds = Dataset(np.array([[0.6, 0.4]]), np.array([0]), CANONICAL)
        s = float((0.6 - 1.0) ** 2 + 0.4**2)
        for lam in (0.0, 0.5, 2.0):
            model = fit_kkr(kkr_prepare(ds, 0.5), lam)
            p = np.array([0.3, 0.7])
            p2 = np.array([0.8, 0.2])
            k1 = rbf_kernel(ds.probs[0], p, 0.5)
            k2 = rbf_kernel(ds.probs[0], p2, 0.5)
            expected = k1 * s / (1.0 + lam) * k2
            assert model.predict(p, p2) == pytest.approx(expected, rel=1e-12)

    def test_ridge_limit(self):
        rng = np.random.default_rng(12)
        ds = random_canonical(rng, 10, 3)
        model = fit_kkr(kkr_prepare(ds, 0.5), 1e12)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        assert abs(model.predict(p, p2)) <= 1e-6

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        for n in range(2, 9):
            ds = random_canonical(rng, n, 3)
            for lam in (0.01, 1.0):
                model = fit_kkr(kkr_prepare(ds, 0.5), lam)
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
        model = fit_kkr(kkr_prepare(ds, 0.5), 0.1)
        p, p2 = rng.dirichlet(np.ones(4), size=2)
        assert model.predict(p, p2) == pytest.approx(
            model.predict(p2, p), abs=1e-10
        )

    def test_self_evaluation_nonnegative(self):
        rng = np.random.default_rng(16)
        ds = random_canonical(rng, 15, 3)
        model = fit_kkr(kkr_prepare(ds, 0.5), 0.5)
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
        model = fit_kkr(kkr_prepare(ds, 0.5), 0.1)
        model_perm = fit_kkr(kkr_prepare(ds_perm, 0.5), 0.1)
        p, p2 = rng.dirichlet(np.ones(4), size=2)
        assert model.predict(p, p2) == pytest.approx(
            model_perm.predict(p[perm], p2[perm]), rel=1e-10
        )

    def test_lambda_zero_singular_gram(self):
        probs = np.tile([[0.5, 0.5]], (5, 1))
        ds = Dataset(probs, np.zeros(5, dtype=int), CANONICAL)
        with pytest.raises(NumericError,
                           match=r"^lambda=0 with singular Gram matrix \(min eigenvalue "):
            fit_kkr(kkr_prepare(ds, 0.5), 0.0)
        with pytest.raises(InputError, match="^lambda must be nonnegative$"):
            fit_kkr(kkr_prepare(ds, 0.5), -1.0)


class TestUkkr:
    def test_n1_closed_form(self):
        ds = Dataset(np.array([[0.6, 0.4]]), np.array([0]), CANONICAL)
        s = float((0.6 - 1.0) ** 2 + 0.4**2)
        for lam in (0.0, 0.5, 2.0):
            model = fit_ukkr(kkr_prepare(ds, 0.5), lam)
            p = np.array([0.3, 0.7])
            p2 = np.array([0.8, 0.2])
            k1 = rbf_kernel(ds.probs[0], p, 0.5)
            k2 = rbf_kernel(ds.probs[0], p2, 0.5)
            expected = k1 * s * k2 / (1.0 + lam) ** 2
            assert model.predict(p, p2) == pytest.approx(expected, rel=1e-12)

    def test_ridge_limit(self):
        rng = np.random.default_rng(19)
        ds = random_canonical(rng, 10, 3)
        model = fit_ukkr(kkr_prepare(ds, 0.5), 1e12)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        assert abs(model.predict(p, p2)) <= 1e-12

    def test_matches_factored_oracle(self):
        # independent recomputation via W = (K + lam n I)^-1 Delta^T
        rng = np.random.default_rng(20)
        ds = random_canonical(rng, 3, 3)
        lam = 0.3
        model = fit_ukkr(kkr_prepare(ds, 0.5), lam)
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
        kkr = fit_kkr(kkr_prepare(ds, 0.5), 0.0)
        ukkr = fit_ukkr(kkr_prepare(ds, 0.5), 0.0)
        for p, p2 in np.split(rng.dirichlet(np.ones(3), size=10), 5):
            a = kkr.predict(p, p2)
            b = ukkr.predict(p, p2)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    def test_self_evaluation_nonnegative(self):
        rng = np.random.default_rng(22)
        ds = random_canonical(rng, 12, 3)
        model = fit_ukkr(kkr_prepare(ds, 0.5), 0.2)
        for p in rng.dirichlet(np.ones(3), size=10):
            assert model.predict(p, p) >= 0.0

    def test_lambda_zero_singular_gram(self):
        probs = np.tile([[0.5, 0.5]], (5, 1))
        ds = Dataset(probs, np.zeros(5, dtype=int), CANONICAL)
        with pytest.raises(NumericError,
                           match=r"^singular system in two-step solve \(min shifted eigenvalue "):
            fit_ukkr(kkr_prepare(ds, 0.5), 0.0)
        with pytest.raises(InputError, match="^lambda must be nonnegative$"):
            fit_ukkr(kkr_prepare(ds, 0.5), -1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        ds = random_canonical(rng, 10, 3)
        model = fit_ukkr(kkr_prepare(ds, 0.5), 0.1)
        p, p2 = rng.dirichlet(np.ones(3), size=2)
        assert model.predict(p, p2) == pytest.approx(
            model.predict(p2, p), abs=1e-12
        )


def rbf_gram_reference(X, Y, gamma):
    """`rbf_gram` as the textbook expression, one temporary per operation."""
    sq = np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None, :] - 2.0 * (X @ Y.T)
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-gamma * sq)


def stored_core_factors(model, P):
    """(F, R) of a kkr or ukkr model whose (n, n) core is formed at fit time,
    with the same operands and operation order as `factors`."""
    spec, lam = model.spectrum, model.lam
    Q, evals, n = spec.Q, spec.evals, spec.evals.size
    if isinstance(model, KkrModel):
        core = (1.0 / (np.outer(evals, evals) + lam * n * n)) * spec.QtGQ
        B = Q.T @ rbf_gram_reference(spec.X, P, spec.gamma)
    else:
        shifted = evals + lam * n
        core = Q @ (spec.QtGQ / np.outer(shifted, shifted)) @ Q.T
        B = rbf_gram_reference(spec.X, P, spec.gamma)
    return B.T, (core @ B).T


def full_rank_canonical(rng):
    while True:
        ds = random_canonical(rng, 8, 3)
        if np.linalg.cond(rbf_gram(ds.probs, ds.probs, 0.5)) < 1e6:
            return ds


@pytest.mark.parametrize("case", ["tce", "cce", "full-rank"])
@pytest.mark.parametrize("family, fit", [("kkr", fit_kkr), ("ukkr", fit_ukkr)])
def test_kernel_factors_equal_stored_core_bit_for_bit(case, family, fit):
    """A kkr or ukkr model is (spectrum, lam) and builds its core per call;
    its factors are those of a core stored at fit time, bit for bit."""
    rng = np.random.default_rng(24)
    if case == "full-rank":
        train, lams = full_rank_canonical(rng), [0.0, 1e-3]
        P = rng.dirichlet(np.ones(3), size=40)
    else:
        ds = simulate(SimConfig(n=160, seed=5)).dataset
        ds = top_label_dataset(ds) if case == "tce" else ds
        train, P = ds.subset(np.arange(120)), ds.probs[120:]
        lams = default_grid(family, train.mode, len(train))[::4]
    spectrum = kkr_prepare(train, 0.5)
    X = train.probs
    for Y in (X, P):
        np.testing.assert_array_equal(rbf_gram(X, Y, 0.5), rbf_gram_reference(X, Y, 0.5))
    # the reference in the (d, n) column arithmetic of residual columns delta
    delta = residual_matrix(train).T
    np.testing.assert_array_equal(
        spectrum.QtGQ, spectrum.Q.T @ (delta.T @ delta) @ spectrum.Q)
    for lam in lams:
        model = fit(spectrum, lam)
        assert model.spectrum is spectrum and model.lam == lam
        F, R = model.factors(P)
        F0, R0 = stored_core_factors(model, P)
        np.testing.assert_array_equal(F, F0)
        np.testing.assert_array_equal(R, R0)
        np.testing.assert_array_equal(model.diag(P), np.sum(F0 * R0, axis=1))
