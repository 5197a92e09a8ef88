import tracemalloc
import weakref

import numpy as np
import pytest

from calrisk.core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    residual_matrix,
    top_label_dataset,
)
from calrisk.estimators import (
    fit_binning,
    fit_kkr,
    kkr_prepare,
    rbf_gram,
    ukkr_cv_features,
    ukkr_rotated_core,
)
from calrisk import estimators, pipeline, risk
from calrisk.pipeline import (
    CvResult,
    Fold,
    GridPointResult,
    cross_validate,
    default_grid,
    final_estimate,
    fit_family,
    kfold_indices,
    kfold_splits,
    split_dataset,
)
from calrisk.risk import risk_from_matrix
from calrisk.sim import simulate, SimConfig
from oracles import dense_linear_risk, pair_target_matrix, random_canonical, random_top_label


def cv_on(tune, family, grid=None, k=5, seed=0, **kwargs):
    """cross_validate on `tune`'s k folds at `seed`, which also orders the
    linear risk's pairs."""
    return cross_validate(kfold_splits(tune, k, seed, 0.5), family, grid=grid,
                          seed=seed, **kwargs)


class ConstantModel:
    def __init__(self, c):
        self.c = c

    def diag(self, P):
        return np.full(len(P), self.c)


class TestSplitDataset:
    def test_sizes(self):
        ds = random_canonical(np.random.default_rng(0), 10, 3)
        tune, test = split_dataset(ds, 0.2, seed=0)
        assert (len(tune), len(test)) == (8, 2)

    def test_deterministic(self):
        ds = random_canonical(np.random.default_rng(1), 50, 3)
        a = split_dataset(ds, 0.2, seed=3)
        b = split_dataset(ds, 0.2, seed=3)
        np.testing.assert_array_equal(a[0].probs, b[0].probs)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_seeds_differ(self):
        ds = random_canonical(np.random.default_rng(2), 100, 3)
        a, _ = split_dataset(ds, 0.2, seed=0)
        b, _ = split_dataset(ds, 0.2, seed=1)
        assert not np.array_equal(a.probs, b.probs)

    def test_partition(self):
        ds = random_canonical(np.random.default_rng(3), 23, 3)
        tune, test = split_dataset(ds, 0.3, seed=0)
        assert len(tune) + len(test) == 23
        joined = np.vstack([tune.probs, test.probs])
        assert np.array_equal(
            np.sort(joined, axis=0), np.sort(ds.probs, axis=0)
        )

    def test_rejects_degenerate(self):
        ds = random_canonical(np.random.default_rng(4), 4, 3)
        with pytest.raises(InputError):
            split_dataset(ds, 0.2, seed=0)
        ds10 = random_canonical(np.random.default_rng(4), 10, 3)
        with pytest.raises(InputError):
            split_dataset(ds10, 1.5, seed=0)


class TestKfold:
    def test_partition_and_sizes(self):
        folds = kfold_indices(23, 5, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 5, 5, 5]
        assert sorted(np.concatenate(folds)) == list(range(23))

    def test_deterministic(self):
        a = kfold_indices(40, 5, seed=9)
        b = kfold_indices(40, 5, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            kfold_indices(10, 1, seed=0)
        with pytest.raises(InputError):
            kfold_indices(3, 5, seed=0)


class TestKfoldSplits:
    def test_folds_partition_tune(self, eigh_calls):
        tune = random_canonical(np.random.default_rng(24), 23, 3)
        folds = kfold_splits(tune, 5, 0, 0.5)

        def rows(*parts):
            return sorted(map(tuple, np.vstack(
                [np.column_stack([p.probs, p.labels]) for p in parts])))

        assert rows(*(f.hold for f in folds)) == rows(tune)
        assert all(rows(f.train, f.hold) == rows(tune) for f in folds)
        # 23 is not a multiple of 5: the one-extra folds come first, so the
        # first training part is the smallest, the default grid's n_train
        assert [len(f.hold) for f in folds] == [5, 5, 5, 4, 4]
        assert len(folds[0].train) == len(tune) * 4 // 5 == 18
        # the Gram is decomposed only when kkr or ukkr reads the spectrum
        cross_validate(folds, "kde", grid=[0.1])
        assert eigh_calls == []


class TestDefaultGrid:
    def test_bin_grid(self):
        assert default_grid("bin", TOP_LABEL, 400) == [5 * i for i in range(1, 21)]

    def test_kde_grid(self):
        grid = default_grid("kde", TOP_LABEL, 400)
        assert len(grid) == 20
        assert max(grid) == 1.0 and min(grid) == pytest.approx(1e-5)
        assert all(a > b for a, b in zip(grid, grid[1:]))
        for v in (0.2, 0.4, 0.6, 0.8, 1.0):
            assert any(np.isclose(v, g) for g in grid)

    def test_ridge_grids_scale_with_sqrt_n(self):
        for fam in ("kkr", "ukkr"):
            for mode in (TOP_LABEL, CANONICAL):
                g100 = np.array(default_grid(fam, mode, 100))
                g400 = np.array(default_grid(fam, mode, 400))
                np.testing.assert_allclose(g400 / g100, 2.0)

    def test_ridge_grid_sizes(self):
        assert len(default_grid("kkr", TOP_LABEL, 100)) == 9
        assert len(default_grid("ukkr", TOP_LABEL, 100)) == 9
        assert len(default_grid("kkr", CANONICAL, 100)) == 18
        assert len(default_grid("ukkr", CANONICAL, 100)) == 18

    def test_tce_kkr_endpoints(self):
        g = default_grid("kkr", TOP_LABEL, 100)
        assert g[0] == pytest.approx(10.0 * 1e-1)   # sqrt(100) * 10^(-2+1)
        assert g[-1] == pytest.approx(10.0 * 1e-17)  # sqrt(100) * 10^(-18+1)

    def test_unknown_family(self):
        with pytest.raises(InputError):
            default_grid("mystery", TOP_LABEL, 100)


class TestCrossValidate:
    def test_single_point_grid(self):
        ds = random_top_label(np.random.default_rng(5), 60)
        cv = cv_on(ds, "bin", grid=[10], k=5)
        assert cv.best_hyper == 10
        assert len(cv.fold_models) == 5
        assert cv.best.mean_risk == pytest.approx(
            np.mean([r.value for r in cv.best.fold_risks])
        )

    def test_tie_breaks_toward_simpler_model(self):
        # all confidences sit in [0.5, 1), so 1 and 2 bins fit identical
        # models with identical risks; the first grid entry must win
        rng = np.random.default_rng(6)
        conf = rng.uniform(0.5, 0.999, size=50)
        correct = (rng.random(50) < conf).astype(int)
        ds = Dataset(conf[:, None], correct, TOP_LABEL)
        cv = cv_on(ds, "bin", grid=[1, 2], k=5)
        assert cv.best_hyper == 1
        assert cv.best is cv.grid[0]

    def test_best_is_the_grid_point_of_least_mean_risk(self):
        ds = random_top_label(np.random.default_rng(7), 80)
        cv = cv_on(ds, "bin", grid=[20, 5, 10, 1], k=5)
        means = [p.mean_risk for p in cv.grid]
        assert len(set(means)) == len(means)
        assert cv.best is cv.grid[means.index(min(means))]
        assert cv.best_hyper == cv.best.hyper

    def test_fewer_than_two_folds_rejected(self):
        # one fold's risk has no standard error
        folds = kfold_splits(random_top_label(np.random.default_rng(9), 40), 2, 0, 0.5)
        for few in ([], folds[:1]):
            with pytest.raises(InputError, match=f"at least 2 folds, got {len(few)}"):
                cross_validate(few, "kde")

    def test_selects_true_temperature_on_simulation(self):
        sim = simulate(SimConfig(seed=0))
        tune, _ = split_dataset(sim.dataset, 0.2, seed=0)
        cv = cv_on(tune, "sim", k=5)
        assert 0.9 <= cv.best_hyper <= 1.1

    def test_deterministic(self):
        ds = random_top_label(np.random.default_rng(7), 80)
        a = cv_on(ds, "bin", k=5, seed=2)
        b = cv_on(ds, "bin", k=5, seed=2)
        assert a.best_hyper == b.best_hyper
        assert a.best.mean_risk == b.best.mean_risk

    def test_failed_points_are_recorded(self):
        # duplicated predictions make the Gram singular, so lambda=0 fails
        # on every fold while positive lambdas survive
        probs = np.tile([[0.6, 0.4]], (30, 1))
        labels = (np.random.default_rng(8).random(30) < 0.6).astype(int)
        ds = Dataset(probs, 1 - labels, CANONICAL)
        cv = cv_on(ds, "kkr", grid=[0.0, 0.5], k=5)
        assert cv.best_hyper == 0.5
        assert [h for h, _ in cv.skipped] == [0.0]

    @pytest.mark.parametrize("mode", ["tce", "cce"])
    def test_failed_point_is_not_fitted_again(self, monkeypatch, mode):
        # at a bandwidth of 1e-30 every kernel weight sum underflows, so the
        # first fold drops every holdout prediction
        ds = simulate(SimConfig(n=150, seed=3)).dataset
        tune = top_label_dataset(ds) if mode == "tce" else ds
        fitted = []
        holdout_risk = pipeline._holdout_risk

        def counted(family, fold, hyper, *args, **kwargs):
            fitted.append(hyper)
            return holdout_risk(family, fold, hyper, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_holdout_risk", counted)
        cv = cv_on(tune, "kde", grid=[1e-30, 0.1], k=5)
        assert list(cv.skipped) == [(1e-30, "no usable pairs (all predictions dropped)")]
        assert fitted.count(1e-30) == 1
        assert cv.best_hyper == 0.1

    @pytest.mark.parametrize("mode", ["tce", "cce"])
    def test_kde_prepares_each_fold_once(self, monkeypatch, mode):
        # one kde_prepare record per fold, of its training part and holdout
        # rows, dropped before the next fold's; one kde_regress call on it
        # per bandwidth
        prepared, regressed = [], []
        kde_prepare, kde_regress = estimators.kde_prepare, estimators.kde_regress

        def counted_prepare(train, queries):
            assert all(ref() is None for _, _, ref in prepared)
            prep = kde_prepare(train, queries)
            prepared.append((train, queries, weakref.ref(prep)))
            return prep

        def counted_regress(prep, bandwidth):
            regressed.append((len(prepared) - 1, prep is prepared[-1][2](), bandwidth))
            return kde_regress(prep, bandwidth)

        monkeypatch.setattr(pipeline, "kde_prepare", counted_prepare)
        monkeypatch.setattr(estimators, "kde_regress", counted_regress)
        ds = simulate(SimConfig(n=150, seed=3)).dataset
        tune = top_label_dataset(ds) if mode == "tce" else ds
        folds = kfold_splits(tune, 5, 0, 0.5)
        cv = cross_validate(folds, "kde")
        assert cv.skipped == ()
        grid = default_grid("kde", tune.mode, len(folds[0].train))
        assert len(prepared) == len(folds)
        for (train, queries, _), fold in zip(prepared, folds):
            assert train is fold.train and queries is fold.hold.probs
        assert regressed == [(i, True, b) for i in range(len(folds)) for b in grid]

    def test_all_points_failing_raises(self):
        probs = np.tile([[0.6, 0.4]], (30, 1))
        ds = Dataset(probs, np.zeros(30, dtype=int), CANONICAL)
        with pytest.raises(NumericError):
            cv_on(ds, "kkr", grid=[0.0], k=5)

    def test_empty_grid_rejected(self):
        ds = random_top_label(np.random.default_rng(9), 40)
        with pytest.raises(InputError):
            cv_on(ds, "bin", grid=[], k=5)

    def test_tiny_folds_rejected(self):
        # below 2k tuning samples some holdout fold has one sample and no pairs
        with pytest.raises(InputError, match="at least 10 tuning samples"):
            kfold_splits(random_top_label(np.random.default_rng(18), 9), 5, 0, 0.5)
        folds = kfold_splits(random_top_label(np.random.default_rng(18), 10), 5, 0, 0.5)
        cv = cross_validate(folds, "bin", grid=[5])
        assert cv.best_hyper == 5

    def test_bad_fold_count_rejected_before_the_default_grid(self):
        ds = random_top_label(np.random.default_rng(11), 40)
        for k in (0, 1):
            with pytest.raises(InputError, match="need k >= 2 folds"):
                kfold_splits(ds, k, 0, 0.5)

    @pytest.mark.parametrize("mode,family", [(CANONICAL, "bin"), (TOP_LABEL, "sim")])
    def test_family_of_other_mode_rejected(self, mode, family):
        ds = random_canonical(np.random.default_rng(23), 40, 3)
        if mode == TOP_LABEL:
            ds = top_label_dataset(ds)
        with pytest.raises(InputError, match=f"the {family} family needs"):
            cv_on(ds, family, k=5)

    def test_linear_risk_switch(self):
        ds = random_top_label(np.random.default_rng(10), 60)
        quad = cv_on(ds, "bin", grid=[5, 10], k=5)
        lin = cv_on(ds, "bin", grid=[5, 10], k=5, linear=True)
        assert lin.best_hyper in (5, 10)
        assert lin.best.mean_risk != quad.best.mean_risk  # different pair sets


def dense_cv_reference(tune, family, grid, k, seed):
    """Holdout risks per grid point from each fold model's (m, m) matrix."""
    folds = [Fold(tune.subset(np.setdiff1d(np.arange(len(tune)), hold)), tune.subset(hold), 0.5)
             for hold in kfold_indices(len(tune), k, seed)]
    risks, skipped = {}, []
    for hyper in grid:
        try:
            risks[hyper] = []
            for fold in folds:
                H = fit_family(family, fold, hyper).pairwise(fold.hold.probs)
                risks[hyper].append(risk_from_matrix(H, residual_matrix(fold.hold)))
        except NumericError:
            del risks[hyper]
            skipped.append(hyper)
    return risks, skipped


KDE_GRID = [1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5]


@pytest.mark.parametrize("mode,family,grid", [
    ("tce", "bin", None),
    ("tce", "kde", KDE_GRID),
    ("cce", "kde", KDE_GRID),
    ("cce", "sim", None),
])
def test_factored_cv_matches_dense_reference(mode, family, grid):
    ds = simulate(SimConfig(n=300, seed=4)).dataset
    tune = top_label_dataset(ds) if mode == "tce" else ds
    cv = cv_on(tune, family, grid=grid, k=5, seed=1)
    grid = grid or default_grid(family, tune.mode, len(tune) * 4 // 5)
    risks, skipped = dense_cv_reference(tune, family, grid, 5, 1)
    assert [h for h, _ in cv.skipped] == skipped
    assert [p.hyper for p in cv.grid] == list(risks)
    for point in cv.grid:
        want = risks[point.hyper]
        assert point.mean_risk == pytest.approx(np.mean([r.value for r in want]), rel=1e-12)
        assert [(r.pairs_used, r.dropped_nan) for r in point.fold_risks] == [
            (r.pairs_used, r.dropped_nan) for r in want]
    means = {h: np.mean([r.value for r in rs]) for h, rs in risks.items()}
    assert cv.best_hyper == min(means, key=means.get)
    if (mode, family) == ("cce", "kde"):
        # the smallest bandwidths underflow the kernel weights of some rows
        assert sum(r.dropped_nan for p in cv.grid for r in p.fold_risks) > 0


def dense_linear_fold_risks(tune, family, grid, k, seed):
    """Linear holdout risks per grid point, read from each fold's (m, m)
    prediction and target matrices, and the first failure reason per
    skipped point. ukkr's predictions are its cross-validation rows' Gram."""
    risks, skipped = {h: [] for h in grid}, {}
    for hold in kfold_indices(len(tune), k, seed):
        fold = Fold(tune.subset(np.setdiff1d(np.arange(len(tune)), hold)), tune.subset(hold), 0.5)
        T = pair_target_matrix(fold.hold)
        for hyper in grid:
            if hyper in skipped:
                continue
            try:
                if family == "ukkr":
                    F = ukkr_cv_features(fold.spectrum, fold.basis, hyper)
                    H = F @ F.T
                else:
                    H = fit_family(family, fold, hyper).pairwise(fold.hold.probs)
                risks[hyper].append(dense_linear_risk(H, T, seed))
            except NumericError as exc:
                skipped[hyper] = str(exc)
    return {h: r for h, r in risks.items() if h not in skipped}, skipped


@pytest.mark.parametrize("mode,family,grid,alpha", [
    ("tce", "bin", None, 0.04),
    ("tce", "kde", KDE_GRID, 0.04),
    # on every fold of some point the kernel weights of all scored rows underflow
    ("cce", "kde", KDE_GRID, 0.04),
    # at 1e-5 some of the scored rows underflow, at 1e-4 fewer
    ("cce", "kde", KDE_GRID, 0.5),
    ("tce", "kkr", None, 0.04),
    ("cce", "kkr", None, 0.04),
    ("tce", "ukkr", None, 0.04),
    ("cce", "ukkr", None, 0.04),
    ("cce", "sim", None, 0.04),
])
def test_linear_cv_matches_dense_reference(mode, family, grid, alpha):
    ds = simulate(SimConfig(n=300, alpha=alpha, seed=4)).dataset
    tune = top_label_dataset(ds) if mode == "tce" else ds
    cv = cv_on(tune, family, grid=grid, k=5, seed=1, linear=True)
    grid = grid or default_grid(family, tune.mode, len(tune) * 4 // 5)
    risks, skipped = dense_linear_fold_risks(tune, family, grid, 5, 1)
    assert list(cv.skipped) == list(skipped.items())
    assert [p.hyper for p in cv.grid] == list(risks)
    for point in cv.grid:
        want = risks[point.hyper]
        assert [r.value for r in point.fold_risks] == pytest.approx(
            [r.value for r in want], rel=1e-12)
        assert [(r.pairs_used, r.dropped_nan) for r in point.fold_risks] == [
            (r.pairs_used, r.dropped_nan) for r in want]
    if (mode, family) == ("cce", "kde"):
        dropped = {p.hyper: sum(r.dropped_nan for r in p.fold_risks) for p in cv.grid}
        if alpha == 0.5:
            assert dropped[1e-5] > dropped[1e-4] > 0
        else:
            assert dict(cv.skipped)[1e-5] == "no usable pairs (all predictions dropped)"


def ukkr_dense_fold_risks(tune, grid, k, seed, gamma=0.5):
    """ukkr holdout risks per grid point from each fold's dense rotated core,
    and the first failure reason per skipped point."""
    risks, skipped = {h: [] for h in grid}, {}
    for fold in kfold_indices(len(tune), k, seed):
        train = tune.subset(np.setdiff1d(np.arange(len(tune)), fold))
        hold = tune.subset(fold)
        spectrum = kkr_prepare(train, gamma)
        basis = spectrum.Q.T @ rbf_gram(spectrum.X, hold.probs, gamma)
        D = residual_matrix(hold)
        for hyper in grid:
            try:
                core = ukkr_rotated_core(spectrum, hyper)
            except NumericError as exc:
                skipped.setdefault(hyper, str(exc))
                continue
            risks[hyper].append(risk_from_matrix(basis.T @ (core @ basis), D))
    return {h: r for h, r in risks.items() if h not in skipped}, skipped


class TestUkkrFactoredCv:
    """ukkr ranks its lambda grid from (m, d) holdout rows; the ranking and
    the skips must be those of its dense (m, m) prediction matrices."""

    def check(self, tune, grid=None, k=5, seed=1):
        cv = cv_on(tune, "ukkr", grid=grid, k=k, seed=seed)
        grid = grid or default_grid("ukkr", tune.mode, len(tune) * (k - 1) // k)
        risks, skipped = ukkr_dense_fold_risks(tune, grid, k, seed)
        assert list(cv.skipped) == list(skipped.items())
        assert [p.hyper for p in cv.grid] == list(risks)
        for point in cv.grid:
            want = risks[point.hyper]
            assert [r.value for r in point.fold_risks] == pytest.approx(
                [r.value for r in want], rel=1e-12)
            assert [(r.pairs_used, r.dropped_nan) for r in point.fold_risks] == [
                (r.pairs_used, r.dropped_nan) for r in want]
        means = {h: np.mean([r.value for r in rs]) for h, rs in risks.items()}
        assert cv.best_hyper == min(means, key=means.get)
        return cv

    @pytest.mark.parametrize("mode", ["tce", "cce"])
    def test_default_grid_matches_dense_cores(self, mode):
        ds = simulate(SimConfig(n=300, seed=4)).dataset
        self.check(top_label_dataset(ds) if mode == "tce" else ds)

    def test_rank_deficient_gram_skips_lambda_zero_alike(self):
        # ten distinct confidences: every fold's Gram has rank <= 10
        rng = np.random.default_rng(30)
        conf = rng.choice(np.linspace(0.3, 0.95, 10), size=60)
        correct = (rng.random(60) < conf).astype(int)
        cv = self.check(Dataset(conf[:, None], correct, TOP_LABEL),
                        grid=[0.0, 1e-3, 0.1])
        assert [h for h, _ in cv.skipped] == [0.0]
        assert cv.skipped[0][1].startswith("singular system in two-step solve")

    def test_negative_lambda_raises(self):
        tune = random_canonical(np.random.default_rng(31), 50, 3)
        with pytest.raises(InputError, match="lambda must be nonnegative"):
            cv_on(tune, "ukkr", grid=[0.1, -1.0], k=5)
        spectrum = kkr_prepare(tune, 0.5)
        with pytest.raises(InputError, match="lambda must be nonnegative"):
            ukkr_cv_features(spectrum, np.zeros((50, 4)), -1.0)

    def test_rotated_core_serves_only_the_refits(self, ukkr_core_calls):
        # the grid is ranked from holdout rows and the refits keep no core:
        # each fold model builds it when it predicts, once per estimate
        tune = random_canonical(np.random.default_rng(32), 50, 3)
        cv = cv_on(tune, "ukkr", grid=[0.01, 0.1, 1.0], k=5)
        assert ukkr_core_calls == []
        final_estimate(cv.fold_models, random_canonical(np.random.default_rng(33), 20, 3))
        assert ukkr_core_calls == [cv.best_hyper] * 5


@pytest.mark.parametrize("family", ["kkr", "ukkr"])
def test_fold_models_keep_no_core(family):
    """The k fold models of a cross-validation hold their fold's spectrum and
    lambda, not an (n_train, n_train) core each."""
    tune = random_canonical(np.random.default_rng(34), 250, 3)
    folds = kfold_splits(tune, 5, 0, 0.5)
    for fold in folds:
        fold.basis  # the spectra and bases are the folds', built beforehand
    n_train = len(folds[0].train)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cv = cross_validate(folds, family, grid=[0.01, 0.1, 1.0])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert n_train >= 200 and len(cv.fold_models) == 5
    assert kept < n_train * n_train * 8


class TestSharedSpectra:
    def test_refits_reuse_the_fold_spectrum(self, eigh_calls):
        tune = random_canonical(np.random.default_rng(20), 50, 3)
        cv_on(tune, "kkr", grid=[0.1, 1.0], k=5)
        assert len(eigh_calls) == 5

    @pytest.mark.parametrize("family", ["kkr", "ukkr"])
    def test_refits_hold_the_fold_spectrum(self, family):
        tune = random_canonical(np.random.default_rng(20), 50, 3)
        folds = kfold_splits(tune, 5, 0, 0.5)
        cv = cross_validate(folds, family, grid=[0.1, 1.0])
        assert len(cv.fold_models) == 5
        assert all(model.spectrum is fold.spectrum
                   for model, fold in zip(cv.fold_models, folds))

    @pytest.mark.parametrize("family", ["kkr", "ukkr"])
    def test_gram_below_the_eigenvalue_floor_ends_the_call(self, monkeypatch, family):
        # the failed decomposition is not cached, so without the basis
        # prefetch each grid point would decompose again and be skipped
        calls = []
        eigh = np.linalg.eigh

        def negative(a, *args, **kwargs):
            calls.append(a.shape)
            evals, Q = eigh(a, *args, **kwargs)
            evals[0] = -1.0
            return evals, Q

        monkeypatch.setattr(np.linalg, "eigh", negative)
        tune = random_canonical(np.random.default_rng(33), 50, 3)
        with pytest.raises(NumericError, match=r"^Gram matrix eigenvalue -1\.0 below"):
            cv_on(tune, family, grid=[0.1, 1.0], k=5)
        assert len(calls) == 1


@pytest.mark.parametrize("mode", ["tce", "cce"])
def test_kkr_holdout_factors_are_the_fitted_models(monkeypatch, mode):
    # the holdout risk reuses the fold's basis, yet per fold and lambda its
    # (F, R) and H = F R^T are those of the model `fit_kkr` returns
    ds = random_canonical(np.random.default_rng(34), 60, 3)
    tune = top_label_dataset(ds) if mode == "tce" else ds
    grid = [1e-3, 0.1, 1.0]
    folds = kfold_splits(tune, 5, 0, 0.5)
    seen = {"linear": [], "matrix": []}
    linear, matrix = pipeline.linear_risk, risk.risk_from_matrix

    def record_linear(F, R, D, seed):
        seen["linear"].append((F, R))
        return linear(F, R, D, seed)

    def record_matrix(H, D):
        seen["matrix"].append(H)
        return matrix(H, D)

    monkeypatch.setattr(pipeline, "linear_risk", record_linear)
    monkeypatch.setattr(risk, "risk_from_matrix", record_matrix)
    cross_validate(folds, "kkr", grid=grid, linear=True)
    cross_validate(folds, "kkr", grid=grid)
    points = [(fold, lam) for fold in folds for lam in grid]
    assert len(seen["linear"]) == len(seen["matrix"]) == len(points)
    for (fold, lam), (F, R), H in zip(points, seen["linear"], seen["matrix"]):
        model = fit_kkr(fold.spectrum, lam)
        want_F, want_R = model.factors(fold.hold.probs)
        np.testing.assert_array_equal(F, want_F)
        np.testing.assert_array_equal(R, want_R)
        np.testing.assert_array_equal(H, model.pairwise(fold.hold.probs))


def test_grid_point_mean_and_standard_error_of_its_fold_risks():
    fold_risks = tuple(risk.RiskValue(v, 2, 0) for v in (0.03, 0.011, 0.027, 0.02))
    point = GridPointResult(5, fold_risks)
    values = np.array([0.03, 0.011, 0.027, 0.02])
    assert point.mean_risk == float(values.mean())
    assert point.risk_se == float(values.std(ddof=1) / np.sqrt(4))


class TestBestAtGridEdge:
    @staticmethod
    def result(best, tried, skipped=()):
        points = tuple(GridPointResult(h, ()) for h in tried)
        return CvResult("bin", points[tried.index(best)], (), points,
                        tuple((h, "failed") for h in skipped))

    def test_winner_at_either_end_is_at_the_edge(self):
        assert self.result(5, [5, 10, 15]).best_at_grid_edge is True
        assert self.result(15, [5, 10, 15]).best_at_grid_edge is True
        # a skipped point counts as tried
        assert self.result(10, [10], skipped=[5]).best_at_grid_edge is True

    def test_interior_or_single_point_is_not(self):
        assert self.result(10, [5, 10, 15]).best_at_grid_edge is False
        assert self.result(15, [15]).best_at_grid_edge is False
        # the grid reached past the winner, but that point failed
        assert self.result(15, [10, 15], skipped=[20]).best_at_grid_edge is False


class TestFinalEstimate:
    def test_single_constant_model(self):
        ds = random_canonical(np.random.default_rng(11), 10, 3)
        est = final_estimate([ConstantModel(0.04)], ds)
        assert est.squared_value == pytest.approx(0.04)
        assert est.value == pytest.approx(0.2)
        assert not est.clipped

    def test_two_constant_models_average(self):
        ds = random_canonical(np.random.default_rng(12), 10, 3)
        est = final_estimate([ConstantModel(0.04), ConstantModel(0.16)], ds)
        assert est.squared_value == pytest.approx(0.10)

    def test_negative_square_is_clipped_and_flagged(self):
        ds = random_canonical(np.random.default_rng(13), 10, 3)
        est = final_estimate([ConstantModel(-0.01)], ds)
        assert est.clipped and est.value == 0.0
        assert est.squared_value == pytest.approx(-0.01)

    def test_report_entry_of_a_clipped_estimate(self, monkeypatch):
        # the squared estimate of a negative constant model is below 0
        real = pipeline.final_estimate
        monkeypatch.setattr(pipeline, "final_estimate",
                            lambda models, test: real([ConstantModel(-0.01)], test))
        ds = random_canonical(np.random.default_rng(13), 60, 3)
        report, _ = pipeline.run_evaluate(pipeline.RunConfig(families=("bin15",)), ds)
        entry = report["families"]["bin15"]
        assert entry["estimate_squared"] == pytest.approx(-0.01)
        assert entry["estimate"] == 0.0 and entry["estimate_clipped"] is True

    def test_binning_reproduces_plugin_identity(self):
        ds = random_top_label(np.random.default_rng(14), 150)
        model = fit_binning(ds, 15)
        est = final_estimate([model], ds)
        direct = float(np.sum(model.counts / len(ds) * model.gaps**2))
        assert est.squared_value == pytest.approx(direct, abs=1e-12)

    def test_nan_predictions_dropped(self):
        class HoleyModel:
            def diag(self, P):
                out = np.full(len(P), 0.25)
                out[0] = np.nan
                return out

        ds = random_canonical(np.random.default_rng(15), 10, 3)
        est = final_estimate([HoleyModel(), ConstantModel(0.25)], ds)
        assert est.dropped_nan == 1
        assert est.squared_value == pytest.approx(0.25)

    def test_all_nan_raises(self):
        class NanModel:
            def diag(self, P):
                return np.full(len(P), np.nan)

        ds = random_canonical(np.random.default_rng(16), 5, 3)
        with pytest.raises(NumericError):
            final_estimate([NanModel()], ds)

    def test_rejects_empty_inputs(self):
        ds = random_canonical(np.random.default_rng(17), 5, 3)
        with pytest.raises(InputError):
            final_estimate([], ds)


class TestEndToEnd:
    def test_pipeline_determinism(self):
        ds = random_top_label(np.random.default_rng(18), 100)
        results = []
        for _ in range(2):
            tune, test = split_dataset(ds, 0.2, seed=5)
            cv = cv_on(tune, "bin", k=5, seed=5)
            est = final_estimate(cv.fold_models, test)
            results.append((cv.best_hyper, cv.best.mean_risk, est.squared_value))
        assert results[0] == results[1]

    def test_kernel_families_run_end_to_end(self):
        ds = random_canonical(np.random.default_rng(19), 60, 3)
        tune, test = split_dataset(ds, 0.2, seed=0)
        for fam in ("kde", "kkr", "ukkr"):
            cv = cv_on(tune, fam, k=4, seed=0)
            est = final_estimate(cv.fold_models, test)
            assert np.isfinite(est.value)
