import numpy as np
import pytest

from calrisk.core import CANONICAL, TOP_LABEL, Dataset, InputError, NumericError
from calrisk.estimators import fit_binning
from calrisk.pipeline import (
    cross_validate,
    default_grid,
    final_estimate,
    kfold_indices,
    split_dataset,
)
from calrisk.sim import simulate, SimConfig


def random_canonical(rng, n, d):
    P = rng.dirichlet(np.ones(d), size=n)
    labels = np.array([rng.choice(d, p=row) for row in P])
    return Dataset(P, labels, CANONICAL)


def random_top_label(rng, n):
    conf = rng.uniform(0.2, 1.0, size=n)
    correct = (rng.random(n) < conf).astype(int)
    return Dataset(conf[:, None], correct, TOP_LABEL)


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
        cv = cross_validate(ds, "bin", grid=[10], k=5)
        assert cv.best_hyper == 10
        assert len(cv.fold_models) == 5
        assert cv.mean_risk == pytest.approx(
            np.mean([r.value for r in cv.fold_risks])
        )

    def test_tie_breaks_toward_simpler_model(self):
        # all confidences sit in [0.5, 1), so 1 and 2 bins fit identical
        # models with identical risks; the first grid entry must win
        rng = np.random.default_rng(6)
        conf = rng.uniform(0.5, 0.999, size=50)
        correct = (rng.random(50) < conf).astype(int)
        ds = Dataset(conf[:, None], correct, TOP_LABEL)
        cv = cross_validate(ds, "bin", grid=[1, 2], k=5)
        assert cv.best_hyper == 1

    def test_selects_true_temperature_on_simulation(self):
        sim = simulate(SimConfig(seed=0))
        tune, _ = split_dataset(sim.dataset, 0.2, seed=0)
        cv = cross_validate(tune, "sim", k=5)
        assert 0.9 <= cv.best_hyper <= 1.1

    def test_deterministic(self):
        ds = random_top_label(np.random.default_rng(7), 80)
        a = cross_validate(ds, "bin", k=5, seed=2)
        b = cross_validate(ds, "bin", k=5, seed=2)
        assert a.best_hyper == b.best_hyper
        assert a.mean_risk == b.mean_risk

    def test_failed_points_are_recorded(self):
        # duplicated predictions make the Gram singular, so lambda=0 fails
        # on every fold while positive lambdas survive
        probs = np.tile([[0.6, 0.4]], (30, 1))
        labels = (np.random.default_rng(8).random(30) < 0.6).astype(int)
        ds = Dataset(probs, 1 - labels, CANONICAL)
        cv = cross_validate(ds, "kkr", grid=[0.0, 0.5], k=5)
        assert cv.best_hyper == 0.5
        assert [h for h, _ in cv.skipped] == [0.0]

    def test_all_points_failing_raises(self):
        probs = np.tile([[0.6, 0.4]], (30, 1))
        ds = Dataset(probs, np.zeros(30, dtype=int), CANONICAL)
        with pytest.raises(NumericError):
            cross_validate(ds, "kkr", grid=[0.0], k=5)

    def test_empty_grid_rejected(self):
        ds = random_top_label(np.random.default_rng(9), 40)
        with pytest.raises(InputError):
            cross_validate(ds, "bin", grid=[], k=5)

    def test_tiny_folds_rejected(self):
        # below 2k tuning samples some holdout fold has one sample and no pairs
        with pytest.raises(InputError, match="at least 10 tuning samples"):
            cross_validate(random_top_label(np.random.default_rng(18), 9), "bin",
                           grid=[5], k=5)
        cv = cross_validate(random_top_label(np.random.default_rng(18), 10), "bin",
                            grid=[5], k=5)
        assert cv.best_hyper == 5

    def test_linear_risk_switch(self):
        ds = random_top_label(np.random.default_rng(10), 60)
        quad = cross_validate(ds, "bin", grid=[5, 10], k=5)
        lin = cross_validate(ds, "bin", grid=[5, 10], k=5, linear=True)
        assert lin.best_hyper in (5, 10)
        assert lin.mean_risk != quad.mean_risk  # different pair sets


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
            cv = cross_validate(tune, "bin", k=5, seed=5)
            est = final_estimate(cv.fold_models, test)
            results.append((cv.best_hyper, cv.mean_risk, est.squared_value))
        assert results[0] == results[1]

    def test_kernel_families_run_end_to_end(self):
        ds = random_canonical(np.random.default_rng(19), 60, 3)
        tune, test = split_dataset(ds, 0.2, seed=0)
        for fam in ("kde", "kkr", "ukkr"):
            cv = cross_validate(tune, fam, k=4, seed=0)
            est = final_estimate(cv.fold_models, test)
            assert np.isfinite(est.value)
