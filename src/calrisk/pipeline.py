"""Train/validate/test calibration-evaluation pipeline.

The tuning split is cross-validated: each hyperparameter grid point is
fitted on k-1 folds and scored by the empirical risk on the held-out fold,
the point with minimal mean holdout risk wins, and the k fold models at the
winner act as an ensemble for the final test-set estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TOP_LABEL, InputError, NumericError, kfold_indices, pair_target_matrix
from .estimators import (
    fit_binning,
    fit_kde,
    fit_kkr,
    fit_ukkr,
    kkr_core,
    kkr_prepare,
    rbf_gram,
    ukkr_rotated_core,
)
from .risk import linear_risk_from_matrix, risk_from_matrix
from .sim import DEFAULT_THETAS, SimModel

FAMILIES = ("bin", "kde", "kkr", "ukkr", "sim")


@dataclass(frozen=True)
class GridPointResult:
    hyper: float
    fold_risks: tuple
    mean_risk: float
    risk_se: float


@dataclass(frozen=True)
class CvResult:
    family: str
    best_hyper: float
    fold_models: tuple
    fold_risks: tuple
    mean_risk: float
    risk_se: float
    grid: tuple          # GridPointResult per successful grid point, grid order
    skipped: tuple       # (hyper, reason) for failed grid points


@dataclass(frozen=True)
class CalibrationEstimate:
    squared_value: float
    value: float
    clipped: bool
    fold_se: float
    dropped_nan: int


def split_dataset(ds, test_fraction, seed):
    """Seeded shuffle, then split into tuning and test subsets."""
    n = len(ds)
    if n < 5:
        raise InputError("need at least 5 samples to split")
    if not 0.0 < test_fraction < 1.0:
        raise InputError("test fraction must lie in (0, 1)")
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise InputError("degenerate split sizes")
    order = np.random.default_rng(seed).permutation(n)
    return ds.subset(order[n_test:]), ds.subset(order[:n_test])


def default_grid(family, mode, n_train):
    """Hyperparameter search spaces; ridge constants scale with sqrt(n)."""
    root_n = float(np.sqrt(n_train))
    if family == "bin":
        return [5 * i for i in range(1, 21)]
    if family == "kde":
        log_spaced = [
            10.0 ** (-5.0 * (i - 1) / 14 - (1.0 - (i - 1) / 14))
            for i in range(1, 16)
        ]
        linear = [0.2 * i for i in range(1, 6)]
        return sorted(set(linear + log_spaced), reverse=True)
    if family == "kkr":
        if mode == TOP_LABEL:
            return [root_n * 10.0 ** (-2 * i + 1) for i in range(1, 10)]
        return [root_n * 10.0 ** (-i + 9) for i in range(1, 19)]
    if family == "ukkr":
        if mode == TOP_LABEL:
            return [root_n * 10.0 ** (-i) for i in range(1, 10)]
        return [root_n * 10.0 ** (-0.5 * i + 4.5) for i in range(1, 19)]
    if family == "sim":
        return list(DEFAULT_THETAS)
    raise InputError(f"unknown family {family!r}")


def fit_family(family, train, hyper, gamma=0.5, model_temp=0.3):
    """Fit one model of the given family at one hyperparameter point."""
    if family == "bin":
        return fit_binning(train, int(hyper))
    if family == "kde":
        return fit_kde(train, hyper)
    if family == "kkr":
        return fit_kkr(train, hyper, gamma)
    if family == "ukkr":
        return fit_ukkr(train, hyper, gamma)
    if family == "sim":
        return SimModel(float(hyper), model_temp)
    raise InputError(f"unknown family {family!r}")


def _fold_prediction_matrices(family, train, hold, grid, gamma, model_temp):
    """Holdout prediction matrices per grid point, sharing fold-level work.

    Kernel ridge variants reuse one Gram eigendecomposition and one
    holdout basis across the whole lambda grid.
    """
    P = hold.probs
    out = {}
    if family in ("kkr", "ukkr"):
        prep = kkr_prepare(train, gamma)
        n = len(train)
        # both families predict in the Gram eigenbasis, so each lambda
        # costs one (n, n) x (n, m) product instead of O(n^3)
        basis = prep[1].T @ rbf_gram(prep[0], P, gamma)
        core_fn = kkr_core if family == "kkr" else ukkr_rotated_core
        for hyper in grid:
            try:
                core = core_fn(prep, hyper, n)
            except NumericError as exc:
                out[hyper] = exc
                continue
            out[hyper] = basis.T @ (core @ basis)
        return out
    for hyper in grid:
        try:
            model = fit_family(family, train, hyper, gamma, model_temp)
            out[hyper] = model.pairwise(P)
        except (NumericError, InputError) as exc:
            out[hyper] = exc
    return out


def cross_validate(tune, family, grid=None, k=5, gamma=0.5, seed=0,
                   linear=False, model_temp=0.3):
    """Grid search by k-fold cross-validated empirical risk.

    Returns the winning grid point together with its k fold models, which
    downstream code uses as an ensemble. Grid points that fail to fit (or
    whose predictions are all dropped) on any fold are skipped and recorded.
    """
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    if len(tune) < 2 * k:
        # a one-sample holdout fold has no pairs to score at any grid point
        raise InputError(
            f"{k}-fold cross-validation needs at least {2 * k} tuning "
            f"samples, got {len(tune)}"
        )
    if grid is None:
        grid = default_grid(family, tune.mode, len(tune) * (k - 1) // k)
    grid = list(grid)
    if not grid:
        raise InputError("empty hyperparameter grid")
    folds = kfold_indices(len(tune), k, seed)
    all_idx = np.arange(len(tune))
    risk_table = {h: [] for h in grid}
    failures = {}
    fold_splits = []
    for fold in folds:
        train_idx = np.setdiff1d(all_idx, fold, assume_unique=True)
        train, hold = tune.subset(train_idx), tune.subset(fold)
        fold_splits.append(train)
        T = pair_target_matrix(hold)
        mats = _fold_prediction_matrices(family, train, hold, grid, gamma, model_temp)
        for hyper in grid:
            H = mats[hyper]
            if isinstance(H, Exception):
                failures.setdefault(hyper, str(H))
                continue
            try:
                if linear:
                    rv = linear_risk_from_matrix(H, T, seed)
                else:
                    rv = risk_from_matrix(H, T)
            except NumericError as exc:
                failures.setdefault(hyper, str(exc))
                continue
            risk_table[hyper].append(rv)

    results = []
    for hyper in grid:
        if hyper in failures:
            continue
        fold_risks = risk_table[hyper]
        vals = np.array([r.value for r in fold_risks])
        results.append(GridPointResult(
            hyper=hyper,
            fold_risks=tuple(fold_risks),
            mean_risk=float(vals.mean()),
            risk_se=float(vals.std(ddof=1) / np.sqrt(len(vals))),
        ))
    if not results:
        raise NumericError("every grid point failed cross-validation")

    # first strict minimum in grid order breaks ties toward the simpler model
    best = min(results, key=lambda r: r.mean_risk)
    fold_models = tuple(
        fit_family(family, train, best.hyper, gamma, model_temp)
        for train in fold_splits
    )
    return CvResult(
        family=family,
        best_hyper=best.hyper,
        fold_models=fold_models,
        fold_risks=best.fold_risks,
        mean_risk=best.mean_risk,
        risk_se=best.risk_se,
        grid=tuple(results),
        skipped=tuple(sorted(failures.items(), key=lambda kv: grid.index(kv[0]))),
    )


def final_estimate(fold_models, test):
    """Ensemble test-set mean of the diagonal predictions.

    Each fold model contributes its diagonal predictions on the test set;
    NaN predictions are dropped per model. The squared estimate is the mean
    over test samples of the fold-averaged prediction, clipped at zero
    (with a flag) before taking the square root.
    """
    fold_models = list(fold_models)
    if not fold_models:
        raise InputError("final_estimate needs at least one fold model")
    if len(test) < 1:
        raise InputError("empty test set")
    diags = np.stack([np.asarray(m.diag(test.probs), dtype=float)
                      for m in fold_models])
    finite = np.isfinite(diags)
    dropped = int((~finite).sum())
    keep = finite.any(axis=0)
    if not keep.any():
        raise NumericError("all ensemble predictions are NaN")
    with np.errstate(invalid="ignore"):
        per_sample = np.nanmean(np.where(finite, diags, np.nan)[:, keep], axis=0)
    squared = float(per_sample.mean())
    fold_means = np.array([
        row[ok].mean() if ok.any() else np.nan
        for row, ok in zip(diags, finite)
    ])
    valid = np.isfinite(fold_means)
    if valid.sum() >= 2:
        fold_se = float(fold_means[valid].std(ddof=1) / np.sqrt(int(valid.sum())))
    else:
        fold_se = 0.0
    clipped = squared < 0.0
    value = float(np.sqrt(max(squared, 0.0)))
    return CalibrationEstimate(squared, value, clipped, fold_se, dropped)
