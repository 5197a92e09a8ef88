"""Train/validate/test calibration-evaluation pipeline: the one orchestration layer.

`run_evaluate` runs a `RunConfig` end to end: the top-label reduction in
tce mode, the seeded tuning/test split, per-family cross-validation and the
ensemble test-set estimate, and returns the report. The tuning split is
cross-validated: each hyperparameter grid point is fitted on k-1 folds and
scored by the empirical risk on the held-out fold, the point with minimal
mean holdout risk wins, and the k fold models at the winner act as an
ensemble for the final test-set estimate. Every family is scored on the
same `Fold`s, and each fold decomposes its Gram once, on first use: its
`estimators.Spectrum` (eigenvectors Q, eigenvalues evals, rotated residual
Gram QtGQ and rows V = Q^T D) serves every lambda of kkr and ukkr and their
refits. kde's bandwidth-independent work on a fold (`estimators.kde_prepare`)
is done once for the fold's whole grid and dropped after it. Every family is
scored by `risk.risk_from_factors` from the holdout factors (F, R) of its
predictions H = F R^T. A kkr or ukkr fold model is that spectrum and its
lambda, and builds its dense core only to predict. A fold predicts and
scores one grid point at a time, and a point that fails numerically is
skipped from then on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    check_grid,
    kfold_indices,
    residual_matrix,
    top_label_dataset,
)
from .estimators import (
    check_hyper,
    fit_binning,
    fit_kde,
    fit_kkr,
    fit_ukkr,
    kde_features,
    kde_prepare,
    kkr_factors,
    kkr_prepare,
    ukkr_cv_features,
)
from .risk import linear_risk, risk_from_factors
from .sim import DEFAULT_THETAS, SimModel, check_theta

FAMILIES = ("bin", "kde", "kkr", "ukkr", "sim")
# the dataset mode a family can score; the others take either
FAMILY_MODES = {"bin": TOP_LABEL, "sim": CANONICAL}
# the family names a report can hold; bin15 is bin at a fixed 15 bins
REPORT_FAMILIES = ("bin", "bin15", "kde", "kkr", "ukkr", "sim")
# the families a run reports when none are named, per mode
DEFAULT_FAMILIES = {"tce": ("bin", "bin15", "kde", "kkr", "ukkr"), "cce": ("kde", "kkr", "ukkr")}


def _report_family(name):
    """The family a report entry cross-validates, and its default grid."""
    return ("bin", [15]) if name == "bin15" else (name, None)


def check_family_mode(family, mode):
    """Raise InputError when `family` cannot score a dataset of `mode`.

    Binning reads the top-label confidence and sim the full canonical
    probability vector; on the other mode neither has a meaningful fit.
    """
    need = FAMILY_MODES.get(family)
    if need is not None and mode != need:
        raise InputError(f"the {family} family needs {need} data, not {mode}")


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

    @property
    def best_at_grid_edge(self):
        """Whether the winner is the smallest or largest of several points tried.

        Skipped points count as tried, so a winner next to a failed extreme
        is not at the edge: the grid did reach past it.
        """
        tried = [p.hyper for p in self.grid] + [h for h, _ in self.skipped]
        return len(tried) > 1 and self.best_hyper in (min(tried), max(tried))


@dataclass(frozen=True)
class CalibrationEstimate:
    squared_value: float
    value: float
    clipped: bool
    fold_se: float
    dropped_nan: int


def _check_test_fraction(test_fraction):
    if not 0.0 < test_fraction < 1.0:
        raise InputError("test fraction must lie in (0, 1)")


def split_dataset(ds, test_fraction, seed):
    """Seeded shuffle, then split into tuning and test subsets."""
    n = len(ds)
    if n < 5:
        raise InputError("need at least 5 samples to split")
    _check_test_fraction(test_fraction)
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


def fit_family(family, fold, hyper):
    """Fit one model of the given family at one hyperparameter point on
    the fold's training part; kkr and ukkr fit from the fold's spectrum.
    sim is `SimModel(hyper)` at the default `sim.MODEL_TEMP`: it reads theta
    and the temperature only as theta/t, so its grid is its one setting."""
    if family == "bin":
        return fit_binning(fold.train, hyper)
    if family == "kde":
        return fit_kde(fold.train, hyper)
    if family == "kkr":
        return fit_kkr(fold.spectrum, hyper)
    if family == "ukkr":
        return fit_ukkr(fold.spectrum, hyper)
    if family == "sim":
        return SimModel(float(hyper))
    raise InputError(f"unknown family {family!r}")


@dataclass(frozen=True, eq=False)
class Fold:
    """One cross-validation fold and the RBF kernel width of kkr and ukkr.

    `spectrum` and the holdout `basis` are computed on first use and kept,
    so kkr, ukkr and their refits share one Gram eigendecomposition per
    fold, and bin, kde and sim pay none.
    """

    train: Dataset
    hold: Dataset
    gamma: float

    @cached_property
    def spectrum(self):
        return kkr_prepare(self.train, self.gamma)

    @cached_property
    def basis(self):
        return self.spectrum.basis(self.hold.probs)


def kfold_splits(tune, k, seed, gamma):
    """The k `Fold`s of `tune` (`core.kfold_indices`); build them once per
    tuning set so that every family is scored on the same holdout folds."""
    if len(tune) < 2 * k:
        # a one-sample holdout fold has no pairs to score at any grid point
        raise InputError(f"{k}-fold cross-validation needs at least {2 * k} tuning "
                         f"samples, got {len(tune)}")
    all_idx = np.arange(len(tune))
    return [Fold(tune.subset(np.setdiff1d(all_idx, hold, assume_unique=True)),
                 tune.subset(hold), gamma) for hold in kfold_indices(len(tune), k, seed)]


def _holdout_risk(family, fold, hyper, D, prep, linear, seed):
    """The risk of one grid point fitted on one fold's training part, against
    the fold's (m, d) holdout residual rows D, from the factors (F, R) of
    its predictions H = F R^T. kkr and ukkr take theirs from the fold's
    spectrum and holdout basis, kde from the fold's `kde_prepare` record
    `prep`, the other families from the fitted model.
    """
    if family == "kkr":
        F, R = kkr_factors(fold.spectrum, fold.basis, hyper)
    elif family == "ukkr":
        F = R = ukkr_cv_features(fold.spectrum, fold.basis, hyper)
    elif family == "kde":
        F = R = kde_features(prep, hyper)
    else:
        F, R = fit_family(family, fold, hyper).factors(fold.hold.probs)
    return linear_risk(F, R, D, seed) if linear else risk_from_factors(F, R, D)


def cross_validate(folds, family, grid=None, seed=0, linear=False):
    """Grid search by cross-validated empirical risk over `kfold_splits` folds.

    Returns the winning grid point together with its k fold models, which
    downstream code uses as an ensemble. Each fold fits and scores one grid
    point at a time. A point whose fit or score fails numerically on a fold
    (a NumericError: a singular system, every holdout prediction dropped,
    or a risk that overflows) is skipped with that first reason and not
    fitted again on later folds. A grid that is empty or repeats a value,
    and a value the family cannot take (a non-finite value, a bandwidth
    that is not positive, a negative lambda, a bin count that is not a
    positive integer or is above 10**6, a sim theta whose scaled logs
    overflow), is an InputError and ends the call. Every family is scored
    against the holdout residual rows from its prediction factors, by the
    U-statistic (`risk.risk_from_factors`) or by the linear risk, which
    reads the row dots of its pairs alone, in the order `seed` gives.
    """
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    mode = folds[0].train.mode
    check_family_mode(family, mode)
    if grid is None:
        grid = default_grid(family, mode, len(folds[0].train))
    grid = check_grid(grid)
    risk_table = {h: [] for h in grid}
    failures = {}
    for fold in folds:
        if family in ("kkr", "ukkr"):
            fold.basis  # a Gram that fails to decompose ends the call, not one point
        # kde's bandwidth-independent work, once per fold for its whole grid
        prep = kde_prepare(fold.train, fold.hold.probs) if family == "kde" else None
        D = residual_matrix(fold.hold)
        for hyper in grid:
            if hyper in failures:
                continue  # failed on an earlier fold: not fitted again
            try:
                risk_table[hyper].append(_holdout_risk(
                    family, fold, hyper, D, prep, linear, seed))
            except NumericError as exc:
                failures[hyper] = str(exc)
        del prep  # before the next fold builds its own: one kde record at a time

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
    fold_models = tuple(fit_family(family, fold, best.hyper) for fold in folds)
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


@dataclass
class RunConfig:
    """The settings of one `run_evaluate` run, checked as it is built. The
    report holds every one: `grids` as each family's `grid` rows, the rest
    in its metadata. sim's one setting is its theta grid (`fit_family`)."""

    mode: str = "tce"                      # tce | cce
    families: tuple | None = None          # None: DEFAULT_FAMILIES[mode]
    test_fraction: float = 0.2
    k_folds: int = 5
    gamma: float = 0.5
    seed: int = 0
    grids: dict = field(default_factory=dict)  # per-family overrides
    linear_risk: bool = False

    def __post_init__(self):
        if self.mode not in ("tce", "cce"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.families is None:
            self.families = DEFAULT_FAMILIES[self.mode]
        _check_test_fraction(self.test_fraction)
        if self.k_folds < 2:
            raise InputError(f"need at least 2 folds, got {self.k_folds}")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise InputError(f"kernel gamma must be positive and finite, got {self.gamma}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        if not self.families:
            raise InputError("no family to evaluate")
        repeated = [f for i, f in enumerate(self.families) if f in self.families[:i]]
        if repeated:
            raise InputError(f"family {repeated[0]!r} given more than once")
        data_mode = TOP_LABEL if self.mode == "tce" else CANONICAL
        for fam in self.families:
            if fam not in REPORT_FAMILIES:
                raise InputError(f"unknown family {fam!r}")
            check_family_mode(_report_family(fam)[0], data_mode)
        for fam, grid in self.grids.items():
            if fam == "bin15":
                raise InputError("bin15 is bin at a fixed 15 bins and takes no grid")
            if fam not in self.families:
                raise InputError(f"a {fam} grid is given, but the {fam} family is not run")
            for hyper in check_grid(grid):
                if fam == "sim":
                    check_theta(hyper)
                else:
                    check_hyper(fam, hyper)


def _family_entry(cv, est):
    sqrt_risks = np.array([np.sqrt(r.value) * 100.0 for r in cv.fold_risks])
    return {
        "best_hyper": cv.best_hyper,
        "best_at_grid_edge": cv.best_at_grid_edge,
        "val_sqrt_risk_x100": float(sqrt_risks.mean()),
        "val_sqrt_risk_x100_se": float(sqrt_risks.std(ddof=1) / np.sqrt(len(sqrt_risks))),
        "estimate": est.value,
        "estimate_squared": est.squared_value,
        "estimate_clipped": est.clipped,
        "estimate_fold_se": est.fold_se,
        "risk_dropped_nan": int(sum(r.dropped_nan for r in cv.fold_risks)),
        "estimate_dropped_nan": est.dropped_nan,
        "grid": [
            {"hyper": p.hyper, "mean_risk": p.mean_risk, "risk_se": p.risk_se}
            for p in cv.grid
        ],
        "skipped_grid_points": [
            {"hyper": h, "reason": why} for h, why in cv.skipped
        ],
    }


def run_evaluate(cfg, ds):
    """Execute split -> per-family CV -> ensemble estimate on a canonical dataset.

    Returns the report and, per family, its `CvResult.grid`: the per-point
    fold risks, whose means and standard errors the report's `grid` rows
    hold. The tuning set is split into folds once (`kfold_splits`), so
    every family is scored on the same holdout folds and kkr and ukkr share
    each fold's spectrum.
    """
    work = top_label_dataset(ds) if cfg.mode == "tce" else ds
    tune, test = split_dataset(work, cfg.test_fraction, cfg.seed)
    report = {
        "metadata": {
            "mode": cfg.mode,
            "families": list(cfg.families),
            "n_total": len(work),
            "n_tune": len(tune),
            "n_test": len(test),
            "test_fraction": cfg.test_fraction,
            "k_folds": cfg.k_folds,
            "gamma": cfg.gamma,
            "seed": cfg.seed,
            "linear_risk": cfg.linear_risk,
            "num_classes": ds.dim,
        },
        "families": {},
    }
    folds = kfold_splits(tune, cfg.k_folds, cfg.seed, cfg.gamma)
    grids = {}
    for fam in cfg.families:
        base, grid = _report_family(fam)
        cv = cross_validate(folds, base, grid=cfg.grids.get(fam, grid), seed=cfg.seed,
                            linear=cfg.linear_risk)
        est = final_estimate(cv.fold_models, test)
        report["families"][fam] = _family_entry(cv, est)
        grids[fam] = cv.grid
    return report, grids
