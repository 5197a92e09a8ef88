"""Squared calibration error estimation with MSE-risk-based selection."""

from .core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    PairModel,
    residual_matrix,
    top_label_dataset,
)
from .estimators import (
    BinningModel,
    KdeModel,
    KkrModel,
    UkkrModel,
    fit_binning,
    fit_kde,
    fit_kkr,
    fit_ukkr,
)
from .pipeline import (
    CalibrationEstimate,
    CvResult,
    RunConfig,
    cross_validate,
    default_grid,
    final_estimate,
    kfold_splits,
    run_evaluate,
    split_dataset,
)
from .risk import (
    RiskValue,
    empirical_risk,
)
from .sim import SimConfig, SimDataset, SimModel, risk_curve, simulate

__all__ = [name for name in dir() if not name.startswith("_")]
