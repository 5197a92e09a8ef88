"""Squared calibration error estimation with MSE-risk-based selection."""

from .core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    PairModel,
    Sample,
    pair_target,
    pair_target_matrix,
    residual_matrix,
    softmax,
    top_label_dataset,
    top_label_reduce,
)
from .estimators import (
    BinningModel,
    KdeModel,
    KkrModel,
    UkkrModel,
    dirichlet_kernel,
    eval_kkr_naive,
    fit_binning,
    fit_kde,
    fit_kkr,
    fit_ukkr,
    rbf_kernel,
)
from .pipeline import (
    CalibrationEstimate,
    CvResult,
    cross_validate,
    default_grid,
    final_estimate,
    split_dataset,
)
from .risk import (
    RiskValue,
    empirical_risk,
    empirical_risk_linear,
)
from .sim import SimConfig, SimDataset, SimModel, risk_curve, simulate

__all__ = [name for name in dir() if not name.startswith("_")]
