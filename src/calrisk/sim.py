"""Ground-truth simulation with temperature-miscalibrated predictions.

Latent class probabilities are drawn from a sharply concentrated Dirichlet,
labels from those probabilities, and the simulated classifier reports a
temperature-softened version of the latent vector. A one-parameter family
of candidate calibration functions recovers the ground truth exactly at
temperature parameter 1, which makes the risk's ranking testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CANONICAL,
    Dataset,
    InputError,
    PairModel,
    check_grid,
    factor_diag,
    factor_pairwise,
    kfold_indices,
    softmax_rows,
)
from .risk import empirical_risk

LOG_CLIP = 1e-12
# the simulated classifier's softening factor t, and the sim family's default
MODEL_TEMP = 0.3
RISK_CURVE_FOLDS = 5

# candidate temperatures: a window around 1 plus well-separated alternatives;
# near-duplicates just outside the window (0.75, 1.25) capture noise-level
# risk differences at moderate n without adding information, so they are out
DEFAULT_THETAS = (0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0)


@dataclass(frozen=True)
class SimConfig:
    n: int = 500
    d: int = 5
    alpha: float = 0.04
    model_temp: float = MODEL_TEMP
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.d < 2:
            raise InputError("simulation needs n >= 2 and d >= 2")
        for name, value in (("concentration", self.alpha), ("model temperature", self.model_temp)):
            if not (np.isfinite(value) and value > 0):
                raise InputError(f"{name} must be positive and finite, got {value}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SimDataset:
    dataset: Dataset
    ground_truth: np.ndarray
    config: SimConfig


def simulate(cfg):
    """Draw latent probabilities, labels, and miscalibrated predictions."""
    rng = np.random.default_rng(cfg.seed)
    g = rng.gamma(cfg.alpha, 1.0, size=(cfg.n, cfg.d))
    with np.errstate(over="ignore"):  # an overflow raises below
        sums = g.sum(axis=1)
    if not np.isfinite(sums).all():
        raise InputError(f"concentration {cfg.alpha} is too large: "
                         "the row sums of its gamma draws overflow")
    # gamma draws with tiny shape can underflow to an all-zero row; such rows
    # are drawn once more in log space, as Gamma(a) = Gamma(a + 1) U^(1/a)
    zero = sums == 0.0
    if zero.any():
        a, size = cfg.alpha, (int(zero.sum()), cfg.d)
        z = np.log1p(-rng.random(size)) + a * np.log(rng.gamma(a + 1.0, 1.0, size))
        with np.errstate(over="ignore"):  # less the row max, the largest log draw is 0
            g[zero] = softmax_rows((z - z.max(axis=1, keepdims=True)) / a)
    P = g / g.sum(axis=1, keepdims=True)
    u = rng.random(cfg.n)
    labels = (P.cumsum(axis=1) < u[:, None]).sum(axis=1)
    labels = np.minimum(labels, cfg.d - 1)
    # softmax(t log P) row-wise, with boundary-safe log
    preds = softmax_rows(cfg.model_temp * np.log(np.clip(P, LOG_CLIP, None)))
    return SimDataset(Dataset(preds, labels, CANONICAL), P, cfg)


def check_theta(theta, model_temp=MODEL_TEMP):
    """InputError unless the scaled logs (theta/t) log p of `SimModel` are
    finite for every clipped p: |theta/t| must stay below the largest float
    over -log LOG_CLIP, about 6.5e306."""
    if not math.isfinite(float(theta) / float(model_temp) * math.log(LOG_CLIP)):
        raise InputError(f"sim theta {theta} at model temperature {model_temp} is too "
                         "large: its scaled logs overflow")


@dataclass(frozen=True)
class SimModel(PairModel):
    """h(p, p2) = <p - softmax((theta/t) log p), p2 - softmax((theta/t) log p2)>.

    `model_temp` t is the softening factor of the simulated classifier, so
    theta = 1 inverts it exactly and recovers the ground-truth residuals.
    theta and t enter only as their ratio; `check_theta` bounds it.
    """

    theta: float
    model_temp: float = MODEL_TEMP

    def __post_init__(self):
        check_theta(self.theta, self.model_temp)

    def features(self, P):
        """(m, d) candidate residuals p - softmax((theta/t) log p)."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        factor = self.theta / self.model_temp
        return P - softmax_rows(factor * np.log(np.clip(P, LOG_CLIP, None)))

    pairwise = factor_pairwise
    diag = factor_diag


def risk_curve(sim, thetas, seed=0):
    """Empirical risk of each candidate temperature on the full dataset.

    The per-theta standard error comes from the risk on RISK_CURVE_FOLDS
    disjoint folds of the dataset, so each fold needs two samples to pair.
    Every theta is checked (`check_theta`) before the first risk.
    """
    thetas = check_grid(thetas)
    if len(thetas) < 2:
        raise InputError("risk_curve needs at least two temperatures")
    ds = sim.dataset
    if len(ds) < 2 * RISK_CURVE_FOLDS:
        raise InputError(f"a risk curve over {RISK_CURVE_FOLDS} folds needs "
                         f"n >= {2 * RISK_CURVE_FOLDS}, got n={len(ds)}")
    folds = [ds.subset(f) for f in kfold_indices(len(ds), RISK_CURVE_FOLDS, seed)]
    models = [SimModel(theta, sim.config.model_temp) for theta in thetas]
    out = []
    for model in models:
        value = empirical_risk(model, ds).value
        fold_vals = np.array([empirical_risk(model, fold).value for fold in folds])
        se = float(fold_vals.std(ddof=1) / np.sqrt(len(folds)))
        out.append((model.theta, value, se))
    return out
