"""Ground-truth simulation with temperature-miscalibrated predictions.

Latent class probabilities are drawn from a sharply concentrated Dirichlet,
labels from those probabilities, and the simulated classifier reports a
temperature-softened version of the latent vector. A one-parameter family
of candidate calibration functions recovers the ground truth exactly at
temperature parameter 1, which makes the risk's ranking testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CANONICAL, Dataset, InputError, PairModel, kfold_indices
from .risk import empirical_risk

LOG_CLIP = 1e-12

# candidate temperatures: a window around 1 plus well-separated alternatives;
# near-duplicates just outside the window (0.75, 1.25) capture noise-level
# risk differences at moderate n without adding information, so they are out
DEFAULT_THETAS = (0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0)


@dataclass(frozen=True)
class SimConfig:
    n: int = 500
    d: int = 5
    alpha: float = 0.04
    model_temp: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.d < 2:
            raise InputError("simulation needs n >= 2 and d >= 2")
        if self.alpha <= 0:
            raise InputError("concentration must be positive")
        if self.model_temp <= 0:
            raise InputError("model temperature must be positive")


@dataclass(frozen=True)
class SimDataset:
    dataset: Dataset
    ground_truth: np.ndarray
    config: SimConfig


def _softened_rows(P, factor):
    # softmax(factor * log P) row-wise, with boundary-safe log
    z = factor * np.log(np.clip(P, LOG_CLIP, None))
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def simulate(cfg):
    """Draw latent probabilities, labels, and miscalibrated predictions."""
    rng = np.random.default_rng(cfg.seed)
    g = rng.gamma(cfg.alpha, 1.0, size=(cfg.n, cfg.d))
    # gamma draws with tiny shape can underflow to an all-zero row
    while True:
        zero = g.sum(axis=1) == 0.0
        if not zero.any():
            break
        g[zero] = rng.gamma(cfg.alpha, 1.0, size=(int(zero.sum()), cfg.d))
    P = g / g.sum(axis=1, keepdims=True)
    u = rng.random(cfg.n)
    labels = (P.cumsum(axis=1) < u[:, None]).sum(axis=1)
    labels = np.minimum(labels, cfg.d - 1)
    preds = _softened_rows(P, cfg.model_temp)
    return SimDataset(Dataset(preds, labels, CANONICAL), P, cfg)


@dataclass(frozen=True)
class SimModel(PairModel):
    """h(p, p2) = <p - softmax((theta/t) log p), p2 - softmax((theta/t) log p2)>.

    `model_temp` t is the softening factor of the simulated classifier, so
    theta = 1 inverts it exactly and recovers the ground-truth residuals.
    """

    theta: float
    model_temp: float = 0.3

    def residuals(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return P - _softened_rows(P, self.theta / self.model_temp)

    def pairwise(self, P):
        r = self.residuals(P)
        return r @ r.T

    def diag(self, P):
        r = self.residuals(P)
        return np.sum(r * r, axis=1)


def risk_curve(sim, thetas, k_folds=5, seed=0):
    """Empirical risk of each candidate temperature on the full dataset.

    The per-theta standard error comes from evaluating the risk on k
    disjoint folds of the dataset.
    """
    thetas = list(thetas)
    if len(thetas) < 2:
        raise InputError("risk_curve needs at least two temperatures")
    ds = sim.dataset
    folds = kfold_indices(len(ds), k_folds, seed)
    out = []
    for theta in thetas:
        model = SimModel(theta, sim.config.model_temp)
        value = empirical_risk(model, ds).value
        fold_vals = np.array(
            [empirical_risk(model, ds.subset(f)).value for f in folds]
        )
        se = float(fold_vals.std(ddof=1) / np.sqrt(len(folds)))
        out.append((theta, value, se))
    return out
