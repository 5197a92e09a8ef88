"""Calibration estimation function families h: simplex x simplex -> R.

Four families are provided: histogram binning, a Dirichlet-kernel density
ratio (Nadaraya-Watson style), Kronecker kernel ridge regression solved via
the eigendecomposition/Hadamard trick, and a two-step kernel ridge regressor
that plugs fitted residual regressions into the inner product. A brute-force
Kronecker solver and the pointwise kernels are kept as test oracles for the
vectorized closed forms.

Every fitted model is a `PairModel`: it defines `pairwise(P)`, the full
(m, m) prediction matrix of an evaluation set that cross-validation scores,
and `diag(P)`, the diagonal predictions h(p_i, p_i) that the final estimate
averages; `predict(p, p2)` evaluates one pair through `pairwise`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    PairModel,
    one_hot,
    residual_matrix,
)

CLIP_EPS = 1e-10
EIG_FLOOR = -1e-8
SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def rbf_kernel(x, y, gamma):
    """exp(-gamma * ||x - y||^2) for two vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError("rbf_kernel requires vectors of equal dimension")
    return float(np.exp(-gamma * np.sum((x - y) ** 2)))


def rbf_gram(X, Y, gamma):
    """(n, m) matrix of RBF kernel values between rows of X and rows of Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(Y * Y, axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-gamma * sq)


def clip_simplex(P, eps=CLIP_EPS):
    """Clip simplex rows away from the boundary and renormalize."""
    P = np.clip(np.atleast_2d(np.asarray(P, dtype=float)), eps, None)
    return P / P.sum(axis=1, keepdims=True)


def dirichlet_kernel(x, y, bandwidth):
    """Dirichlet density of x under concentration alpha = y / bandwidth + 1.

    Both arguments are clipped away from the simplex boundary and
    renormalized, keeping the density finite everywhere.
    """
    if bandwidth <= 0:
        raise InputError("bandwidth must be positive")
    x = clip_simplex(x)[0]
    y = clip_simplex(y)[0]
    if x.shape != y.shape:
        raise InputError("dirichlet_kernel requires equal dimensions")
    alpha = y / bandwidth + 1.0
    log_pdf = (
        np.sum((alpha - 1.0) * np.log(x))
        + gammaln(alpha.sum())
        - np.sum(gammaln(alpha))
    )
    return float(np.exp(log_pdf))


def _as_simplex_points(P):
    # Scalar top-label confidences embed on the 2-simplex as (c, 1 - c).
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[1] == 1:
        return np.column_stack([P[:, 0], 1.0 - P[:, 0]])
    return P


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinningModel(PairModel):
    """Equal-width histogram model over [0, 1] top-label confidences."""

    edges: np.ndarray   # (M + 1,) increasing, edges[0] = 0, edges[-1] = 1
    gaps: np.ndarray    # (M,) conf(B_m) - acc(B_m); 0 for empty bins
    counts: np.ndarray  # (M,) training samples per bin

    def pairwise(self, P):
        g = self.gaps[_bin_index(self.edges, _conf_column(P))]
        return np.outer(g, g)

    def diag(self, P):
        g = self.gaps[_bin_index(self.edges, _conf_column(P))]
        return g * g


def _conf_column(P):
    P = np.asarray(P, dtype=float)
    return P[:, 0] if P.ndim == 2 else P.ravel()


def _bin_index(edges, c):
    c = np.asarray(c, dtype=float)
    if np.any(c < 0.0) or np.any(c > 1.0):
        raise InputError("confidence outside [0, 1]")
    # half-open [edge_m, edge_{m+1}) with the last interval closed
    idx = np.searchsorted(edges, c, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def fit_binning(train, num_bins):
    """Per-bin confidence/accuracy gaps on an equal-width partition."""
    if train.mode != TOP_LABEL:
        raise InputError("binning requires a top-label dataset")
    if len(train) < 1:
        raise InputError("empty training set")
    num_bins = int(num_bins)
    if num_bins < 1:
        raise InputError("number of bins must be >= 1")
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    conf = train.probs[:, 0]
    correct = train.labels.astype(float)
    idx = _bin_index(edges, conf)
    counts = np.bincount(idx, minlength=num_bins)
    gaps = np.zeros(num_bins)
    nz = counts > 0
    conf_sum = np.bincount(idx, weights=conf, minlength=num_bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=num_bins)
    gaps[nz] = (conf_sum[nz] - acc_sum[nz]) / counts[nz]
    return BinningModel(edges, gaps, counts)


# ---------------------------------------------------------------------------
# Dirichlet-kernel density ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KdeModel(PairModel):
    """Kernel density ratio estimator; keeps the full training set."""

    train: Dataset
    bandwidth: float

    def pairwise(self, P):
        r = kde_residuals(self, P)
        if r.ndim == 2:
            return r @ r.T
        return np.outer(r, r)

    def diag(self, P):
        r = kde_residuals(self, P)
        if r.ndim == 2:
            return np.sum(r * r, axis=1)
        return r * r


def fit_kde(train, bandwidth):
    if len(train) < 1:
        raise InputError("empty training set")
    if bandwidth <= 0:
        raise InputError("bandwidth must be positive")
    return KdeModel(train, float(bandwidth))


def kde_regress(train, queries, bandwidth):
    """Kernel-weighted label means g(q) at each query point.

    Returns (m, d) label-probability estimates in canonical mode or (m,)
    correctness estimates in top-label mode. Kernel weights are evaluated in
    linear space; queries whose weight sum underflows to zero (or overflows)
    yield NaN rows, the documented sentinel downstream consumers drop.
    """
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
    return ghat


def kde_residuals(model, P):
    """p - g(p) for each evaluation row; NaN rows propagate."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    ghat = kde_regress(model.train, P, model.bandwidth)
    if model.train.mode == CANONICAL:
        return P - ghat
    return P[:, 0] - ghat


# ---------------------------------------------------------------------------
# Kronecker kernel ridge regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KkrModel(PairModel):
    """Closed-form Kronecker kernel ridge model.

    `core` is Ltilde o (Q^T D^T D Q) with Ltilde_ij = 1 / (l_i l_j + lam n^2),
    so a prediction is k(p)^T Q core Q^T k(p2).
    """

    train_predictions: np.ndarray
    Q: np.ndarray
    core: np.ndarray
    lam: float
    gamma: float

    def _basis(self, P):
        return self.Q.T @ rbf_gram(self.train_predictions, P, self.gamma)

    def pairwise(self, P):
        B = self._basis(P)
        return B.T @ (self.core @ B)

    def diag(self, P):
        B = self._basis(P)
        return np.sum(B * (self.core @ B), axis=0)


def kkr_prepare(train, gamma):
    """Gram eigendecomposition and residual Gram shared across lambdas."""
    if len(train) < 1:
        raise InputError("empty training set")
    X = train.probs
    K = rbf_gram(X, X, gamma)
    evals, Q = np.linalg.eigh(K)
    if evals.min() < EIG_FLOOR:
        raise NumericError(
            f"Gram matrix eigenvalue {evals.min()} below {EIG_FLOOR}"
        )
    evals = np.clip(evals, 0.0, None)
    delta = residual_matrix(train)
    G = delta.T @ delta
    # the rotated residual Gram is the lambda-independent part of every core
    return X, Q, evals, G, Q.T @ G @ Q


def kkr_core(prep, lam, n):
    _, _, evals, _, QtGQ = prep
    if lam < 0:
        raise InputError("lambda must be nonnegative")
    if lam == 0 and evals.min() < SINGULAR_TOL:
        raise NumericError(
            f"lambda=0 with singular Gram matrix (min eigenvalue {evals.min()})"
        )
    scale = 1.0 / (np.outer(evals, evals) + lam * n * n)
    return scale * QtGQ


def fit_kkr(train, lam, gamma, prep=None):
    """Fit the O(n^3) Kronecker kernel ridge closed form."""
    if prep is None:
        prep = kkr_prepare(train, gamma)
    X, Q = prep[0], prep[1]
    core = kkr_core(prep, lam, len(train))
    return KkrModel(X, Q, core, float(lam), float(gamma))


def eval_kkr_naive(train, lam, gamma, p, p2):
    """Brute-force Kronecker predictor via a dense n^2 x n^2 solve.

    Test oracle only; the O(n^6) cost is guarded by an input limit.
    """
    n = len(train)
    if n > 12:
        raise InputError("naive Kronecker oracle limited to n <= 12")
    X = train.probs
    K = rbf_gram(X, X, gamma)
    delta = residual_matrix(train)
    G = delta.T @ delta
    A = np.kron(K, K) + lam * n * n * np.eye(n * n)
    kp = rbf_gram(X, np.atleast_2d(p), gamma).ravel()
    kp2 = rbf_gram(X, np.atleast_2d(p2), gamma).ravel()
    sol = np.linalg.solve(A, np.kron(kp, kp2))
    return float(G.reshape(-1) @ sol)


# ---------------------------------------------------------------------------
# Two-step kernel ridge regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UkkrModel(PairModel):
    """Two-step model: core = (K + lam n I)^-1 D^T D (K + lam n I)^-1."""

    train_predictions: np.ndarray
    core: np.ndarray
    lam: float
    gamma: float

    def _basis(self, P):
        return rbf_gram(self.train_predictions, P, self.gamma)

    def pairwise(self, P):
        B = self._basis(P)
        return B.T @ (self.core @ B)

    def diag(self, P):
        B = self._basis(P)
        return np.sum(B * (self.core @ B), axis=0)


def ukkr_rotated_core(prep, lam, n):
    """Core of the two-step solve in the Gram eigenbasis.

    The full core is Q @ rotated @ Q^T; cross-validation works directly in
    the rotated basis so each lambda costs O(n^2) instead of O(n^3).
    """
    _, _, evals, _, QtGQ = prep
    if lam < 0:
        raise InputError("lambda must be nonnegative")
    shifted = evals + lam * n
    if np.any(shifted < SINGULAR_TOL):
        raise NumericError(
            f"singular system in two-step solve (min shifted eigenvalue "
            f"{shifted.min()})"
        )
    return QtGQ / np.outer(shifted, shifted)


def ukkr_core(prep, lam, n):
    Q = prep[1]
    return Q @ ukkr_rotated_core(prep, lam, n) @ Q.T


def fit_ukkr(train, lam, gamma, prep=None):
    """Fit the two-step kernel ridge model via a symmetric solve."""
    if prep is None:
        prep = kkr_prepare(train, gamma)
    core = ukkr_core(prep, lam, len(train))
    return UkkrModel(prep[0], core, float(lam), float(gamma))
