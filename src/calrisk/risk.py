"""Empirical calibration-estimation risk.

The quadratic form is a U-statistic over all ordered sample pairs; a linear
variant pairs samples circularly after a seeded shuffle.

The pair target is bilinear, T_ij = <delta_i, delta_j> with delta the
residual p - e_y, so every risk takes the targets as the (m, d) residual
rows D alone, and every model predicts H = F R^T from its factors (F, R).
`risk_from_factors(F, R, D)` is the one entry point that scores them. For
the bin, kde and sim models, and ukkr's cross-validation rows, R is F =
phi, at most d wide, and the U-statistic follows exactly from d x d Gram
norms in O(m d^2). kkr and a fitted ukkr model have R != F (the
`estimators` module docstring says why ukkr does); for them it scores the
dense (m, m) matrix F R^T (`risk_from_matrix`). The linear variant reads
only the pairs it scores, as row dots (`linear_risk`). Nothing evaluates
h one pair at a time. A risk that is not finite, as when the squared errors
overflow, is a NumericError, as is a risk with no usable pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, NumericError, residual_matrix


@dataclass(frozen=True)
class RiskValue:
    """Empirical risk with NaN-drop accounting."""

    value: float
    pairs_used: int
    dropped_nan: int


def _finite(value):
    """`value`, or a NumericError when it is not finite."""
    if not math.isfinite(value):
        raise NumericError(f"risk is {value}: the squared errors overflow")
    return value


def _pair_risk(h, t, total):
    """Mean squared error of the predictions `h` against the targets `t`
    over `total` candidate pairs, dropping the non-finite predictions."""
    use = np.isfinite(h)
    pairs = int(use.sum())
    if pairs == 0:
        raise NumericError("no usable pairs (all predictions dropped)")
    with np.errstate(over="ignore"):  # an overflow raises below
        value = _finite(float(np.sum((t[use] - h[use]) ** 2) / pairs))
    return RiskValue(value, pairs, total - pairs)


def risk_from_matrix(H, D):
    """Mean squared error of the (m, m) predictions H against D D^T, D the
    (m, d) residual rows, over off-diagonal pairs, dropping NaN predictions."""
    T = D @ D.T
    m = T.shape[0]
    off = ~np.eye(m, dtype=bool)
    return _pair_risk(H[off], T[off], m * (m - 1))


def risk_from_factors(F, R, D):
    """`risk_from_matrix(F @ R.T, D)`, forming neither matrix when R is F.

    F and R are the factors of the predictions H = F R^T and D the (m, d)
    residual rows of the targets. When R is F, the (m, d') feature rows of
    a feature model, expanding the squares,

        sum_{i != j} (T_ij - H_ij)^2 = ||D^T D||^2 - 2 ||D^T F||^2
            + ||F^T F||^2 - sum_i (||d_i||^2 - ||f_i||^2)^2,

    in O(m (d + d')^2). A non-finite feature row makes its whole row and
    column of H non-finite, so dropping those rows drops exactly the pairs
    `risk_from_matrix` drops. The rounding error is of order
    eps * (||D||^2 + ||F||^2)^2 / pairs, which is far below the risk unless
    F F^T nearly reproduces D D^T off the diagonal; there the expansion can
    round below 0, so the value is clamped at 0, as the sum of squares is.
    """
    if R is not F:
        return risk_from_matrix(F @ R.T, D)
    F = np.asarray(F, dtype=float)
    D = np.asarray(D, dtype=float)
    m = D.shape[0]
    finite = np.isfinite(F)
    if finite.all():
        k = m
    else:
        keep = finite.all(axis=1)
        k = int(keep.sum())
        F, D = F[keep], D[keep]
    pairs = k * (k - 1)
    if pairs == 0:
        raise NumericError("no usable pairs (all predictions dropped)")
    gram_norms = (
        np.sum((D.T @ D) ** 2)
        - 2.0 * np.sum((D.T @ F) ** 2)
        + np.sum((F.T @ F) ** 2)
    )
    diagonal = np.sum((np.sum(D * D, axis=1) - np.sum(F * F, axis=1)) ** 2)
    value = max(_finite(float((gram_norms - diagonal) / pairs)), 0.0)
    return RiskValue(value, pairs, m * (m - 1) - pairs)


def linear_risk(F, R, D, seed):
    """Mean squared error over circular pairs, dropping NaN predictions.

    The pairs (l, r) are (i, i+1 mod n) in the order of a seeded shuffle:
    every sample is in exactly two of them, which keeps the estimator
    unbiased for the risk while scoring only n pairs. A prediction is the
    row dot F[l] . R[r], entry (l, r) of F R^T, and a target D[l] . D[r],
    so no (n, n) matrix is built. R is F for a feature model, and
    (core B)^T for kkr's holdout basis F = B^T.
    """
    n = D.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    left, right = order, np.roll(order, -1)
    h = np.sum(F[left] * R[right], axis=1)
    t = np.sum(D[left] * D[right], axis=1)
    return _pair_risk(h, t, n)


def empirical_risk(h, eval_set):
    """U-statistic risk over all ordered pairs i != j.

    `h` is a fitted model, scored from its `factors` by `risk_from_factors`.
    The evaluation set must be disjoint from the data used to fit h; this
    is the caller's responsibility.
    """
    if len(eval_set) < 2:
        raise InputError("risk needs at least two evaluation samples")
    return risk_from_factors(*h.factors(eval_set.probs), residual_matrix(eval_set))
