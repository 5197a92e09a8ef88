"""Empirical calibration-estimation risk.

The quadratic form is a U-statistic over all ordered sample pairs; a linear
variant pairs samples circularly after a seeded shuffle. Both score a
prediction matrix against the pair-target matrix: a fitted model supplies
its vectorized `pairwise` matrix, a plain callable h(p, p2) is evaluated
pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, NumericError, pair_target_matrix


@dataclass(frozen=True)
class RiskValue:
    """Empirical risk with NaN-drop accounting."""

    value: float
    pairs_used: int
    dropped_nan: int


def risk_from_matrix(H, T):
    """Mean squared error over off-diagonal pairs, dropping NaN predictions."""
    m = T.shape[0]
    off = ~np.eye(m, dtype=bool)
    use = off & np.isfinite(H)
    pairs = int(use.sum())
    dropped = int(off.sum()) - pairs
    if pairs == 0:
        raise NumericError("no usable pairs (all predictions dropped)")
    value = float(np.sum((T[use] - H[use]) ** 2) / pairs)
    return RiskValue(value, pairs, dropped)


def linear_risk_from_matrix(H, T, seed):
    """Mean squared error over circular pairs, dropping NaN predictions.

    The pairs are (i, i+1 mod n) in the order of a seeded shuffle.
    """
    n = T.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    left, right = order, np.roll(order, -1)
    preds = H[left, right]
    targets = T[left, right]
    use = np.isfinite(preds)
    pairs = int(use.sum())
    if pairs == 0:
        raise NumericError("no usable pairs (all predictions dropped)")
    value = float(np.sum((targets[use] - preds[use]) ** 2) / pairs)
    return RiskValue(value, pairs, n - pairs)


def _prediction_matrix(h, eval_set):
    P = eval_set.probs
    if hasattr(h, "pairwise"):
        return np.asarray(h.pairwise(P), dtype=float)
    n = len(eval_set)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                H[i, j] = h(P[i], P[j])
    return H


def empirical_risk(h, eval_set):
    """U-statistic risk over all ordered pairs i != j.

    `h` is either a fitted model (its vectorized pairwise surface is used)
    or a plain callable h(p, p2) evaluated pointwise. The evaluation set
    must be disjoint from the data used to fit h; this is the caller's
    responsibility.
    """
    if len(eval_set) < 2:
        raise InputError("risk needs at least two evaluation samples")
    T = pair_target_matrix(eval_set)
    H = _prediction_matrix(h, eval_set)
    return risk_from_matrix(H, T)


def empirical_risk_linear(h, eval_set, seed=0):
    """Risk over the n circular pairs of a seeded shuffle.

    Every sample is used in exactly two ordered pairs (i, i+1 mod n), which
    keeps the estimator unbiased for the risk while scoring only n pairs.
    """
    if len(eval_set) < 2:
        raise InputError("risk needs at least two evaluation samples")
    H = _prediction_matrix(h, eval_set)
    return linear_risk_from_matrix(H, pair_target_matrix(eval_set), seed)
