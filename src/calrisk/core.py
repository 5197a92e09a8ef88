"""Simplex-valued domain types, label encodings, and residual targets.

A classifier prediction is a point on the probability simplex. Datasets come
in two flavours: "canonical" (full probability vectors with class labels) and
"top-label" (scalar top confidence with a binary correctness label). Every
layer reads these and their (n, d) residual rows, `residual_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_SUM_TOL = 1e-9

CANONICAL = "canonical"
TOP_LABEL = "top-label"


class InputError(ValueError):
    """Invalid user-supplied data or configuration."""


class NumericError(ArithmeticError):
    """A numeric routine failed (singular system, broken Gram matrix, ...)."""


@dataclass(frozen=True)
class Dataset:
    """Homogeneous collection of predictions and labels.

    In canonical mode `probs` is (n, d) with rows on the simplex and labels
    in {0, ..., d-1}. In top-label mode `probs` is (n, 1) holding the top
    confidence and labels are binary correctness indicators.
    """

    probs: np.ndarray
    labels: np.ndarray
    mode: str = CANONICAL

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind == "f" and not np.all(np.isfinite(labels)
                                                   & (labels == np.round(labels))):
            raise InputError("labels must be integers")
        labels = labels.astype(np.int64)
        if probs.ndim != 2 or probs.shape[0] < 1:
            raise InputError("probs must be a non-empty (n, d) array")
        if labels.shape != (probs.shape[0],):
            raise InputError("labels must be a 1-d array matching probs rows")
        if not np.all(np.isfinite(probs)):
            raise InputError("probs contains non-finite entries")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise InputError("probs entries must lie in [0, 1]")
        if self.mode == CANONICAL:
            sums = probs.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > SIMPLEX_SUM_TOL):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise InputError(f"row {bad} sums to {sums[bad]}, not 1")
            if np.any(labels < 0) or np.any(labels >= probs.shape[1]):
                raise InputError("labels out of class range")
        elif self.mode == TOP_LABEL:
            if probs.shape[1] != 1:
                raise InputError("top-label mode requires (n, 1) confidences")
            if not np.all((labels == 0) | (labels == 1)):
                raise InputError("top-label labels must be binary correctness")
        else:
            raise InputError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.probs.shape[0]

    @property
    def dim(self):
        return self.probs.shape[1]

    def subset(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.probs[idx], self.labels[idx], self.mode)


class PairModel:
    """A fitted calibration estimation function h(p, p2).

    Every model predicts the rows P of an evaluation set as H = F R^T, with
    `factors(P)` giving the (m, r) pair (F, R). A model that is an inner
    product of a feature map, h(p, p2) = <phi(p), phi(p2)>, defines
    `features(P)`, the (m, d') rows phi(p), and its factors are (phi, phi);
    the risk then scores it without any (m, m) matrix. Every model binds
    `factor_pairwise`, the (m, m) matrix H, and `factor_diag`, its diagonal
    h(p_i, p_i), as its `pairwise` and `diag`. A single pair is evaluated
    through `pairwise`, so the surfaces cannot disagree.
    """

    def factors(self, P):
        """(phi, phi) for a feature-map model; a kernel model overrides it."""
        f = self.features(P)
        return f, f

    def predict(self, p, p2):
        P = np.vstack([np.atleast_2d(p), np.atleast_2d(p2)])
        return float(self.pairwise(P)[0, 1])


def factor_pairwise(model, P):
    """`pairwise` of a model: H = F R^T over its factors."""
    F, R = model.factors(P)
    return F @ R.T


def factor_diag(model, P):
    """`diag` of a model: the row dots F_i . R_i, the diagonal of F R^T."""
    F, R = model.factors(P)
    return np.sum(F * R, axis=1)


def check_grid(grid):
    """The grid as a list; an InputError if it is empty, holds a non-finite
    value or repeats one."""
    grid = list(grid)
    if not grid:
        raise InputError("empty hyperparameter grid")
    if not np.isfinite(grid).all():
        raise InputError(f"grid values must be finite, got {grid}")
    repeated = [h for i, h in enumerate(grid) if h in grid[:i]]
    if repeated:
        raise InputError(f"grid value {repeated[0]!r} given more than once")
    return grid


def kfold_indices(n, k, seed):
    """Seeded shuffle split into k contiguous blocks (`np.array_split`: the
    remainder goes one per fold, in front)."""
    if k < 2 or n < k:
        raise InputError("need k >= 2 folds and at least k samples")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


def softmax_rows(logits):
    """Row-wise softmax of a (n, d) logit matrix."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def top_label_dataset(ds):
    """Reduce every sample of a canonical dataset to (top confidence, correctness).

    Argmax ties break toward the lowest index, so the reduction is
    deterministic and independent of sample order.
    """
    if ds.mode != CANONICAL:
        raise InputError("top-label reduction needs a canonical dataset")
    idx = np.argmax(ds.probs, axis=1)
    conf = ds.probs[np.arange(len(ds)), idx]
    correct = (ds.labels == idx).astype(np.int64)
    return Dataset(conf[:, None], correct, TOP_LABEL)


def label_targets(ds):
    """The label of each sample as a row: (n, d) one-hot classes in
    canonical mode, the (n, 1) correctness column as float in top-label."""
    if ds.mode == CANONICAL:
        return one_hot(ds.labels, ds.dim)
    return ds.labels[:, None].astype(float)


def residual_matrix(ds):
    """The residual rows f(X_i) - `label_targets`: (n, d) in canonical
    mode, (n, 1) confidence minus correctness in top-label."""
    return ds.probs - label_targets(ds)

