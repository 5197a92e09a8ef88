"""Simplex-valued domain types, label encodings, and pairwise targets.

A classifier prediction is a point on the probability simplex. Datasets come
in two flavours: "canonical" (full probability vectors with class labels) and
"top-label" (scalar top confidence with a binary correctness label). Every
estimator family and the risk operate on these shared representations.
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


def validate_prob_vector(values, tol=SIMPLEX_SUM_TOL):
    """Return `values` as a float array after checking simplex membership."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InputError("probability vector must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(v)):
        raise InputError("probability vector has non-finite entries")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise InputError("probability vector entries must lie in [0, 1]")
    s = float(v.sum())
    if abs(s - 1.0) > tol:
        raise InputError(f"probability vector sums to {s}, not 1")
    return v


@dataclass(frozen=True)
class Sample:
    """One (prediction, label) pair."""

    probs: np.ndarray
    label: int

    def __post_init__(self):
        v = validate_prob_vector(self.probs)
        object.__setattr__(self, "probs", v)
        lab = int(self.label)
        if not 0 <= lab < v.size:
            raise InputError(f"label {lab} out of range for {v.size} classes")
        object.__setattr__(self, "label", lab)


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
        labels = np.asarray(self.labels, dtype=np.int64)
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

    def sample(self, i):
        if self.mode != CANONICAL:
            raise InputError("Sample extraction requires a canonical dataset")
        return Sample(self.probs[i], int(self.labels[i]))

    def subset(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.probs[idx], self.labels[idx], self.mode)

    @classmethod
    def from_samples(cls, samples):
        samples = list(samples)
        if not samples:
            raise InputError("empty sample list")
        probs = np.stack([s.probs for s in samples])
        labels = np.array([s.label for s in samples], dtype=np.int64)
        return cls(probs, labels, CANONICAL)


class PairModel:
    """A fitted calibration estimation function h(p, p2).

    Subclasses define `pairwise(P)`, the (m, m) matrix of h over the rows of
    an evaluation set, and `diag(P)`, its diagonal h(p_i, p_i). A single
    pair is evaluated through `pairwise`, so the surfaces cannot disagree.
    """

    def predict(self, p, p2):
        P = np.vstack([np.atleast_2d(p), np.atleast_2d(p2)])
        return float(self.pairwise(P)[0, 1])


def kfold_indices(n, k, seed):
    """Seeded shuffle, k contiguous blocks, remainder one-per-fold in front."""
    if k < 2 or n < k:
        raise InputError("need k >= 2 folds and at least k samples")
    order = np.random.default_rng(seed).permutation(n)
    base, rem = divmod(n, k)
    folds, start = [], 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        folds.append(order[start:start + size])
        start += size
    return folds


def softmax(logits, temperature=1.0):
    """Temperature-scaled softmax of a logit vector."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise InputError("logits must be finite")
    if temperature <= 0:
        raise InputError("temperature must be positive")
    z = z / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_rows(logits, temperature=1.0):
    """Row-wise temperature-scaled softmax for a (n, d) logit matrix."""
    z = np.asarray(logits, dtype=float) / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def top_label_reduce(probs, label):
    """Reduce a prediction to (top confidence, correctness).

    Argmax ties break toward the lowest index, so the reduction is
    deterministic and independent of sample order.
    """
    v = np.asarray(probs, dtype=float)
    idx = int(np.argmax(v))
    return float(v[idx]), int(int(label) == idx)


def top_label_dataset(ds):
    """Apply the top-label reduction to every sample of a canonical dataset."""
    if ds.mode != CANONICAL:
        raise InputError("top-label reduction needs a canonical dataset")
    idx = np.argmax(ds.probs, axis=1)
    conf = ds.probs[np.arange(len(ds)), idx]
    correct = (ds.labels == idx).astype(np.int64)
    return Dataset(conf[:, None], correct, TOP_LABEL)


def residual_matrix(ds):
    """Column-per-sample residuals.

    Canonical: (d, n) with column i equal to f(X_i) - e_{Y_i}. Top-label:
    (1, n) with the scalar confidence-minus-correctness residual.
    """
    if ds.mode == CANONICAL:
        return ds.probs.T - one_hot(ds.labels, ds.dim).T
    return (ds.probs[:, 0] - ds.labels)[None, :]


def pair_target(sample_i, sample_j, mode=CANONICAL):
    """Regression target for one ordered sample pair.

    Canonical mode is the inner product of the two residual columns;
    top-label mode is the scalar product (c_i - a_i)(c_j - a_j) of the
    reduced confidence/correctness residuals.
    """
    if sample_i.probs.size != sample_j.probs.size:
        raise InputError("pair_target requires samples of equal dimension")
    if mode == CANONICAL:
        d = sample_i.probs.size
        ri = sample_i.probs - one_hot([sample_i.label], d)[0]
        rj = sample_j.probs - one_hot([sample_j.label], d)[0]
        return float(ri @ rj)
    if mode == TOP_LABEL:
        ci, ai = top_label_reduce(sample_i.probs, sample_i.label)
        cj, aj = top_label_reduce(sample_j.probs, sample_j.label)
        return (ci - ai) * (cj - aj)
    raise InputError(f"unknown mode {mode!r}")


def pair_target_matrix(ds):
    """All pairwise targets of a dataset as the (n, n) Gram of residuals."""
    delta = residual_matrix(ds)
    return delta.T @ delta
