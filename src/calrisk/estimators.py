"""Calibration estimation function families h: simplex x simplex -> R.

Four families are provided: histogram binning, a Dirichlet-kernel density
ratio (Nadaraya-Watson style), Kronecker kernel ridge regression solved via
the eigendecomposition/Hadamard trick, and a two-step kernel ridge regressor
that plugs fitted residual regressions into the inner product. Only the
vectorized closed forms live here; the brute-force Kronecker solver and the
pointwise kernels they are checked against are test oracles.

Every fitted model is a `PairModel` and gives its prediction factors:
`factors(P)` is the pair (F, R) with the (m, m) predictions H = F R^T of
an evaluation set. `core.factor_pairwise` (H) and `core.factor_diag` (the
diagonal predictions h(p_i, p_i) that the final estimate averages) serve
every family, and `predict(p, p2)` evaluates one pair through `pairwise`.
Binning and kde are inner products of a feature map, h(p, p2) =
<phi(p), phi(p2)>: their `features(P)` gives the (m, d') rows phi(p), F =
R = phi, and `risk.risk_from_factors` scores them without any (m, m)
matrix. kkr and ukkr are kernel quadratic forms B^T core B over a basis B
of the evaluation rows, so F = B^T and R = (core B)^T (`kkr_factors`). Both
fit from a training Gram's `Spectrum` alone (`kkr_prepare`), and a fitted
model is `(spectrum, lam)`: its (n, n) core is built inside `factors`.

ukkr's cross-validation is factored (`ukkr_cv_features`): it only ranks a
lambda grid, and the factored and dense holdout risks agree to rounding.
Its fitted model stays dense, because factoring it moves the
estimates: by up to 1.5e-3 relative through the Gram eigenbasis, 7.9e-3
through Q^T G Q computed as V V^T. So `UkkrModel` has no `features`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    PairModel,
    factor_diag,
    factor_pairwise,
    label_targets,
    residual_matrix,
)

CLIP_EPS = 1e-10
EIG_FLOOR = -1e-8
SINGULAR_TOL = 1e-12
# np.exp keeps to its SIMD fast path at or above this argument; from about
# -708 down its results are subnormal or zero and it runs 20-200x slower
FAST_EXP_FLOOR = -700.0
# np.exp is exactly 0.0 here and below (it rounds to 0 from -745.1332...)
DEAD_CUTOFF = -746.0
# bytes of one (block, n_train) kde weight array: kde_regress takes its
# queries in row blocks this size, so its memory does not grow with the
# query count. Of 256 KiB to 2 MiB, 512 KiB ran evaluate-kde fastest on 2
# cores with OpenBLAS (BENCH_kde_blocks.json; re-swept: BENCH_kde_fused.json)
KDE_BLOCK_BYTES = 512 * 1024


def _lgamma(x):
    """math.lgamma elementwise, for kde_regress's per-query log-normalizers:
    a map over a list runs about 1.4x as fast as np.vectorize of it."""
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def check_hyper(family, value):
    """InputError unless `value` lies in `family`'s hyperparameter range: the
    one rule that the fits and `pipeline.RunConfig`'s grid overrides apply."""
    if family == "bin":
        if not (float(value).is_integer() and value >= 1):
            raise InputError(f"number of bins must be a positive integer, got {value}")
        # a binning model's arrays take about 40 bytes per bin, and no
        # default grid goes past 100 bins: 10**6 bins are some 40 MB
        if value > 10**6:
            raise InputError(f"number of bins must be at most 1000000, got {value}")
    if family == "kde":
        if not value > 0:
            raise InputError("bandwidth must be positive")
        # the log-weights need 1/b and lgamma(1/b + 1) as finite numbers:
        # lgamma(inf) is inf, and math.lgamma raises where a finite
        # argument's result overflows
        try:
            finite = math.isfinite(math.lgamma(1.0 / float(value) + 1.0))
        except OverflowError:
            finite = False
        if not finite:
            raise InputError(f"bandwidth {value} is too small: its kernel constants overflow")
    if family in ("kkr", "ukkr") and value < 0:
        raise InputError("lambda must be nonnegative")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def rbf_gram(X, Y, gamma):
    """(n, m) matrix of RBF kernel values between rows of X and rows of Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    # in place, in the operation order of |x|^2 + |y|^2 - 2 x.y: two (n, m) arrays
    xy = X @ Y.T
    xy *= 2.0
    sq = np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)[None, :]
    sq -= xy
    np.clip(sq, 0.0, None, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


def clip_simplex(P):
    """Clip simplex rows away from the boundary at CLIP_EPS and renormalize."""
    P = np.clip(np.atleast_2d(np.asarray(P, dtype=float)), CLIP_EPS, None)
    return P / P.sum(axis=1, keepdims=True)


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

    def features(self, P):
        """(m, 1) bin gaps; h(p, p2) is their product."""
        return self.gaps[_bin_index(self.edges, _conf_column(P))][:, None]

    pairwise = factor_pairwise
    diag = factor_diag


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
    check_hyper("bin", num_bins)
    num_bins = int(num_bins)
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

    def features(self, P):
        """(m, k) residuals p - g(p), k = d or 1 as P; NaN rows kept."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return P - kde_regress(self.train, P, self.bandwidth)

    pairwise = factor_pairwise
    diag = factor_diag


def fit_kde(train, bandwidth):
    check_hyper("kde", bandwidth)
    return KdeModel(train, float(bandwidth))


def _exp_inplace(x):
    """x <- np.exp(x) bit for bit, with no lane on np.exp's slow path.

    Every lane is clamped to FAST_EXP_FLOOR before the exp, then the lanes
    that were below it are zeroed by a multiply; the few between DEAD_CUTOFF
    and the floor, whose exp is subnormal or tiny but not 0, are recomputed
    from their original values. When every lane is live (no NaN, none below
    the floor), the exp runs alone. NaN and +-inf come out as np.exp gives them.
    `x` is a C-contiguous float64 array, as every fresh product is.
    """
    live = x >= FAST_EXP_FLOOR
    if live.all():
        with np.errstate(over="ignore"):
            return np.exp(x, out=x)
    flat = x.reshape(-1)
    band = np.flatnonzero(~live.reshape(-1) & (flat > DEAD_CUTOFF))
    band_x = flat[band]
    np.maximum(x, FAST_EXP_FLOOR, out=x)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(x, out=x)
        x *= live
        flat[band] = np.exp(band_x)
    return x


def kde_regress(train, queries, bandwidth):
    """Kernel-weighted label means g(q) at each query point.

    Returns the (m, k) means of `core.label_targets`, k = d in canonical
    and 1 in top-label mode. Kernel weights are evaluated in
    linear space; queries whose weight sum underflows to zero (or overflows)
    yield NaN rows, the documented sentinel downstream consumers drop.
    At small bandwidths most log-weights lie far below -708, where np.exp
    is many times slower; `_exp_inplace` clamps them onto its fast path and
    restores the exact underflowed values, so the weights are bit for bit
    those of a plain np.exp of the log-weights.
    The queries are sorted by their top class, then their top probability,
    so that neighbours share a block, and the results are written back in
    query order. The blocks are equal row blocks whose (block, n_train)
    log-weight array holds at most KDE_BLOCK_BYTES (at least one row), so
    memory is bounded by that budget, not by n_train * m. A small input is
    one block. Each block is two products and one exp: [q_j / b, shift_j]
    times [log x_i, 1] gives the log-weights with the kernel scale and
    shift folded in, and the weights times [labels, 1] give the label
    numerators with the weight sums in the last column. A training row
    whose largest log-weight in the block is at or below DEAD_CUTOFF has
    weight exactly 0.0 for every query of the block; such dead columns are
    dropped before the exp and the label product, which removes only zero
    terms from the sums (a NaN column is kept). A block with no dead column
    runs densely. The sums column, read once after the last block, marks
    the NaN rows and divides the rest, so the NaN rows are exactly those of
    the dense weights. A result matches the textbook scale-shift-exp-sum
    passes up to rounding: the products sum in another order, which BLAS
    also picks by matrix size and the skipped columns change, and 1/b
    scales the log-weights' share of it.
    The shift's log-gammas come from math.lgamma; `check_hyper` bounds each
    query entry's argument q_j / b + 1 by 1/b + 1, so none of them overflows.
    """
    check_hyper("kde", bandwidth)
    Xs = clip_simplex(_as_simplex_points(train.probs))
    Qs = clip_simplex(_as_simplex_points(queries))
    n, d = Xs.shape
    inv_b = 1.0 / bandwidth
    # neighbouring queries in one block: by top class, then top probability
    order = np.lexsort((Qs.max(axis=1), Qs.argmax(axis=1)))
    # log k_dir(x_i; q_j) = <q_j / b, log x_i> + log B(q_j / b + 1)^-1;
    # [log x_i, 1] as the columns of a C-contiguous array, on which the
    # log-weight product runs about 1.3x as fast as on a transposed one
    log_x1 = np.ones((d + 1, n))
    np.log(Xs.T, out=log_x1[:d])
    qs = Qs[order] * inv_b
    qs1 = np.column_stack([qs, math.lgamma(d + inv_b) - _lgamma(qs + 1.0).sum(axis=1)])
    Y1 = np.column_stack([label_targets(train), np.ones(n)])
    num_sorted = np.empty((len(Qs), Y1.shape[1]))
    rows = max(1, KDE_BLOCK_BYTES // (8 * n))
    blocks = max(1, -(-len(Qs) // rows))
    # two weight arrays serve every block, the log-weights and the gathered
    # live columns, cut from one allocation: one array per block made
    # evaluate-tce's kde_regress 1.5x slower, and two separate arrays cost
    # 100-170 page faults per call, as malloc returned their pages to the
    # system at each free and faulted them in again
    buf, live_buf = np.split(np.empty(2 * n * min(rows, len(Qs))), 2)
    for q, out in zip(np.array_split(qs1, blocks), np.array_split(num_sorted, blocks)):
        log_w = np.matmul(q, log_x1, out=buf[: len(q) * n].reshape(len(q), n))
        # a column is dead when its exp is 0.0 for every query of the block;
        # a NaN column stays, and with no query (initial) every column is dead
        live = ~(log_w.max(axis=0, initial=-np.inf) <= DEAD_CUTOFF)
        if live.all():
            np.matmul(_exp_inplace(log_w), Y1, out=out)
            continue
        # mode="clip" (every index is in range) writes straight into the
        # buffer; the default mode="raise" buffers `out` in a fresh array
        keep = np.flatnonzero(live)
        w = np.take(log_w, keep, axis=1, mode="clip",
                    out=live_buf[: len(q) * keep.size].reshape(len(q), keep.size))
        np.matmul(_exp_inplace(w), np.take(Y1, keep, axis=0, mode="clip"), out=out)
    num = np.empty_like(num_sorted)
    num[order] = num_sorted
    denom = num[:, -1]
    bad = ~np.isfinite(denom) | (denom == 0.0)
    ghat = num[:, :-1] / np.where(bad, 1.0, denom)[:, None]
    ghat[bad] = np.nan
    return ghat


# ---------------------------------------------------------------------------
# Kernel quadratic forms: Kronecker and two-step kernel ridge regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """The lambda-independent part of every kkr and ukkr fit on one training set.

    X holds the training predictions, Q and evals the eigenvectors and
    clipped eigenvalues of their RBF Gram at `gamma` (n = evals.size), QtGQ
    the Gram D D^T of the residual rows D rotated into that eigenbasis and
    V = Q^T D the rotated rows. Every lambda of either family, and its refit, needs only these.
    """

    X: np.ndarray
    gamma: float
    Q: np.ndarray
    evals: np.ndarray
    QtGQ: np.ndarray
    V: np.ndarray

    def basis(self, P):
        """Q^T k(X, P): the evaluation rows P in the Gram eigenbasis."""
        return self.Q.T @ rbf_gram(self.X, P, self.gamma)


@dataclass(frozen=True)
class KkrModel(PairModel):
    """Closed-form Kronecker kernel ridge model.

    A prediction is k(p)^T Q core Q^T k(p2) with `kkr_core`'s
    Ltilde o (Q^T D D^T Q), Ltilde_ij = 1 / (l_i l_j + lam n^2); the (n, n)
    core is built by each `factors` call and not kept.
    """

    spectrum: Spectrum
    lam: float

    def factors(self, P):
        """`kkr_factors` over the basis B = Q^T k(X, P)."""
        return kkr_factors(self.spectrum, self.spectrum.basis(P), self.lam)

    pairwise = factor_pairwise
    diag = factor_diag


def kkr_prepare(train, gamma):
    """The `Spectrum` of `train`: one eigendecomposition of its RBF Gram."""
    X = train.probs
    # the Gram and G = D D^T die after one use; (Q^T G) Q is Q^T @ G @ Q's order
    evals, Q = np.linalg.eigh(rbf_gram(X, X, gamma))
    if evals.min() < EIG_FLOOR:
        raise NumericError(
            f"Gram matrix eigenvalue {evals.min()} below {EIG_FLOOR}"
        )
    evals = np.clip(evals, 0.0, None)
    D = residual_matrix(train)
    QtG = Q.T @ (D @ D.T)
    return Spectrum(X, float(gamma), Q, evals, QtG @ Q, Q.T @ D)


def _check_kkr(spec, lam):
    """InputError for a negative lam, NumericError for lam = 0 on a singular Gram."""
    check_hyper("kkr", lam)
    if lam == 0 and spec.evals.min() < SINGULAR_TOL:
        raise NumericError(
            f"lambda=0 with singular Gram matrix (min eigenvalue {spec.evals.min()})"
        )


def kkr_core(spec, lam):
    """The (n, n) kkr core at `lam`, in one (n, n) array."""
    _check_kkr(spec, lam)
    n = spec.evals.size
    core = np.outer(spec.evals, spec.evals)
    core += lam * n * n
    np.divide(1.0, core, out=core)
    core *= spec.QtGQ
    return core


def kkr_factors(spec, B, lam):
    """(B^T, (core B)^T) at `lam` over a basis B = Q^T k(X, P): a fitted kkr
    model's factors, and per lambda those of a fold's holdout basis."""
    return B.T, (kkr_core(spec, lam) @ B).T


def fit_kkr(spectrum, lam):
    """The Kronecker kernel ridge model at `lam` on `spectrum`'s training set;
    a lam that `kkr_core` cannot take raises here."""
    _check_kkr(spectrum, lam)
    return KkrModel(spectrum, lam)


@dataclass(frozen=True)
class UkkrModel(PairModel):
    """Two-step model: dense core (K + lam n I)^-1 D D^T (K + lam n I)^-1 over
    k(X, P), built as Q `ukkr_rotated_core` Q^T by each `factors` call."""

    spectrum: Spectrum
    lam: float

    def factors(self, P):
        """(B^T, (core B)^T) over the basis B = k(X, P)."""
        B = rbf_gram(self.spectrum.X, P, self.spectrum.gamma)
        Q = self.spectrum.Q
        return B.T, ((Q @ ukkr_rotated_core(self.spectrum, self.lam) @ Q.T) @ B).T

    pairwise = factor_pairwise
    diag = factor_diag


def _ukkr_shift(spec, lam):
    """The Gram eigenvalues shifted by lam n, checked for a solvable system."""
    check_hyper("ukkr", lam)
    shifted = spec.evals + lam * spec.evals.size
    if np.any(shifted < SINGULAR_TOL):
        raise NumericError(
            f"singular system in two-step solve (min shifted eigenvalue "
            f"{shifted.min()})"
        )
    return shifted


def ukkr_rotated_core(spec, lam):
    """Core of the two-step solve in the Gram eigenbasis; `UkkrModel` rotates it back."""
    shifted = _ukkr_shift(spec, lam)
    core = np.outer(shifted, shifted)
    return np.divide(spec.QtGQ, core, out=core)


def ukkr_cv_features(spec, basis, lam):
    """(m, d) holdout rows Phi with Phi Phi^T = basis^T rotated basis.

    `rotated` is `ukkr_rotated_core(spec, lam)` and `basis` the holdout
    basis `spec.basis(P)`. Since Q^T G Q = V V^T, Phi = basis^T diag(1/s) V
    with s = evals + lam n: the two-step KRR of Stock, Pahikkala et al. (2018)
    in O(n m d) per lambda. It agrees with the dense matrix to rounding, so
    it serves to rank a lambda grid; the fitted model keeps the dense core,
    since factoring it moves the estimates (see the module docstring).
    """
    return basis.T @ (spec.V / _ukkr_shift(spec, lam)[:, None])


def fit_ukkr(spectrum, lam):
    """The two-step kernel ridge model at `lam` on `spectrum`'s training set;
    a lam that `ukkr_rotated_core` cannot take raises here."""
    _ukkr_shift(spectrum, lam)
    return UkkrModel(spectrum, lam)
