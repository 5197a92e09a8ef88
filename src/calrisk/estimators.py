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
model is `(spectrum, lam)`: its core is built inside `factors`. On
canonical data the spectrum keeps only the Gram's r numerically nonzero
eigenpairs (np.linalg.pinv's rank rule), from a pivoted Cholesky factor
when the Gram's numerical rank is well below n, so both cores are (r, r)
and both bases (r, m); top-label spectra are the Gram's full `eigh`, all
n pairs kept (see `kkr_prepare`).

ukkr's cross-validation is factored (`ukkr_cv_features`): it only ranks a
lambda grid, and the factored and dense holdout risks agree to rounding.
A fitted top-label ukkr stays dense, an (n, n) core over k(X, P), because
factoring it moves the tce estimates: by up to 1.5e-3 relative through
the Gram eigenbasis, 7.9e-3 through Q^T G Q computed as V V^T. So
`UkkrModel` has no `features`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CANONICAL,
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
# a canonical Gram whose pivoted Cholesky factor needs more rows than this
# share of n is decomposed whole: at n = 768 on 2 cores the pivot loop,
# Lt Lt^T and the (k, k) eigh together cost as much as the (n, n) eigh at
# about 0.7 n rows (BENCH_cce_pivoted.json)
PIVOT_SHARE = 2 / 3


def _lgamma(x):
    """math.lgamma elementwise, for kde_regress's log-normalizers:
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
        return kde_features(kde_prepare(self.train, P), self.bandwidth)

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


@dataclass(frozen=True)
class KdePrep:
    """The part of `kde_regress` over one training set and one query set
    that does not depend on the bandwidth; `kde_prepare` builds it.

    `queries` are the query rows as given, `log_x1` the (d + 1, n) columns
    [log x_i, 1] of the clipped training points and `Y1` the (n, k + 1) rows
    [label_targets, 1]. `order` sorts the queries and `blocks` holds the
    (start, stop) row bounds of the query blocks in that order. `values`
    are the distinct entries of the clipped simplex points of the sorted
    queries, and `inverse` the (m, d) index of each entry into them, so
    `values[inverse]` are those points. `buf` is the scratch that every
    call's block weights are written to, so a prep serves one `kde_regress`
    call at a time.
    """

    queries: np.ndarray
    log_x1: np.ndarray
    Y1: np.ndarray
    order: np.ndarray
    blocks: tuple
    values: np.ndarray
    inverse: np.ndarray
    buf: np.ndarray


def kde_prepare(train, queries):
    """The `KdePrep` of `train` and `queries`: everything `kde_regress`
    needs that no bandwidth changes, built once for a whole bandwidth grid.

    It clips the training and query points onto the simplex, takes the
    training logs and the [label_targets, 1] rows, sorts the queries, cuts
    them into blocks and finds their distinct entries, whose log-gammas are
    then the only ones each `kde_regress` call computes.
    """
    P = np.atleast_2d(np.asarray(queries, dtype=float))
    Xs = clip_simplex(_as_simplex_points(train.probs))
    Qs = clip_simplex(_as_simplex_points(P))
    n, d = Xs.shape
    m = len(Qs)
    # neighbouring queries in one block: by top class, then top probability
    order = np.lexsort((Qs.max(axis=1), Qs.argmax(axis=1)))
    # log k_dir(x_i; q_j) = <q_j / b, log x_i> + log B(q_j / b + 1)^-1;
    # [log x_i, 1] as the columns of a C-contiguous array, on which the
    # log-weight product runs about 1.3x as fast as on a transposed one
    log_x1 = np.ones((d + 1, n))
    np.log(Xs.T, out=log_x1[:d])
    Y1 = np.column_stack([label_targets(train), np.ones(n)])
    rows = max(1, KDE_BLOCK_BYTES // (8 * n))
    count = max(1, -(-m // rows))
    # equal row blocks as np.array_split cuts them: the first `extra` one longer
    size, extra = divmod(m, count)
    stops = [(i + 1) * size + min(i + 1, extra) for i in range(count)]
    blocks = tuple(zip([0, *stops[:-1]], stops))
    values, inverse = np.unique(Qs[order].ravel(), return_inverse=True)
    # two weight arrays serve every block of every call, the log-weights and
    # the gathered live columns, cut from one allocation: one array per block
    # made evaluate-tce's kde_regress 1.5x slower, and two separate arrays
    # cost 100-170 page faults per call, as malloc returned their pages to
    # the system at each free and faulted them in again
    buf = np.empty(2 * n * min(rows, m))
    return KdePrep(P, log_x1, Y1, order, blocks, values, inverse.reshape(m, d), buf)


def kde_features(prep, bandwidth):
    """(m, k) residuals q - g(q) of `prep`'s queries at `bandwidth`, NaN
    rows kept: the features of a `KdeModel`, and per bandwidth those of a
    fold's holdout rows."""
    return prep.queries - kde_regress(prep, bandwidth)


def kde_regress(prep, bandwidth):
    """Kernel-weighted label means g(q) at each query point of `prep`.

    Returns the (m, k) means of `core.label_targets`, k = d in canonical
    and 1 in top-label mode. `prep` is `kde_prepare(train, queries)`: the
    clipped points, the training logs, the label rows, the query order and
    blocks and the distinct query entries are taken once per training and
    query set, and a call does only the work that depends on the bandwidth.
    Kernel weights are evaluated in linear space; queries whose weight sum
    underflows to zero (or overflows) yield NaN rows, the documented
    sentinel downstream consumers drop.
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
    numerators with the weight sums in the last column. A block whose
    smallest log-weight is at or above FAST_EXP_FLOOR has every lane live
    and on np.exp's fast path, and takes a plain np.exp. In any other
    block, a training row whose largest log-weight in the block is at or
    below DEAD_CUTOFF has weight exactly 0.0 for every query of the block;
    such dead columns are dropped before the exp and the label product,
    which removes only zero terms from the sums (a NaN column is kept). A
    block with no dead column runs densely. The sums column, read once
    after the last block, marks the NaN rows and divides the rest, so the
    NaN rows are exactly those of the dense weights. A result matches the
    textbook scale-shift-exp-sum passes up to rounding: the products sum in
    another order, which BLAS also picks by matrix size and the skipped
    columns change, and 1/b scales the log-weights' share of it.
    The shift's log-gammas come from math.lgamma, once per distinct query
    entry; `check_hyper` bounds each entry's argument q_j / b + 1 by
    1/b + 1, so none of them overflows.
    """
    check_hyper("kde", bandwidth)
    log_x1, Y1 = prep.log_x1, prep.Y1
    m, d = prep.inverse.shape
    n = log_x1.shape[1]
    inv_b = 1.0 / bandwidth
    # the sorted queries q_j / b and their log-gammas, from the distinct entries
    scaled = prep.values * inv_b
    log_gamma = _lgamma(scaled + 1.0)[prep.inverse].sum(axis=1)
    qs1 = np.column_stack([scaled[prep.inverse], math.lgamma(d + inv_b) - log_gamma])
    num_sorted = np.empty((m, Y1.shape[1]))
    buf, live_buf = np.split(prep.buf, 2)
    with np.errstate(over="ignore"):
        for start, stop in prep.blocks:
            q, out = qs1[start:stop], num_sorted[start:stop]
            log_w = np.matmul(q, log_x1, out=buf[: len(q) * n].reshape(len(q), n))
            # every lane live and on np.exp's fast path (an empty block too;
            # a NaN lane fails the test)
            if log_w.min(initial=np.inf) >= FAST_EXP_FLOOR:
                np.matmul(np.exp(log_w, out=log_w), Y1, out=out)
                continue
            # a column is dead when its exp is 0.0 for every query of the block;
            # a NaN column stays
            live = ~(log_w.max(axis=0) <= DEAD_CUTOFF)
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
    num[prep.order] = num_sorted
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

    X holds the n training predictions of a `mode` dataset, Q (n, r) and
    evals (r,) the kept eigenvectors and clipped eigenvalues of their RBF
    Gram at `gamma`, QtGQ (r, r) the Gram D D^T of the residual rows D
    rotated into that eigenbasis and V = Q^T D (r, d) the rotated rows.
    r <= n: `kkr_prepare` keeps every eigenpair in top-label mode and the
    numerically nonzero ones in canonical mode, so the ridge terms lam n and
    lam n^2 read the training row count `n` = len(X), never evals.size.
    `min_eval` is the smallest clipped eigenvalue of the whole spectrum,
    kept or not, by which `_check_kkr` and `_ukkr_shift` refuse a singular
    solve. A canonical spectrum from a pivoted Cholesky factor (see
    `kkr_prepare`) has fewer than n factor rows, so the Gram's null space
    is not seen and `min_eval` is 0.0. Its Q is orthonormal to about
    (eps l_max / l_min)^2, max |Q^T Q - I| 1.4e-6 on a 768-row cce-d10
    fold, and Q diag(evals) Q^T is the factor's Gram Lt^T Lt to rounding.
    Every lambda of either family, and its refit, needs only these.
    """

    X: np.ndarray
    gamma: float
    mode: str
    Q: np.ndarray
    evals: np.ndarray
    QtGQ: np.ndarray
    V: np.ndarray
    min_eval: float

    @property
    def n(self):
        return len(self.X)

    def basis(self, P):
        """Q^T k(X, P): the evaluation rows P in the Gram eigenbasis."""
        return self.Q.T @ rbf_gram(self.X, P, self.gamma)


@dataclass(frozen=True)
class KkrModel(PairModel):
    """Closed-form Kronecker kernel ridge model.

    A prediction is k(p)^T Q core Q^T k(p2) with `kkr_core`'s
    Ltilde o (Q^T D D^T Q), Ltilde_ij = 1 / (l_i l_j + lam n^2), over the
    spectrum's r kept eigenpairs and its n training rows; the (r, r) core is
    built by each `factors` call and not kept.
    """

    spectrum: Spectrum
    lam: float

    def factors(self, P):
        """`kkr_factors` over the basis B = Q^T k(X, P)."""
        return kkr_factors(self.spectrum, self.spectrum.basis(P), self.lam)

    pairwise = factor_pairwise
    diag = factor_diag


def kkr_prepare(train, gamma):
    """The `Spectrum` of `train`: one `eigh` per training set.

    A top-label spectrum is the `eigh` of the (n, n) RBF Gram, all n pairs
    kept: its rank is about 6, and cutting it failed 55 of the benchmark's
    64 tce reference checks (kkr's winning lambda or the kkr/ukkr estimates
    moved), outputs that depend on the BLAS thread count there either way.
    A canonical spectrum keeps the eigenpairs with l > n eps l.max(), the
    rank rule of np.linalg.pinv: the rest are rounding noise, and every kkr
    and ukkr product then works on (n, r) and (r, r) operands. It is cheap
    when the Gram's numerical rank is well below n: `_pivoted_cholesky`
    gives a (k, n) factor Lt, G ~ Lt^T Lt, and the `eigh` of the (k, k)
    Lt Lt^T = W diag(l) W^T, whose nonzero eigenvalues are those of
    Lt^T Lt, gives Q = Lt^T W / sqrt(l), then one Newton-Schulz step
    toward orthonormal columns. On the benchmark's cce-d10 folds r is
    about 280 and k/n 0.42-0.49 of 768 rows. A Gram whose factor would
    need more than PIVOT_SHARE n rows is decomposed whole, then cut.
    """
    X = train.probs
    n = len(X)
    G = rbf_gram(X, X, gamma)
    Lt = _pivoted_cholesky(G) if train.mode == CANONICAL else None
    # W: the eigenvectors of the matrix decomposed, Q itself when Lt is None
    evals, W = np.linalg.eigh(G if Lt is None else Lt @ Lt.T)
    # the (n, n) Gram dies before D D^T is formed, as the peak RSS needs
    del G
    if evals.min() < EIG_FLOOR:
        raise NumericError(
            f"Gram matrix eigenvalue {evals.min()} below {EIG_FLOOR}"
        )
    evals = np.clip(evals, 0.0, None)
    # Lt has fewer than n rows: the Gram's null space is not seen
    min_eval = float(evals[0]) if Lt is None else 0.0
    D = residual_matrix(train)
    if train.mode == TOP_LABEL:
        # D D^T dies after one use; (Q^T D D^T) Q is Q^T @ D D^T @ Q's order
        QtG = W.T @ (D @ D.T)
        return Spectrum(X, float(gamma), train.mode, W, evals, QtG @ W, W.T @ D, min_eval)
    # eigh's eigenvalues ascend, so the kept pairs are the last r
    cut = np.searchsorted(evals, n * np.finfo(float).eps * evals[-1], side="right")
    evals = evals[cut:]
    if Lt is None:
        Q = np.ascontiguousarray(W[:, cut:])
    else:
        Q = (Lt.T @ W[:, cut:]) / np.sqrt(evals)
        # W's rounding, scaled by 1/sqrt(l), leaves Q^T Q - I near
        # eps l_max / l_min; one Newton-Schulz step squares that away
        Q = Q @ (1.5 * np.eye(evals.size) - 0.5 * (Q.T @ Q))
    V = Q.T @ D
    return Spectrum(X, float(gamma), train.mode, Q, evals, V @ V.T, V, min_eval)


def _pivoted_cholesky(G):
    """The (k, n) greedy pivoted Cholesky factor Lt of a PSD G, G ~ Lt^T Lt,
    or None once it would take more than PIVOT_SHARE n rows.

    Each step pivots on the largest diagonal entry of the residual
    G - Lt^T Lt, and the factor is done once that entry is at most
    n eps max(diag G), the tolerance of np.linalg.pinv's rank rule. The
    residual is never formed: a step takes the pivot's row of G less its
    row of Lt^T Lt, in O(k n), and updates the residual diagonal. See Chen,
    Epperly, Tropp and Webber, arXiv:2207.06503, for the greedy rule and its
    randomized relative.
    """
    n = len(G)
    resid = G.diagonal().copy()
    tol = n * np.finfo(float).eps * resid.max()
    k_max = int(PIVOT_SHARE * n)
    Lt = np.empty((k_max, n))
    k = 0
    while True:
        i = int(resid.argmax())
        if resid[i] <= tol:
            return Lt[:k]
        if k == k_max:
            return None
        row = np.subtract(G[i], Lt[:k, i] @ Lt[:k], out=Lt[k])
        row /= math.sqrt(resid[i])
        resid -= row * row
        k += 1


def _check_kkr(spec, lam):
    """InputError for a negative lam, NumericError for lam = 0 on a singular Gram."""
    check_hyper("kkr", lam)
    if lam == 0 and spec.min_eval < SINGULAR_TOL:
        raise NumericError(
            f"lambda=0 with singular Gram matrix (min eigenvalue {spec.min_eval})"
        )


def kkr_core(spec, lam):
    """The (r, r) kkr core at `lam`, in one (r, r) array."""
    _check_kkr(spec, lam)
    n = spec.n
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
    """Two-step model: core (K + lam n I)^-1 D D^T (K + lam n I)^-1 over
    k(X, P), restricted to the spectrum's kept eigenpairs.

    On canonical data a prediction is C^T `ukkr_rotated_core` C over the
    basis C = Q^T k(X, P), with no (n, n) array. A top-label model builds
    the dense (n, n) core Q `ukkr_rotated_core` Q^T in each `factors` call.
    """

    spectrum: Spectrum
    lam: float

    def factors(self, P):
        """(C^T, (rotated C)^T) on canonical data, (B^T, (core B)^T) over the
        basis B = k(X, P) on top-label data."""
        spec = self.spectrum
        if spec.mode == CANONICAL:
            C = spec.basis(P)
            return C.T, (ukkr_rotated_core(spec, self.lam) @ C).T
        B = rbf_gram(spec.X, P, spec.gamma)
        Q = spec.Q
        return B.T, ((Q @ ukkr_rotated_core(spec, self.lam) @ Q.T) @ B).T

    pairwise = factor_pairwise
    diag = factor_diag


def _ukkr_shift(spec, lam):
    """The kept Gram eigenvalues shifted by lam n, checked for a solvable
    system by the whole spectrum's smallest shift, min_eval + lam n."""
    check_hyper("ukkr", lam)
    shift = lam * spec.n
    # the smallest of the rounded sums is the rounded sum of the smallest
    if spec.min_eval + shift < SINGULAR_TOL:
        raise NumericError(
            f"singular system in two-step solve (min shifted eigenvalue "
            f"{spec.min_eval + shift})"
        )
    return spec.evals + shift


def ukkr_rotated_core(spec, lam):
    """(r, r) core of the two-step solve in the Gram eigenbasis; a top-label
    `UkkrModel` rotates it back."""
    shifted = _ukkr_shift(spec, lam)
    core = np.outer(shifted, shifted)
    return np.divide(spec.QtGQ, core, out=core)


def ukkr_cv_features(spec, basis, lam):
    """(m, d) holdout rows Phi with Phi Phi^T = basis^T rotated basis.

    `rotated` is `ukkr_rotated_core(spec, lam)` and `basis` the holdout
    basis `spec.basis(P)`. Since Q^T G Q = V V^T, Phi = basis^T diag(1/s) V
    with s = evals + lam n: the two-step KRR of Stock, Pahikkala et al. (2018)
    in O(r m d) per lambda. It agrees with the dense matrix to rounding, so
    it serves to rank a lambda grid; a fitted top-label model keeps the
    dense core, since factoring it moves the estimates (see the module
    docstring).
    """
    return basis.T @ (spec.V / _ukkr_shift(spec, lam)[:, None])


def fit_ukkr(spectrum, lam):
    """The two-step kernel ridge model at `lam` on `spectrum`'s training set;
    a lam that `ukkr_rotated_core` cannot take raises here."""
    _ukkr_shift(spectrum, lam)
    return UkkrModel(spectrum, lam)
