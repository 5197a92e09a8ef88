"""Pointwise reference implementations the vectorized program is tested against.

Each evaluates one pair or one vector at a time, in the plainest form of
its definition, so a test can compare a closed form or a matrix routine of
`calrisk` with an independent computation. The dense target matrix
(`pair_target_matrix`) and the circular-pair risk read from dense matrices
(`dense_linear_risk`) are the forms the program replaced by residual rows.
None of them is used by the program. A sample is a `(probs, label)` tuple.
The random datasets the suites share (`random_canonical`, `random_top_label`)
live here too.
"""

import numpy as np
from scipy.special import gammaln

from calrisk.core import (
    CANONICAL,
    TOP_LABEL,
    Dataset,
    InputError,
    NumericError,
    one_hot,
    residual_matrix,
)
from calrisk.estimators import clip_simplex, rbf_gram
from calrisk.risk import RiskValue


def random_canonical(rng, n, d):
    """n flat-Dirichlet rows on the d-simplex, each labelled by a draw from itself."""
    P = rng.dirichlet(np.ones(d), size=n)
    labels = np.array([rng.choice(d, p=row) for row in P])
    return Dataset(P, labels, CANONICAL)


def random_top_label(rng, n):
    """n confidences uniform on [0.2, 1], each correct with that probability."""
    conf = rng.uniform(0.2, 1.0, size=n)
    correct = (rng.random(n) < conf).astype(int)
    return Dataset(conf[:, None], correct, TOP_LABEL)


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


def rbf_kernel(x, y, gamma):
    """exp(-gamma * ||x - y||^2) for two vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError("rbf_kernel requires vectors of equal dimension")
    return float(np.exp(-gamma * np.sum((x - y) ** 2)))


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


def eval_kkr_naive(train, lam, gamma, p, p2):
    """Brute-force Kronecker predictor via a dense n^2 x n^2 solve.

    The O(n^6) cost is guarded by an input limit.
    """
    n = len(train)
    if n > 12:
        raise InputError("naive Kronecker oracle limited to n <= 12")
    X = train.probs
    K = rbf_gram(X, X, gamma)
    D = residual_matrix(train)
    G = D @ D.T
    A = np.kron(K, K) + lam * n * n * np.eye(n * n)
    kp = rbf_gram(X, np.atleast_2d(p), gamma).ravel()
    kp2 = rbf_gram(X, np.atleast_2d(p2), gamma).ravel()
    sol = np.linalg.solve(A, np.kron(kp, kp2))
    return float(G.reshape(-1) @ sol)


def pivoted_cholesky(G):
    """The (k, n) greedy pivoted Cholesky factor Lt of a PSD matrix G,
    G ~ Lt^T Lt, one pivot at a time from the whole of G.

    Each step pivots on the largest diagonal entry of the residual
    G - Lt^T Lt and takes the pivot's row of G less its row of Lt^T Lt; the
    factor is done once that entry is at most n eps max(diag G). This is
    the unblocked loop that `estimators._pivoted_cholesky` takes in blocks
    of Gram rows, without its give-up past PIVOT_SHARE n rows.
    """
    n = len(G)
    resid = G.diagonal().copy()
    tol = n * np.finfo(float).eps * resid.max()
    Lt = np.empty((n, n))
    k = 0
    while True:
        i = int(resid.argmax())
        if resid[i] <= tol or k == n:
            return Lt[:k]
        row = np.subtract(G[i], Lt[:k, i] @ Lt[:k], out=Lt[k])
        row /= np.sqrt(resid[i])
        resid -= row * row
        k += 1


def top_label(probs, label):
    """(top confidence, correctness); argmax ties break to the lowest index."""
    idx = int(np.argmax(probs))
    return float(probs[idx]), int(int(label) == idx)


def pair_target(sample_i, sample_j, mode=CANONICAL):
    """Regression target for one ordered pair of samples.

    Canonical mode is the inner product of the two residuals p - e_y;
    top-label mode is the scalar product (c_i - a_i)(c_j - a_j) of the
    reduced confidence/correctness residuals.
    """
    (p_i, y_i), (p_j, y_j) = sample_i, sample_j
    p_i, p_j = np.asarray(p_i, dtype=float), np.asarray(p_j, dtype=float)
    if p_i.size != p_j.size:
        raise InputError("pair_target requires samples of equal dimension")
    if mode == CANONICAL:
        d = p_i.size
        return float((p_i - one_hot([y_i], d)[0]) @ (p_j - one_hot([y_j], d)[0]))
    if mode == TOP_LABEL:
        c_i, a_i = top_label(p_i, y_i)
        c_j, a_j = top_label(p_j, y_j)
        return (c_i - a_i) * (c_j - a_j)
    raise InputError(f"unknown mode {mode!r}")


def pointwise_risk(model, eval_set):
    """The U-statistic risk with H built one pair at a time from `model.predict`."""
    P = eval_set.probs
    T = pair_target_matrix(eval_set)
    m = len(P)
    errors = [(T[i, j] - model.predict(P[i], P[j])) ** 2
              for i in range(m) for j in range(m) if i != j]
    return RiskValue(float(np.mean(errors)), len(errors), 0)


def pair_target_matrix(ds):
    """All pairwise targets of a dataset as the (n, n) Gram of residuals."""
    D = residual_matrix(ds)
    return D @ D.T


def dense_linear_risk(H, T, seed):
    """The circular-pair risk read from an (m, m) prediction matrix H and
    target matrix T: the pairs (i, i+1 mod m) of the seeded shuffle, with
    the non-finite predictions dropped."""
    m = len(T)
    order = np.random.default_rng(seed).permutation(m)
    pairs = [(order[i], order[(i + 1) % m]) for i in range(m)]
    errors = [(T[l, r] - H[l, r]) ** 2 for l, r in pairs if np.isfinite(H[l, r])]
    if not errors:
        raise NumericError("no usable pairs (all predictions dropped)")
    return RiskValue(float(np.mean(errors)), len(errors), m - len(errors))
