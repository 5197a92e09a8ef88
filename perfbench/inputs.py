"""Seeded inputs for the benchmark, generated without calrisk.

This is a numpy-only copy of the simulation's sampler: latent class
probabilities from a gamma-Dirichlet, labels drawn from them, and a
classifier that reports the latent vector softened at a temperature. It
lives here, not in `calrisk.sim`, so that a change to the program's
simulation layer cannot change what the evaluate workloads read.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

LOG_CLIP = 1e-12


def sample_logits(n, d, seed, alpha=0.04, model_temp=0.3):
    """Return (logits, labels) for n simulated predictions.

    The logits are finite by construction, and a logits-csv reader
    softmaxes them back to the classifier's softened predictions.
    """
    rng = np.random.default_rng(seed)
    g = rng.gamma(alpha, 1.0, size=(n, d))
    # gamma draws with tiny shape can underflow to an all-zero row
    while True:
        zero = g.sum(axis=1) == 0.0
        if not zero.any():
            break
        g[zero] = rng.gamma(alpha, 1.0, size=(int(zero.sum()), d))
    latent = g / g.sum(axis=1, keepdims=True)
    u = rng.random(n)
    labels = np.minimum((latent.cumsum(axis=1) < u[:, None]).sum(axis=1), d - 1)
    z = np.log(np.clip(latent, LOG_CLIP, None)) / model_temp
    z -= z.max(axis=1, keepdims=True)
    return z, labels


def write_logits_csv(path, logits, labels):
    """Write `l_0,...,l_{d-1},label` rows; return the file's sha256."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(logits, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    return file_sha256(path)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
