import sys

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.eigh during the test."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture
def pair_target_calls(monkeypatch):
    """Shapes of the holdout sets cross_validate builds target matrices for."""
    from calrisk import pipeline

    calls = []
    pair_target_matrix = pipeline.pair_target_matrix

    def counted(ds):
        calls.append(ds.probs.shape)
        return pair_target_matrix(ds)

    monkeypatch.setattr(pipeline, "pair_target_matrix", counted)
    return calls


@pytest.fixture
def ukkr_core_calls(monkeypatch):
    """Lambdas passed to estimators.ukkr_rotated_core during the test.

    The function is replaced at every calrisk module that binds it, so a
    call counts whichever module makes it.
    """
    from calrisk import estimators

    calls = []
    ukkr_rotated_core = estimators.ukkr_rotated_core

    def counted(spectrum, lam):
        calls.append(lam)
        return ukkr_rotated_core(spectrum, lam)

    for name, module in list(sys.modules.items()):
        if name.startswith("calrisk") and \
                getattr(module, "ukkr_rotated_core", None) is ukkr_rotated_core:
            monkeypatch.setattr(module, "ukkr_rotated_core", counted)
    return calls
