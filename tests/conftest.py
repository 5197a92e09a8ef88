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
def matrix_risk_calls(monkeypatch):
    """Shapes of the prediction matrices passed to risk.risk_from_matrix
    during the test, at every calrisk module that binds it."""
    from calrisk import risk

    calls = []
    risk_from_matrix = risk.risk_from_matrix

    def counted(H, D):
        calls.append(H.shape)
        return risk_from_matrix(H, D)

    for name, module in list(sys.modules.items()):
        if name.startswith("calrisk") and \
                getattr(module, "risk_from_matrix", None) is risk_from_matrix:
            monkeypatch.setattr(module, "risk_from_matrix", counted)
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
