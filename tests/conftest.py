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
