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
