import hypothesis
import numpy as np
import pytest

from uqtchan import acceptance

hypothesis.settings.register_profile("suite", deadline=None, max_examples=40)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_density(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng, rank):
    """Kraus stack of acceptance.random_channel (a Haar-ish isometry, always CPTP)."""
    return acceptance.random_channel(rng, rank).kraus
