import importlib.util
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from uqtchan import channels

hypothesis.settings.register_profile("suite", deadline=None, max_examples=40)
hypothesis.settings.load_profile("suite")


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """The module of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    """Kraus stack of a validated `channels.random_kraus` draw (an isometry, always CPTP)."""
    return channels.validate(channels.random_kraus(rng, rank)).kraus


def completeness_residual(kraus):
    """||sum_i K_i^dag K_i - I||_max of a Kraus stack, or of each member of a
    stack of them, by one einsum on the Kraus side: the reference for the
    completeness that validate_stack reads off the Choi matrix."""
    ks = np.asarray(kraus, dtype=complex)
    return np.abs(np.einsum("...kab,...kac->...bc", ks.conj(), ks) - np.eye(2)).max(axis=(-2, -1))


def unitality_residual(kraus):
    """||sum_i K_i K_i^dag - I||_max of a Kraus stack, or of each member of a
    stack of them, by one einsum on the Kraus side: the reference for the
    unitality that validate_stack reads off the Choi matrix."""
    ks = np.asarray(kraus, dtype=complex)
    return np.abs(np.einsum("...kab,...kcb->...ac", ks, ks.conj()) - np.eye(2)).max(axis=(-2, -1))


def kraus_stack(lists, k=None):
    """The Kraus lists as one (N, k, 2, 2) stack, each padded with zero
    operators to k, by default the longest list's length."""
    stack = np.zeros((len(lists), max(map(len, lists)) if k is None else k, 2, 2), dtype=complex)
    for member, kraus in zip(stack, lists):
        member[:len(kraus)] = kraus
    return stack


#: JSON scalars as json.loads returns them: NaN, infinities and integers too
#: large for a float included
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-2**64, 2**64),
                         st.just(10**400), st.text(max_size=3))
#: any JSON document
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=10)
#: JSON numbers, mostly of a plausible size
JSON_NUMBERS = st.one_of(st.floats(-1.5, 1.5), st.floats(), st.integers(-2, 2), st.just(10**400))
#: values float() takes that are no JSON number: bools and numeric strings
NUMBER_LOOKALIKES = st.booleans() | JSON_NUMBERS.map(str)
