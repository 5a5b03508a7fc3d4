import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uqtchan import linalg
from uqtchan.linalg import I2, I4, SX, SZ

from conftest import random_density, random_unitary

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def complex_mats(dim):
    n = dim * dim
    return st.lists(st.tuples(finite, finite), min_size=n, max_size=n).map(
        lambda xs: np.array([complex(a, b) for a, b in xs]).reshape(dim, dim))


def hermitian_mats(dim):
    return complex_mats(dim).map(lambda m: (m + m.conj().T) / 2)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_bell_marginals():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(linalg.partial_trace(rho, keep=1), I2 / 2)
    assert np.allclose(linalg.partial_trace(rho, keep=2), I2 / 2)


def test_partial_trace_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    prod = np.kron(rho_a, 0.5 * rho_b)  # scale to exercise the trace factor
    assert np.allclose(linalg.partial_trace(prod, keep=1), rho_a * 0.5)
    assert np.allclose(linalg.partial_trace(prod, keep=2), 0.5 * rho_b)


def test_partial_trace_dephasing_choi_marginal():
    # Choi state of {sqrt(p) I, sqrt(1-p) sz} at p=0.3 is a Bell mixture;
    # tracing Bob out leaves Alice maximally mixed.
    p = 0.3
    phi1 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    phi4 = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    choi = p * np.outer(phi1, phi1.conj()) + (1 - p) * np.outer(phi4, phi4.conj())
    assert np.allclose(linalg.partial_trace(choi, keep=1), I2 / 2)


@given(hermitian_mats(4), hermitian_mats(4), finite, finite)
def test_partial_trace_linear(a, b, alpha, beta):
    lhs = linalg.partial_trace(alpha * a + beta * b, keep=1)
    rhs = alpha * linalg.partial_trace(a, keep=1) + beta * linalg.partial_trace(b, keep=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_partial_trace_bad_subsystem():
    with pytest.raises(ValueError):
        linalg.partial_trace(I4, keep=0)
    with pytest.raises(ValueError):
        linalg.partial_trace(I2, keep=1)


# ---------------------------------------------------------------------------
# hermitian_eig
# ---------------------------------------------------------------------------

def test_eig_diagonal():
    dec = linalg.hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_eig_sigma_x():
    dec = linalg.hermitian_eig(SX)
    assert np.allclose(dec.eigenvalues, [1.0, -1.0])
    s = 1 / np.sqrt(2)
    vecs = linalg.canonical_eigenvectors(dec.eigenvalues, dec.eigenvectors)
    assert np.allclose(vecs[:, 0], [s, s])
    assert np.allclose(vecs[:, 1], [s, -s])


def test_eig_canonical_choi_spectrum():
    # closed-form spectrum of the canonical non-unital Choi matrix
    from uqtchan.families import canonical_nonunital_choi

    s_vec, t = (0.1, 0.0, 0.1), 0.5
    rho = canonical_nonunital_choi(s_vec, t)
    dec = linalg.hermitian_eig(rho)
    s = float(np.linalg.norm(s_vec))
    root = np.sqrt(s * s + 4.0 * t * t)
    expected = ((1 + t + root) / 4, (1 + s - t) / 4, (1 + t - root) / 4, (1 - s - t) / 4)
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)


@given(hermitian_mats(4))
def test_eig_reconstruction_and_orthonormality(m):
    dec = linalg.hermitian_eig(m)
    v = dec.eigenvectors
    recon = (v * dec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(recon - m)) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10
    assert all(dec.eigenvalues[i] >= dec.eigenvalues[i + 1] - 1e-11
               for i in range(3))


@given(hermitian_mats(2))
def test_eig_reconstruction_2x2(m):
    dec = linalg.hermitian_eig(m)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.max(np.abs(recon - m)) < 1e-10


def test_eig_degenerate_identity():
    dec = linalg.hermitian_eig(I4)
    assert np.allclose(dec.eigenvalues, np.ones(4))
    assert np.max(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(4))) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_deterministic(rng):
    m = random_density(rng, 4)
    d1 = linalg.hermitian_eig(m)
    d2 = linalg.hermitian_eig(m)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def _two_eigenbases(rng, spectrum):
    """Two orthonormal bases u, v that differ only inside each degenerate
    eigenspace of spectrum and, per column, by a random phase."""
    u = random_unitary(rng, 4)
    mix = np.diag(np.exp(2j * np.pi * rng.uniform(size=4)))
    for value in set(spectrum):
        idx = [i for i, x in enumerate(spectrum) if x == value]
        if len(idx) > 1:
            mix[np.ix_(idx, idx)] = random_unitary(rng, len(idx))
    return u, u @ mix


@pytest.mark.parametrize("spectrum", [(0.4, 0.4, 0.15, 0.05), (0.3, 0.3, 0.3, 0.1)])
def test_eig_degenerate_basis_depends_on_eigenspace_only(rng, spectrum):
    # two eigenbases of one degenerate matrix give the same canonical basis,
    # whether passed directly or found by hermitian_eig of the matrix rebuilt
    # from each
    u, v = _two_eigenbases(rng, spectrum)
    assert np.max(np.abs(linalg.canonical_eigenvectors(spectrum, u)
                         - linalg.canonical_eigenvectors(spectrum, v))) < 1e-12
    d1 = linalg.hermitian_eig((u * spectrum) @ u.conj().T)
    d2 = linalg.hermitian_eig((v * spectrum) @ v.conj().T)
    assert np.max(np.abs(d1.eigenvalues - d2.eigenvalues)) < 1e-12
    c1 = linalg.canonical_eigenvectors(d1.eigenvalues, d1.eigenvectors)
    c2 = linalg.canonical_eigenvectors(d2.eigenvalues, d2.eigenvectors)
    assert np.max(np.abs(c1 - c2)) < 1e-10
    # still an orthonormal eigenbasis, each column's first component real positive
    assert np.max(np.abs(c1.conj().T @ c1 - np.eye(4))) < 1e-12
    assert np.max(np.abs((c1 * d1.eigenvalues) @ c1.conj().T - (u * spectrum) @ u.conj().T)) < 1e-12
    first = c1[np.argmax(np.abs(c1) > 1e-8, axis=0), np.arange(4)]
    assert np.all(first.real > 0) and np.max(np.abs(first.imag)) < 1e-15


@pytest.mark.parametrize("spectrum", [(0.4, 0.4, 0.15, 0.05), (0.3, 0.3, 0.3, 0.1),
                                      (0.5, 0.5, 0.0, 0.0)])
def test_kraus_from_choi_depends_on_the_choi_matrix_only(rng, spectrum):
    # a degenerate trace-1 Choi matrix written in two of its eigenbases gives
    # the same Kraus operators
    from uqtchan.channels import kraus_from_choi

    u, v = _two_eigenbases(rng, spectrum)
    rank = sum(x > 0 for x in spectrum)
    k1 = kraus_from_choi((u * spectrum) @ u.conj().T)
    k2 = kraus_from_choi((v * spectrum) @ v.conj().T)
    assert k1.shape == k2.shape == (rank, 2, 2)
    assert np.max(np.abs(k1 - k2)) < 1e-10


#: trace-1 Choi spectra: simple, 2-fold and 3-fold, of ranks 4 and 3
_CHOI_SPECTRA = [(0.4, 0.3, 0.2, 0.1), (0.4, 0.25, 0.25, 0.1), (0.3, 0.3, 0.3, 0.1),
                 (0.5, 0.3, 0.2, 0.0), (0.4, 0.3, 0.3, 0.0), (0.4, 0.2, 0.2, 0.2)]


@pytest.mark.parametrize("rank", [3, 4])
def test_stacked_kraus_extraction_matches_one_at_a_time_to_the_bit(rng, rank):
    from uqtchan.channels import kraus_from_choi

    mats = []
    for spectrum in _CHOI_SPECTRA * 2:
        u, _ = _two_eigenbases(rng, spectrum)
        mats.append((u * spectrum) @ u.conj().T)
    stack = np.array(mats)
    dec = linalg.hermitian_eig(stack)
    vecs = linalg.canonical_eigenvectors(dec.eigenvalues, dec.eigenvectors)
    kraus = kraus_from_choi(stack, rank=rank)
    assert kraus.shape == (len(mats), rank, 2, 2)
    for i, m in enumerate(mats):
        one = linalg.hermitian_eig(m)
        assert vecs[i].tobytes() == linalg.canonical_eigenvectors(
            one.eigenvalues, one.eigenvectors).tobytes()
        assert kraus[i].tobytes() == kraus_from_choi(m, rank=rank).tobytes()
    # more stack axes give the same bits
    assert kraus_from_choi(stack.reshape(3, 4, 4, 4), rank=rank).tobytes() == kraus.tobytes()


def _walked_eigenvectors(eigenvalues, eigenvectors):
    """The reference: canonical_eigenvectors with the exact cluster test run
    on every spectrum in Python."""
    vecs = np.array(eigenvectors, dtype=complex)
    for spectrum, v in zip(np.asarray(eigenvalues, dtype=float).tolist(), vecs):
        tol = linalg._CLUSTER_TOL * max(1.0, math.hypot(*spectrum))
        start = 0 if min(map(float.__sub__, spectrum, spectrum[1:])) <= tol else 4
        while start < 4:
            stop = start + 1
            while stop < 4 and spectrum[start] - spectrum[stop] <= tol:
                stop += 1
            if stop - start > 1:
                v[:, start:stop] = linalg._eigenspace_basis(v[:, start:stop])
            start = stop
        pivot = v[(np.abs(v) > 1e-8).argmax(axis=0), np.arange(4)]
        v *= pivot.conj() / np.abs(pivot)
    return vecs


def test_canonical_eigenvectors_clusters_as_the_exact_test_does(rng):
    # adjacent gaps from 0 to 4 times the cluster tolerance, on either side
    # of it and of the numpy pre-selection at twice it, at norms below and
    # above 1
    spectra = []
    for scale in (0.5, 1.0, 3.0):
        base = scale * np.array([0.3, 0.3, 0.2, 0.2])
        tol = linalg._CLUSTER_TOL * max(1.0, math.hypot(*base))
        for factor in (0.0, 0.5, 0.999999, 1.000001, 1.5, 1.999999, 2.000001, 4.0):
            spectra.append(base - factor * tol * np.array([0.0, 1.0, 0.0, 1.0]))
    bases = np.array([random_unitary(rng, 4) for _ in spectra])
    got = linalg.canonical_eigenvectors(np.array(spectra), bases)
    assert got.tobytes() == _walked_eigenvectors(spectra, bases).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_rejects_non_finite(bad):
    m = np.eye(4, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.hermitian_eig(m)


def _spectrum_stack(rng):
    """4x4 Hermitian matrices with simple, 2-fold, 3-fold and rank-1 spectra."""
    spectra = [(0.5, 0.3, 0.15, 0.05), (0.4, 0.4, 0.15, 0.05), (0.1, 0.3, 0.3, 0.3),
               (1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25), (2.0, -1.0, 0.5, -3.0)]
    mats = []
    for spectrum in spectra * 3:
        u = random_unitary(rng, 4)
        mats.append((u * spectrum) @ u.conj().T)
    return np.array(mats)


def test_eig_stack_matches_single_calls(rng):
    stack = _spectrum_stack(rng).reshape(3, 6, 4, 4)
    dec = linalg.hermitian_eig(stack)
    assert dec.eigenvalues.shape == (3, 6, 4) and dec.eigenvectors.shape == (3, 6, 4, 4)
    for idx in np.ndindex(3, 6):
        single = linalg.hermitian_eig(stack[idx])
        assert np.max(np.abs(dec.eigenvalues[idx] - single.eigenvalues)) <= 1e-14
        assert np.max(np.abs(dec.eigenvectors[idx] - single.eigenvectors)) <= 1e-14
    pauli_stack = np.array([SX, SZ, I2])
    for m, d in zip(pauli_stack, linalg.hermitian_eig(pauli_stack).eigenvectors):
        assert np.array_equal(d, linalg.hermitian_eig(m).eigenvectors)


@pytest.mark.parametrize("defect,match", [("nan", "non-finite"), ("skew", "Hermitian")])
def test_eig_stack_rejects_one_bad_member(rng, defect, match):
    stack = _spectrum_stack(rng)
    if defect == "nan":
        stack[2, 1, 1] = np.nan
    else:
        stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=match):
        linalg.hermitian_eig(stack)


def _states_of_each_rank(rng, per_rank=1000):
    """per_rank trace-1 states of each rank 1-4, g g^dag / Tr for a 4 x rank
    complex Gaussian g, then I/4, a Bell state and diag(1/2, 1/2, 0, 0)."""
    mats = []
    for rank in (1, 2, 3, 4):
        g = rng.normal(size=(per_rank, 4, rank)) + 1j * rng.normal(size=(per_rank, 4, rank))
        rho = g @ g.conj().swapaxes(1, 2)
        mats.append(rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None])
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    mats.append(np.array([I4 / 4, bell, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)]))
    return np.concatenate(mats)


def test_eigenvalues_match_the_eigendecomposition(rng):
    stack = _states_of_each_rank(rng)
    vals = linalg.hermitian_eigenvalues(stack)
    ref = linalg.hermitian_eig(stack).eigenvalues
    assert vals.shape == ref.shape == (4003, 4) and not vals.flags.writeable
    assert np.max(np.abs(vals - ref)) <= 1e-15
    assert np.array_equal(linalg.rank(vals), linalg.rank(ref))
    assert linalg.rank(vals).tolist() == [1] * 1000 + [2] * 1000 + [3] * 1000 + [4] * 1000 \
        + [4, 1, 2]


def test_eigenvalues_of_a_matrix_alone_are_its_eigenvalues_in_a_stack(rng):
    stack = np.concatenate([_states_of_each_rank(rng, per_rank=5), _spectrum_stack(rng)])
    vals = linalg.hermitian_eigenvalues(stack)
    for m, v in zip(stack, vals):
        assert linalg.hermitian_eigenvalues(m).tobytes() == v.tobytes()
    assert linalg.hermitian_eigenvalues(SX).tolist() == [1.0, -1.0]


@pytest.mark.parametrize("defect", ["nan", "skew"])
def test_eigenvalues_share_the_gate_of_the_eigendecomposition(rng, defect):
    stack = _spectrum_stack(rng)
    if defect == "nan":
        stack[2, 1, 1] = np.nan
    else:
        stack[2, 0, 1] += 1e-6
    texts = []
    for solver in (linalg.hermitian_eig, linalg.hermitian_eigenvalues):
        for m in (stack, stack[2]):
            with pytest.raises(ValueError) as info:
                solver(m)
            texts.append(str(info.value))
    assert len(set(texts)) == 1
    assert texts[0].startswith("matrix has non-finite" if defect == "nan" else "matrix is not Hermitian")


def test_partial_trace_stack(rng):
    stack = np.array([random_density(rng, 4) for _ in range(5)])
    for keep in (1, 2):
        out = linalg.partial_trace(stack, keep=keep)
        assert out.shape == (5, 2, 2)
        for m, o in zip(stack, out):
            assert np.array_equal(o, linalg.partial_trace(m, keep=keep))


# ---------------------------------------------------------------------------
# rank and numeric_rank
# ---------------------------------------------------------------------------

def test_rank_of_one_spectrum_and_of_a_stack():
    tiny = 0.5 * linalg.RANK_TOL
    spectra = np.array([[1.0, 0.5, 0.0, 0.0], [1.0, tiny, 0.0, -tiny], [0.0, 0.0, 0.0, 0.0],
                        [tiny, tiny, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
    assert linalg.rank(spectra[0]) == 2 and isinstance(linalg.rank(spectra[0]), int)
    assert linalg.rank(spectra).tolist() == [2, 1, 0, 0, 4]
    assert linalg.rank(spectra.reshape(5, 1, 4)).shape == (5, 1)


def test_numeric_rank_pure_bell():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert linalg.numeric_rank(np.outer(phi, phi.conj())) == 1


def test_numeric_rank_dephasing_choi():
    # hand eigendecomposition: Bell mixture with weights (0.3, 0.7) has rank 2
    p = 0.3
    phi1 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    phi4 = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    choi = p * np.outer(phi1, phi1.conj()) + (1 - p) * np.outer(phi4, phi4.conj())
    assert linalg.numeric_rank(choi) == 2


def test_numeric_rank_zero_matrix():
    assert linalg.numeric_rank(np.zeros((4, 4), dtype=complex)) == 0


@given(st.lists(st.tuples(finite, finite), min_size=4, max_size=4))
def test_numeric_rank_outer_product(entries):
    v = np.array([complex(a, b) for a, b in entries])
    if np.vdot(v, v).real < 1e-6:
        return
    assert linalg.numeric_rank(np.outer(v, v.conj())) == 1
