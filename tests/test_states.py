import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uqtchan import channels, families
from uqtchan.linalg import I4
from uqtchan.states import (
    bell_state,
    concurrence,
    correlation_spectrum,
    from_density,
    hs_recompose,
    profile,
    pure_state,
    pure_state_from_concurrence,
    verdicts,
)

from conftest import random_density, random_unitary

S5 = np.sqrt(5.0)


# ---------------------------------------------------------------------------
# construction and decomposition
# ---------------------------------------------------------------------------

def test_from_density_maximally_mixed():
    st_ = from_density(I4 / 4)
    assert np.allclose(st_.hs.r_vec, 0)
    assert np.allclose(st_.hs.s_vec, 0)
    assert np.allclose(st_.hs.t_mat, 0)


def test_from_density_bell1():
    st_ = bell_state(1)
    assert np.allclose(st_.hs.t_mat, np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(st_.hs.r_vec, 0)


def test_from_density_pure_state_09():
    st_ = pure_state(0.9)
    assert np.allclose(st_.hs.t_mat, np.diag([0.6, -0.6, 1.0]), atol=1e-12)
    assert np.allclose(st_.hs.r_vec, [0, 0, 0.8], atol=1e-12)
    assert np.allclose(st_.hs.s_vec, [0, 0, 0.8], atol=1e-12)


def test_from_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        from_density(I4 / 2)


def test_from_density_rejects_negative():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        from_density(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))


def test_from_density_rejects_non_hermitian():
    m = np.diag([0.25] * 4).astype(complex)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        from_density(m)


def test_from_density_rejects_nan():
    for where in ((0, 1), (1, 1)):  # off the diagonal and on it (a NaN trace)
        m = np.diag([0.25] * 4).astype(complex)
        m[where] = m[where[::-1]] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            from_density(m)


def test_recompose_round_trip(rng):
    for _ in range(20):
        rho = random_density(rng)
        st_ = from_density(rho)
        assert np.max(np.abs(hs_recompose(st_.hs) - st_.rho)) < 1e-12


def test_local_vector_and_singular_value_bounds(rng):
    for _ in range(20):
        st_ = from_density(random_density(rng))
        assert np.linalg.norm(st_.hs.r_vec) <= 1 + 1e-10
        assert np.linalg.norm(st_.hs.s_vec) <= 1 + 1e-10
        assert np.max(np.linalg.svd(st_.hs.t_mat, compute_uv=False)) <= 1 + 1e-10


# ---------------------------------------------------------------------------
# pure and Bell states
# ---------------------------------------------------------------------------

def test_pure_state_half_is_bell():
    assert np.allclose(pure_state(0.5).rho, bell_state(1).rho)


@pytest.mark.parametrize("a,expected", [
    (0.5, 1.0),
    (0.9, 0.6),
    (0.5 + np.sqrt(3.0) / 4.0, 0.5),  # solves 2 sqrt(a(1-a)) = 1/2
])
def test_pure_state_concurrence(a, expected):
    assert concurrence(pure_state(a)) == pytest.approx(expected, abs=1e-12)


def test_pure_state_domain():
    with pytest.raises(ValueError):
        pure_state(0.4)
    with pytest.raises(ValueError):
        pure_state(1.0)


def test_pure_state_from_concurrence_round_trip():
    for c in (0.2, 0.5, 0.9):
        assert concurrence(pure_state_from_concurrence(c)) == pytest.approx(c, abs=1e-12)


@pytest.mark.parametrize("k,tdiag", [
    (1, (1, -1, 1)),
    (2, (1, 1, -1)),
    (3, (-1, -1, -1)),
    (4, (-1, 1, 1)),
])
def test_bell_state_correlations(k, tdiag):
    st_ = bell_state(k)
    assert np.allclose(st_.hs.t_mat, np.diag(tdiag), atol=1e-14)
    assert concurrence(st_) == pytest.approx(1.0, abs=1e-12)


def test_bell_state_bad_index():
    with pytest.raises(ValueError):
        bell_state(5)


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def test_concurrence_separable():
    assert concurrence(from_density(I4 / 4)) == 0.0


def test_concurrence_werner():
    # Bell mixture with weights (p, q, q, q): the flipped state equals the
    # state itself, so the concurrence reduces to max(0, 2p - 1). Frozen
    # value for p = 0.8 cross-checked against that independent form.
    p = 0.8
    q = (1 - p) / 3
    rho = sum(w * bell_state(k).rho for w, k in zip((p, q, q, q), (1, 2, 3, 4)))
    assert concurrence(from_density(rho)) == pytest.approx(0.6, abs=1e-12)
    assert concurrence(from_density(rho)) == pytest.approx(2 * p - 1, abs=1e-12)


def test_concurrence_dephased_bell():
    rho = 0.75 * bell_state(1).rho + 0.25 * bell_state(4).rho
    assert concurrence(from_density(rho)) == pytest.approx(0.5, abs=1e-12)


def test_concurrence_local_unitary_invariant(rng):
    for _ in range(10):
        st_ = from_density(random_density(rng))
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = from_density(u @ st_.rho @ u.conj().T)
        assert abs(concurrence(rotated) - concurrence(st_)) < 1e-10


@given(st.floats(0.5, 0.999))
def test_concurrence_pure_formula(a):
    assert concurrence(pure_state(a)) == pytest.approx(2 * np.sqrt(a * (1 - a)), abs=1e-10)


# ---------------------------------------------------------------------------
# correlation spectrum
# ---------------------------------------------------------------------------

def test_spectrum_bell():
    spec = correlation_spectrum(bell_state(1))
    assert np.allclose(spec.abs_t, [1, 1, 1])
    assert spec.det_t == pytest.approx(-1.0, abs=1e-12)


def test_spectrum_dephased_bell():
    rho = 0.75 * bell_state(1).rho + 0.25 * bell_state(4).rho
    spec = correlation_spectrum(from_density(rho))
    assert np.allclose(spec.abs_t, [1.0, 0.5, 0.5], atol=1e-12)
    assert spec.det_t == pytest.approx(-0.25, abs=1e-12)


def test_spectrum_pure_09():
    spec = correlation_spectrum(pure_state(0.9))
    assert np.allclose(spec.abs_t, [1.0, 0.6, 0.6], atol=1e-12)
    assert spec.det_t == pytest.approx(-0.36, abs=1e-12)


def test_spectrum_nonsymmetric_sorted_descending(rng):
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = u @ pure_state(0.8).rho @ u.conj().T
    spec = correlation_spectrum(from_density(rho))
    assert np.all(np.diff(spec.abs_t) <= 1e-12)  # sorted descending


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_bell_is_uqt():
    prof = profile(bell_state(1))
    assert prof.f_max == pytest.approx(1.0, abs=1e-12)
    assert prof.delta == pytest.approx(0.0, abs=1e-12)
    assert prof.useful and prof.universal and prof.uqt


def test_profile_dephased_bell():
    rho = 0.75 * bell_state(1).rho + 0.25 * bell_state(4).rho
    prof = profile(from_density(rho))
    assert prof.f_max == pytest.approx(5 / 6, abs=1e-12)
    assert prof.delta == pytest.approx(1 / (6 * S5), abs=1e-12)
    assert prof.useful and not prof.universal and not prof.uqt


def test_profile_werner_08():
    p, q = 0.8, 0.2 / 3
    rho = sum(w * bell_state(k).rho for w, k in zip((p, q, q, q), (1, 2, 3, 4)))
    prof = profile(from_density(rho))
    assert prof.f_max == pytest.approx(13 / 15, abs=1e-12)
    assert prof.delta == pytest.approx(0.0, abs=1e-12)
    assert prof.uqt


def test_profile_det_positive_has_no_formula():
    # Bell mixture with weights (0.3, 0.3, 0.1, 0.3) has T = diag(0.2, 0.2, 0.2)
    rho = sum(w * bell_state(k).rho
              for w, k in zip((0.3, 0.3, 0.1, 0.3), (1, 2, 3, 4)))
    prof = profile(from_density(rho))
    assert prof.det_t > 0
    assert not prof.formula_valid
    assert prof.f_max is None and prof.delta is None
    assert not prof.useful and not prof.uqt


def test_profile_det_zero_uses_formula():
    # dephasing midpoint: T = diag(0, 0, 1), F = 2/3 exactly, not useful
    rho = 0.5 * bell_state(1).rho + 0.5 * bell_state(4).rho
    prof = profile(from_density(rho))
    assert prof.formula_valid
    assert prof.f_max == pytest.approx(2 / 3, abs=1e-12)
    assert prof.delta == pytest.approx(1 / (3 * S5), abs=1e-12)
    assert not prof.useful


def test_profile_pure_fidelity_law(rng):
    # F = (2 + C)/3 and delta = (1 - C)/(3 sqrt5) across 50 random weights
    for a in rng.uniform(0.501, 0.999, size=50):
        prof = profile(pure_state(a))
        c = 2 * np.sqrt(a * (1 - a))
        assert prof.f_max == pytest.approx((2 + c) / 3, abs=1e-12)
        assert prof.delta == pytest.approx((1 - c) / (3 * S5), abs=1e-12)
        assert prof.useful and not prof.universal


def _invariance_states():
    bells = [bell_state(k).rho for k in (1, 2, 3, 4)]
    up = np.diag([1.0, 0.0]).astype(complex)
    return {
        "bell": bells[0],
        "dephased-bell-half": 0.5 * bells[0] + 0.5 * bells[3],  # T = diag(0, 0, 1)
        "werner-0.8": 0.8 * bells[0] + 0.05 * I4,
        "bell-mixture-rank2": 0.7 * bells[0] + 0.3 * bells[1],
        "product": np.kron(up, np.eye(2) / 2),  # T = 0
        "pure-product": np.kron(up, up),
        "random": random_density(np.random.default_rng(3)),
    }


INVARIANCE_STATES = _invariance_states()


@given(st.sampled_from(sorted(INVARIANCE_STATES)), st.integers(0, 2**32 - 1))
def test_profile_and_concurrence_invariant_under_local_unitaries(name, seed):
    # det T = 0 states included: their formula validity must not follow the
    # rounding sign of det T
    rho = INVARIANCE_STATES[name]
    rng = np.random.default_rng(seed)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    before = from_density(rho)
    after = from_density(u @ rho @ u.conj().T)
    p0, p1 = profile(before), profile(after)
    verdicts = ("useful", "universal", "uqt", "formula_valid")
    assert [getattr(p0, v) for v in verdicts] == [getattr(p1, v) for v in verdicts]
    if p0.formula_valid:
        assert abs(p0.f_max - p1.f_max) <= 1e-12 and abs(p0.delta - p1.delta) <= 1e-12
    assert abs(concurrence(before) - concurrence(after)) <= 1e-12


def test_profile_delta_range(rng):
    for _ in range(30):
        prof = profile(from_density(random_density(rng)))
        if prof.formula_valid:
            assert 0.0 <= prof.delta <= 0.5
            assert prof.uqt == (prof.useful and prof.universal)


def _pauli_grid_states(c, n=6):
    # points of the acceptance suite's Pauli-mixture strata on |Psi_a>
    psi = pure_state_from_concurrence(c)
    out = []
    for p0 in np.linspace(0.0, 1.0, n):
        for p1 in np.linspace(0.0, 0.5, n):
            for w in ((p0, p1, p1, 1 - p0 - 2 * p1), (p0, p1, 1 - 2 * p0 - p1, p0)):
                if min(w) >= 0.0:
                    out.append(channels.apply_to_bob(psi, families.pauli_mixture(*w)))
    return out


def test_verdicts_of_a_stack_match_profile_of_each_member(rng):
    dephased = 0.5 * bell_state(1).rho + 0.5 * bell_state(4).rho  # det T = 0
    rotated = []
    for _ in range(10):
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated.append(from_density(u @ dephased @ u.conj().T))
    werner = from_density(0.8 * bell_state(1).rho + 0.05 * I4)  # UQT
    members = ([from_density(random_density(rng)) for _ in range(40)] + rotated
               + _pauli_grid_states(0.45) + _pauli_grid_states(0.8) + [werner])
    v = verdicts(np.array([m.hs.t_mat for m in members]))
    profs = [profile(m) for m in members]  # the reference
    dets = np.array([p.det_t for p in profs])
    assert (dets > 0).any() and (dets < 0).any() and (dets[40:50] == 0.0).all()
    assert any(p.uqt for p in profs) and not all(p.useful for p in profs)
    flags = ("formula_valid", "useful", "universal", "uqt")
    for i, p in enumerate(profs):  # same arithmetic per member, so equal to the bit
        assert [bool(getattr(v, f)[i]) for f in flags] == [getattr(p, f) for f in flags]
        assert v.abs_t[i].tolist() == p.spectrum.abs_t.tolist() and v.det_t[i] == p.det_t
        if p.formula_valid:
            assert (v.f_max[i], v.delta[i]) == (p.f_max, p.delta)
