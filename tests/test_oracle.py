import numpy as np
import pytest

from uqtchan import channels, families, oracle, states
from uqtchan.linalg import I2, SX, SY, SZ
from uqtchan.oracle import (
    QuadratureSpec,
    canonicalize,
    fidelity_on_bloch,
    numeric_moments,
    rotation_of_unitary,
    teleport_output,
)
from uqtchan.states import bell_state, from_density, profile, pure_state

from conftest import random_density, random_unitary

S5 = np.sqrt(5.0)


def bloch_rho(n):
    return 0.5 * (I2 + n[0] * SX + n[1] * SY + n[2] * SZ)


def random_bloch(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


# ---------------------------------------------------------------------------
# protocol simulation
# ---------------------------------------------------------------------------

def test_teleport_through_bell_is_perfect(rng):
    bell = bell_state(1)
    for _ in range(10):
        n = random_bloch(rng)
        out = teleport_output(bell, n)
        assert np.max(np.abs(out - bloch_rho(n))) < 1e-12


def test_teleport_through_maximally_mixed(rng):
    mixed = from_density(np.eye(4, dtype=complex) / 4)
    out = teleport_output(mixed, random_bloch(rng))
    assert np.allclose(out, I2 / 2, atol=1e-14)


def test_teleport_output_is_state(rng):
    for _ in range(5):
        shared = from_density(random_density(rng))
        out = teleport_output(shared, random_bloch(rng))
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def test_teleport_linear_in_shared_state(rng):
    a = from_density(random_density(rng))
    b = from_density(random_density(rng))
    lam = 0.3
    mix = from_density(lam * a.rho + (1 - lam) * b.rho)
    n = random_bloch(rng)
    direct = teleport_output(mix, n)
    combo = lam * teleport_output(a, n) + (1 - lam) * teleport_output(b, n)
    assert np.max(np.abs(direct - combo)) < 1e-12


def test_batched_fidelity_matches_direct(rng):
    shared = from_density(random_density(rng))
    blochs = np.array([random_bloch(rng) for _ in range(8)])
    fast = fidelity_on_bloch(shared, blochs)
    for n, f in zip(blochs, fast):
        out = teleport_output(shared, n)
        assert abs(float(np.trace(bloch_rho(n) @ out).real) - f) < 1e-13


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_weights_normalized():
    for spec in (QuadratureSpec(), QuadratureSpec(8, 16)):
        weights, bloch = spec.nodes()
        assert abs(weights.sum() - 1.0) < 1e-14
        assert np.allclose(np.linalg.norm(bloch, axis=1), 1.0, atol=1e-12)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta=1).nodes()
    with pytest.raises(ValueError):
        QuadratureSpec(n_phi=2).nodes()


def test_moments_bell():
    mom = numeric_moments(bell_state(1))
    assert mom.mean_f == pytest.approx(1.0, abs=1e-12)
    assert mom.delta == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("a", [0.6, 0.75, 0.9, 0.97])
def test_moments_pure_state(a):
    # |Psi_a> is already canonical, so the raw protocol moments hit the laws
    c = 2 * np.sqrt(a * (1 - a))
    mom = numeric_moments(pure_state(a))
    assert mom.mean_f == pytest.approx((2 + c) / 3, abs=1e-6)
    assert mom.delta == pytest.approx((1 - c) / (3 * S5), abs=1e-6)


def test_moments_dephased_bell():
    # this mixture is already in canonical form
    rho = 0.75 * bell_state(1).rho + 0.25 * bell_state(4).rho
    mom = numeric_moments(from_density(rho))
    assert mom.mean_f == pytest.approx(5 / 6, abs=1e-6)
    assert mom.delta == pytest.approx(1 / (6 * S5), abs=1e-6)


def test_moments_zero_spread_without_cancellation():
    # sqrt(second - mean**2) cancels to 2.1e-8 here; the closed form is 9e-17
    final = channels.apply_to_bob(bell_state(1), families.uqt_nonunital_rank4(0.1, 0.05, 0.05, 0.5))
    canonical, _ = oracle.canonicalize(final)
    mom = numeric_moments(canonical)
    assert mom.delta == pytest.approx(profile(final).delta, abs=1e-12)
    assert mom.second_f == pytest.approx(mom.mean_f ** 2, abs=1e-12)


def test_quadrature_converged_at_defaults(rng):
    # the integrand is polynomial, so doubling the nodes changes nothing
    shared = from_density(random_density(rng))
    base = numeric_moments(shared, QuadratureSpec(8, 8))
    fine = numeric_moments(shared, QuadratureSpec(16, 16))
    assert abs(base.mean_f - fine.mean_f) < 1e-9
    assert abs(base.second_f - fine.second_f) < 1e-9


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def test_su2_lift_matches_rotation(rng):
    for _ in range(20):
        u = random_unitary(rng)
        o = rotation_of_unitary(u)
        lifted = oracle._su2_from_rotation(o)
        assert np.max(np.abs(rotation_of_unitary(lifted) - o)) < 1e-12
        assert np.max(np.abs(lifted @ lifted.conj().T - I2)) < 1e-12


def test_canonicalize_fixed_point():
    rho = 0.75 * bell_state(1).rho + 0.25 * bell_state(4).rho
    st = from_density(rho)
    canon, (u1, u2) = canonicalize(st)
    again, _ = canonicalize(canon)
    assert np.max(np.abs(again.hs.t_mat - canon.hs.t_mat)) < 1e-12


def test_canonicalize_returns_the_rotation(rng):
    st = from_density(random_density(rng))
    canon, (u1, u2) = canonicalize(st)
    big = np.kron(u1, u2)
    assert np.max(np.abs(big @ st.rho @ big.conj().T - canon.rho)) < 1e-12
    # T transforms by the corresponding SO(3) pair
    o1, o2 = rotation_of_unitary(u1), rotation_of_unitary(u2)
    assert np.max(np.abs(o1 @ st.hs.t_mat @ o2.T - canon.hs.t_mat)) < 1e-12


def test_canonicalize_diagonalizes_with_sign_pattern(rng):
    for _ in range(10):
        st = from_density(random_density(rng))
        canon, _ = canonicalize(st)
        t = canon.hs.t_mat
        off = t - np.diag(np.diag(t))
        assert np.max(np.abs(off)) < 1e-10
        d = np.diag(t)
        mags = np.abs(d)
        assert mags[0] >= mags[1] - 1e-12 >= mags[2] - 2e-12
        det = float(np.linalg.det(st.hs.t_mat))
        if min(mags) > 1e-8:
            expected = (1, -1, -1) if det > 0 else (1, -1, 1)
            assert tuple(np.sign(d).astype(int)) == expected


def test_canonicalize_scrambled_werner(rng):
    p, q = 0.8, 0.2 / 3
    rho = sum(w * bell_state(k).rho for w, k in zip((p, q, q, q), (1, 2, 3, 4)))
    u = np.kron(random_unitary(rng), random_unitary(rng))
    scrambled = from_density(u @ rho @ u.conj().T)
    canon, _ = canonicalize(scrambled)
    c = (4 * p - 1) / 3
    assert np.allclose(np.abs(np.diag(canon.hs.t_mat)), c, atol=1e-10)


def test_canonicalize_scrambled_pure(rng):
    st = pure_state(0.8)
    c = states.concurrence(st)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    scrambled = from_density(u @ st.rho @ u.conj().T)
    canon, _ = canonicalize(scrambled)
    assert np.allclose(np.abs(np.diag(canon.hs.t_mat)), [1.0, c, c], atol=1e-10)


def test_formula_equals_quadrature_random_states(rng):
    # the central oracle identity, on 100 random det(T) < 0 states
    checked = 0
    while checked < 100:
        st = from_density(random_density(rng))
        prof = profile(st)
        if prof.det_t >= -1e-6:
            continue
        canon, _ = canonicalize(st)
        mom = numeric_moments(canon)
        assert abs(mom.mean_f - prof.f_max) < 1e-6
        assert abs(mom.delta - prof.delta) < 1e-6
        checked += 1


def test_formula_equals_quadrature_det_positive(rng):
    # same identity on the det > 0 side of the sign rule
    rho = sum(w * bell_state(k).rho for w, k in zip((0.3, 0.3, 0.1, 0.3), (1, 2, 3, 4)))
    canon, _ = canonicalize(from_density(rho))
    mom = numeric_moments(canon)
    assert mom.mean_f == pytest.approx(0.5 * (1 + 0.2 / 3), abs=1e-9)


def test_raw_moments_never_beat_canonical(rng):
    # canonicalization is the optimizing step
    for _ in range(10):
        st = from_density(random_density(rng))
        canon, _ = canonicalize(st)
        assert numeric_moments(st).mean_f <= numeric_moments(canon).mean_f + 1e-9
