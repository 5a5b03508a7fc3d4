import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uqtchan import channels, families, linalg, oracle, states
from uqtchan.linalg import I2, SX, SY, SZ
from uqtchan.oracle import (
    QuadratureSpec,
    canonicalize,
    numeric_moments,
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


def fidelity_on_bloch(shared, bloch):
    return oracle.fidelities(states.pauli_coefficients(shared.rho[None]), bloch)[0]


def rotation_of_unitary(u):
    """SO(3) image of a single-qubit unitary: U sigma_j U^dag = sum_i R_ij sigma_i."""
    r = np.empty((3, 3))
    for j in range(3):
        conj = u @ linalg.PAULIS[j + 1] @ u.conj().T
        for i in range(3):
            r[i, j] = 0.5 * np.trace(linalg.PAULIS[i + 1] @ conj).real
    return r


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


def random_rank_density(rng, rank):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_transfer_operators_match_the_pm_bloch_construction(rng):
    # the protocol's action L on the input-operator basis {I, sx, sy, sz}:
    # L[I] = out(+e_x) + out(-e_x) and L[sigma_i] = out(+e_i) - out(-e_i),
    # from pure-state runs of teleport_output, on states of every rank
    for k in range(12):
        shared = from_density(random_rank_density(rng, 1 + k % 4))
        plus = [teleport_output(shared, e) for e in np.eye(3)]
        minus = [teleport_output(shared, -e) for e in np.eye(3)]
        expected = [plus[0] + minus[0]] + [p - m for p, m in zip(plus, minus)]
        for got, want in zip(oracle._protocol(shared.rho[None], oracle._PAULI_STACK)[0], expected):
            assert np.max(np.abs(got - want)) <= 1e-15


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
    weights, bloch = QuadratureSpec().nodes()
    second_f = weights @ fidelity_on_bloch(canonical, bloch) ** 2
    assert second_f == pytest.approx(mom.mean_f ** 2, abs=1e-12)


def test_quadrature_converged_at_defaults(rng):
    # the integrand is polynomial, so doubling the nodes changes nothing
    shared = from_density(random_density(rng))
    base = numeric_moments(shared, QuadratureSpec(8, 8))
    fine = numeric_moments(shared, QuadratureSpec(16, 16))
    assert abs(base.mean_f - fine.mean_f) < 1e-9

    def second_f(quad):
        weights, bloch = quad.nodes()
        return weights @ fidelity_on_bloch(shared, bloch) ** 2
    assert abs(second_f(QuadratureSpec(8, 8)) - second_f(QuadratureSpec(16, 16))) < 1e-9


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def rotation_about(axis, angle):
    """exp(-i angle n.sigma / 2) for the unit vector n along axis."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * (n[0] * SX + n[1] * SY + n[2] * SZ)


def test_su2_lift_matches_rotation(rng):
    # rotations by pi and within 1e-14 of pi have Tr U = 0 or nearly so,
    # where the X = I term of the lift vanishes
    unitaries = [random_unitary(rng) for _ in range(20)]
    unitaries += [rotation_about(axis, angle) for axis in [*np.eye(3), *rng.normal(size=(5, 3))]
                  for angle in (np.pi, np.pi * (1 - 1e-14))]
    for u in unitaries + [I2]:
        o = rotation_of_unitary(u)
        lifted = oracle._su2_from_rotation(o)
        assert np.max(np.abs(rotation_of_unitary(lifted) - o)) < 1e-12
        assert np.max(np.abs(lifted @ lifted.conj().T - I2)) < 1e-12
        assert abs(np.linalg.det(lifted) - 1.0) < 1e-12


def _einsum_su2_from_rotation(o):
    """The reference: the lift's sums as one einsum over (3, 3, 4, 2, 2)."""
    paulis = np.array(linalg.PAULIS)
    lift = np.einsum("iab,xbc,jcd->ijxad", paulis[1:], paulis, paulis[1:])
    sums = paulis + np.einsum("...ij,ijxad->...xad", o, lift)
    best = np.argmax(np.linalg.norm(sums, axis=(-2, -1)), axis=-1)
    m = np.take_along_axis(sums, best[..., None, None, None], axis=-3)[..., 0, :, :]
    return m / np.sqrt(np.linalg.det(m))[..., None, None]


def test_su2_lift_of_a_stack_keeps_each_members_bits(rng):
    # one (1, 9) @ (9, 16) product per member: every prefix of the stack and
    # every member alone has the stack's bits, within 1e-15 of the einsum
    o = np.array([rotation_of_unitary(random_unitary(rng)) for _ in range(300)])
    stacked = oracle._su2_from_rotation(o)
    for n in (1, 2, 3, 8, 33, 266):
        assert oracle._su2_from_rotation(o[:n]).tobytes() == stacked[:n].tobytes()
    for m in range(len(o)):
        assert oracle._su2_from_rotation(o[m]).tobytes() == stacked[m].tobytes()
    assert np.max(np.abs(stacked - _einsum_su2_from_rotation(o))) <= 1e-15


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


def test_canonicalize_decomposes_nothing_and_stores_what_from_density_would(rng, monkeypatch):
    # the rotated state keeps the input's spectrum, so no eigendecomposition
    # is needed; its rho and (R, S, T) are from_density's to the bit
    inputs = [from_density(random_density(rng)) for _ in range(5)] + [bell_state(3), pure_state(0.8)]
    expected = []
    for st in inputs:
        u1, u2 = canonicalize(st)[1]
        big = np.kron(u1, u2)
        expected.append(from_density(big @ st.rho @ big.conj().T))

    def no_eig(m):
        raise AssertionError("canonicalize decomposed a matrix")

    monkeypatch.setattr(linalg, "hermitian_eig", no_eig)
    for st, ref in zip(inputs, expected):
        canon, _ = canonicalize(st)
        assert canon.rho.tobytes() == ref.rho.tobytes() and not canon.rho.flags.writeable
        for got, want in zip(vars(canon.hs).values(), vars(ref.hs).values()):
            assert got.tobytes() == want.tobytes()


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


# ---------------------------------------------------------------------------
# stacks: every piece against its one-member view
# ---------------------------------------------------------------------------

def stack_states(rng):
    """States of rank 1 to 4, product states (det T = 0), Bell states, a
    Werner state and UQT final states (equal correlation magnitudes)."""
    sts = [from_density(random_rank_density(rng, 1 + k % 4)) for k in range(8)]
    sts += [from_density(np.kron(random_density(rng, 2), random_density(rng, 2))) for _ in range(3)]
    sts += [bell_state(k) for k in (1, 2, 3, 4)] + [pure_state(0.8)]
    werner = sum(w * bell_state(k).rho for w, k in zip((0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3), (1, 2, 3, 4)))
    sts.append(from_density(werner))
    sts += [channels.apply_to_bob(bell_state(1), families.uqt_nonunital_rank4(0.1, 0.05, 0.05, t))
            for t in (0.4, 0.7)]
    return sts


def test_stack_members_equal_their_one_member_views_bit_for_bit(rng):
    sts = stack_states(rng)
    rho = np.array([s.rho for s in sts])
    t_mat = np.array([s.hs.t_mat for s in sts])
    blochs = np.array([random_bloch(rng) for _ in range(6)])
    outputs = oracle._protocol(rho, oracle._bloch_to_rho(blochs))
    transfer = oracle._protocol(rho, oracle._PAULI_STACK)
    canonical, u1, u2 = oracle.canonical_densities(rho, t_mat)
    rule = QuadratureSpec(8, 16).nodes()
    mean, delta = oracle.moments(states.pauli_coefficients(rho), rule)
    for i, st in enumerate(sts):
        for j, n in enumerate(blochs):
            assert teleport_output(st, n).tobytes() == outputs[i, j].tobytes()
        one = oracle._protocol(st.rho[None], oracle._PAULI_STACK)[0]
        assert one.tobytes() == transfer[i].tobytes()
        canon, (v1, v2) = canonicalize(st)
        assert canon.rho.tobytes() == canonical[i].tobytes()
        assert v1.tobytes() == u1[i].tobytes() and v2.tobytes() == u2[i].tobytes()
        mom = numeric_moments(st, QuadratureSpec(8, 16))
        assert (mom.mean_f, mom.delta) == (mean[i], delta[i])


def test_pauli_response_is_the_protocol_on_the_four_paulis(rng):
    # G = C P of the constant Pauli-basis response against G_ij = Tr(sigma_i L[sigma_j])
    # of the literal protocol, for each member alone and inside the stack;
    # the fidelities of a member alone have its bits in the stack
    sts = stack_states(rng)
    coef = states.pauli_coefficients(np.array([s.rho for s in sts]))
    paulis = oracle._PAULI_STACK
    blochs = np.array([random_bloch(rng) for _ in range(6)])
    v = np.column_stack([np.ones(len(blochs)), blochs])
    stacked = oracle.fidelities(coef, blochs)
    response = oracle._RESPONSE.reshape(16, 4, 4)
    # the protocol reads C_00 and the diagonal of T, with weights 2, 2, -2, 2
    nonzero = np.nonzero(oracle._RESPONSE)
    assert nonzero[0].tolist() == nonzero[1].tolist() == [0, 5, 10, 15]
    assert np.max(np.abs(oracle._RESPONSE[nonzero] - [2.0, 2.0, -2.0, 2.0])) <= 1e-15
    for m, st in enumerate(sts):
        g_ref = np.einsum("iab,jba->ij", paulis, oracle._protocol(st.rho[None], paulis)[0]).real
        for one in (states.pauli_coefficients(st.rho), coef[m]):
            assert np.max(np.abs(np.einsum("r,rij->ij", one.reshape(16), response) - g_ref)) <= 1e-15
        alone = oracle.fidelities(states.pauli_coefficients(st.rho[None]), blochs)[0]
        assert alone.tobytes() == stacked[m].tobytes()
        assert np.max(np.abs(alone - 0.25 * np.einsum("qi,ij,qj->q", v, g_ref, v))) <= 1e-15


def test_exact_rule_agrees_with_the_64_by_64_rule(rng):
    # f^2 has degree 4 in the Bloch vector, so 3 x 5 nodes are exact
    sts = stack_states(rng)
    rho = np.array([s.rho for s in sts])
    canonical = oracle.canonical_densities(rho, np.array([s.hs.t_mat for s in sts]))[0]
    assert oracle.EXACT_RULE[0].shape == (15,) and not oracle.EXACT_RULE[1].flags.writeable
    for stack in map(states.pauli_coefficients, (rho, canonical)):
        exact = oracle.moments(stack)
        fine = oracle.moments(stack, QuadratureSpec().nodes())
        assert np.max(np.abs(np.subtract(exact, fine))) <= 1e-14


def test_canonical_moments_equal_the_closed_forms(rng):
    sts = stack_states(rng)
    rho = np.array([s.rho for s in sts])
    mean, delta = oracle.canonical_moments(states.pauli_coefficients(rho))
    for st, m, d in zip(sts, mean, delta):
        prof = profile(st)
        if prof.formula_valid:
            assert abs(m - prof.f_max) <= 1e-14 and abs(d - prof.delta) <= 1e-14


def _drawn_state(kind, seed, x):
    """A shared state of one kind, scrambled by random local unitaries: a
    random density of rank 1 to 4 (det T of either sign), a product state
    (det T = 0), a Werner state of Bell weight x (three equal magnitudes;
    det T < 0, = 0 or > 0 as x >, = or < 1/4), a final state of the rank-4
    family on bell1 (three equal magnitudes), or I/4 plus a random T of
    scale 10**(-300 - 8x), near underflow."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        rho = random_rank_density(rng, 1 + seed % 4)
    elif kind == "product":
        rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    elif kind == "werner":
        rho = sum(w * bell_state(k).rho for w, k in zip((x, *[(1 - x) / 3] * 3), (1, 2, 3, 4)))
    elif kind == "rank4":
        params = families.FAMILIES["uqt_nonunital_rank4"].sample_params(rng)
        rho = channels.apply_to_bob(bell_state(1), families.uqt_nonunital_rank4(**params)).rho
    else:
        t = rng.normal(size=(3, 3)) * 10.0 ** (-300.0 - 8.0 * x)
        rho = (np.eye(4) + np.einsum("ij,ijab->ab", t, states._PP[1:, 1:])) / 4.0
    u = np.kron(random_unitary(rng), random_unitary(rng))
    return from_density(u @ rho @ u.conj().T)


_KINDS = st.sampled_from(["random", "product", "werner", "rank4", "tiny"])


@given(st.lists(st.tuples(_KINDS, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0)), min_size=1, max_size=6))
@example([("werner", 1, 0.25), ("werner", 2, 0.1), ("werner", 3, 0.9), ("rank4", 4, 0.0),
          ("product", 5, 0.0), ("tiny", 6, 1.0), ("random", 7, 0.0)])
def test_canonical_moments_equal_the_moments_of_the_unitary_canonical_form(draws):
    # rotating the Pauli coefficients by the proper rotations gives the
    # moments of the state rotated by their SU(2) lifts, member by member
    sts = [_drawn_state(*draw) for draw in draws]
    coef = states.pauli_coefficients(np.array([s.rho for s in sts]))
    mean, delta = oracle.canonical_moments(coef)
    rotations = oracle._canonical_rotations(coef[:, 1:, 1:])
    # orthogonal, as far as LAPACK's SVD factors are (up to 2.7e-15 seen on
    # 200,000 random 3x3 matrices), and proper: the third row is the cross
    # product of the first two (det +1; np.linalg.det's LU adds rounding of its own)
    assert np.max(np.abs(rotations @ rotations.swapaxes(-1, -2) - np.eye(3))) <= 4e-15
    cross = np.cross(rotations[..., 0, :], rotations[..., 1, :])
    assert np.max(np.abs(cross - rotations[..., 2, :])) <= 4e-15
    for i, shared in enumerate(sts):
        canon, _ = canonicalize(shared)
        want_mean, want_delta = oracle.moments(states.pauli_coefficients(canon.rho[None]))
        assert abs(mean[i] - want_mean[0]) <= 1e-15 and abs(delta[i] - want_delta[0]) <= 1e-15


def test_a_stack_of_inputs_teleports_perfectly_through_bell1(rng):
    blochs = np.array([random_bloch(rng) for _ in range(64)] + list(np.eye(3)) + list(-np.eye(3)))
    rho_in = oracle._bloch_to_rho(blochs)
    out = oracle._protocol(bell_state(1).rho[None], rho_in)
    assert out.shape == (1, len(blochs), 2, 2)
    fid = np.einsum("nab,nba->n", rho_in, out[0]).real
    assert np.max(np.abs(fid - 1.0)) <= 1e-12
    assert np.max(np.abs(out[0] - rho_in)) <= 1e-12
