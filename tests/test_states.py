import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqtchan import acceptance, channels, explorer, families, states
from uqtchan.linalg import I4, PAULIS
from uqtchan.states import (
    bell_state,
    concurrence,
    from_density,
    profile,
    pure_state,
    pure_state_from_concurrence,
    verdicts,
)

from conftest import kraus_stack, random_density, random_unitary

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


def test_density_stack_rejects_an_eigenvalue_just_below_minus_psd_tol():
    # the smallest eigenvalue -5e-9 is below -PSD_TOL = -1e-9 but above -1e-8
    dens = states.density_stack(np.diag([0.5 + 5e-9, 0.3, 0.2, -5e-9])[None])
    assert dens.errors == ("density matrix has negative eigenvalue -5.000e-09",)


def test_density_stack_names_each_rejected_member_in_place():
    # rejected members first, in the middle and last, each with the text
    # from_density raises for it alone; every other member reads None
    good = [I4 / 4, bell_state(2).rho, pure_state(0.8).rho]
    bad = [I4 / 2, np.diag([0.7, 0.5, -0.1, -0.1]), np.diag([0.5 + 5e-9, 0.3, 0.2, -5e-9]),
           I4 * (0.25 + 1e-9)]
    stack = [bad[0], good[0], good[1], bad[1], good[2], bad[2], bad[3]]
    expected = ["density matrix trace 2.0 differs from 1 beyond 1e-10", None, None,
                "density matrix has negative eigenvalue -1.000e-01", None,
                "density matrix has negative eigenvalue -5.000e-09",
                "density matrix trace 1.000000004 differs from 1 beyond 1e-10"]
    assert states.density_stack(np.array(stack, dtype=complex)).errors == tuple(expected)
    for m, text in zip(stack, expected):
        if text is not None:
            with pytest.raises(ValueError) as info:
                from_density(m)
            assert str(info.value) == text


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
        # rho = sum_ij c_ij sigma_i x sigma_j / 4 of its pauli_coefficients
        # c_ij, whose blocks c_i0, c_0j and c_ij (i, j >= 1) are (R, S, T)
        coef = np.zeros((4, 4))
        coef[0, 0] = 1.0
        coef[1:, 0], coef[0, 1:], coef[1:, 1:] = st_.hs.r_vec, st_.hs.s_vec, st_.hs.t_mat
        assert np.max(np.abs(states.pauli_coefficients(st_.rho) - coef)) < 1e-12
        back = sum(coef[i, j] * np.kron(PAULIS[i], PAULIS[j])
                   for i in range(4) for j in range(4)) / 4.0
        assert np.max(np.abs(back - st_.rho)) < 1e-12


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


def test_concurrence_alone_equals_concurrences_inside_a_stack(rng):
    sts = []
    for rank in (1, 2, 3, 4) * 5:
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        sts.append(from_density(g @ g.conj().T / np.trace(g @ g.conj().T).real))
    rho = np.array([st_.rho for st_ in sts])
    stacked = states.concurrences(rho)
    assert stacked.shape == (20,)
    for i, st_ in enumerate(sts):
        assert concurrence(st_) == stacked[i]  # bit for bit
        assert states.concurrences(rho[i:i + 1])[0] == stacked[i]


def test_concurrences_of_bell_and_product_states(rng):
    bells = np.array([bell_state(k).rho for k in (1, 2, 3, 4)])
    assert np.max(np.abs(states.concurrences(bells) - 1.0)) <= 1e-14
    kets = [random_unitary(rng)[:, 0] for _ in range(10)]
    pure = [np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())) for a, b in zip(kets, kets[1:])]
    mixed = [np.kron(random_density(rng, 2), random_density(rng, 2)) for _ in range(10)]
    assert np.max(states.concurrences(np.array(pure + mixed))) <= 1e-14


def test_density_stack_bits_do_not_depend_on_the_layout():
    # criterion 11's random density matrices, as a C-ordered stack and as a
    # copy with the members innermost in memory: the trace sums in memory
    # order, so without a C-ordered copy the stored rho differ in last bits
    rng = np.random.default_rng(1618)
    mats = []
    for _ in range(500):
        mats.append(acceptance._random_density_matrix(rng))
        rng.normal(size=(2, 2 * int(rng.integers(1, 5)), 2))
    stack = np.array(mats)
    ref, got = states.density_stack(stack), states.density_stack(np.asfortranarray(stack))
    assert got.rho.tobytes() == ref.rho.tobytes()
    assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes() and got.errors == ref.errors


def test_concurrences_of_pure_states_follow_the_formula():
    a = np.array([0.5, 0.55, 0.6, 0.75, 0.9, 0.99, 1.0 - 1e-6])
    rho = np.array([pure_state(x).rho for x in a])
    assert np.array_equal(states.density_stack(states.pure_densities(a)).rho, rho)
    assert np.max(np.abs(states.concurrences(rho) - 2.0 * np.sqrt(a * (1.0 - a)))) <= 1e-14


def _ket_density_reference(psi):
    """The per-ket loop the stacked builders replaced: the ket normalized by
    np.vdot, then np.outer."""
    v = np.asarray(psi, dtype=complex).reshape(4)
    v = v / np.sqrt(np.vdot(v, v).real)
    return np.outer(v, v.conj())


def _psi_a_reference(a):
    """|Psi_a><Psi_a| of one a in [1/2, 1)."""
    return _ket_density_reference(np.array([np.sqrt(a), 0.0, 0.0, np.sqrt(1.0 - a)], dtype=complex))


def _a_of_concurrence_reference(c):
    """The larger Schmidt weight of the |Psi_a> with concurrence c in (0, 1]."""
    return min((1.0 + np.sqrt(1.0 - c * c)) / 2.0, np.nextafter(1.0, 0.0))


def test_pure_densities_match_the_per_ket_loop_bit_for_bit():
    rng = np.random.default_rng(30)
    a = np.concatenate([[0.5, np.nextafter(1.0, 0.0)], rng.uniform(0.5, 1.0, 10_000)])
    ref = np.array([_psi_a_reference(x) for x in a.tolist()])
    assert states.pure_densities(a).tobytes() == ref.tobytes()
    assert states.pure_densities(a.tolist()).tobytes() == ref.tobytes()
    # c in (0, 1], with c = 1 and a c small enough that a rounds to 1
    c = np.concatenate([[1.0, 1e-12], 1.0 - rng.uniform(0.0, 1.0, 10_000)])
    ref = np.array([_psi_a_reference(_a_of_concurrence_reference(x)) for x in c.tolist()])
    assert states.pure_densities_from_concurrence(c).tobytes() == ref.tobytes()
    assert states.pure_densities_from_concurrence(c.tolist()).tobytes() == ref.tobytes()


def test_from_ket_and_bell_states_match_the_per_ket_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    for psi in rng.normal(size=(1000, 4)) + 1j * rng.normal(size=(1000, 4)):
        ref = from_density(_ket_density_reference(psi))
        got = states.from_ket(psi)
        assert got.rho.tobytes() == ref.rho.tobytes()
        assert got.hs.t_mat.tobytes() == ref.hs.t_mat.tobytes()
    for k, ket in enumerate(states.BELL_KETS, start=1):
        ref = from_density(_ket_density_reference(ket))
        assert bell_state(k).rho.tobytes() == ref.rho.tobytes()


def test_one_pure_state_equals_its_stack_member_bit_for_bit():
    rng = np.random.default_rng(32)
    a = rng.uniform(0.5, 1.0, 300)
    c = 1.0 - rng.uniform(0.0, 1.0, 300)
    for values, one, stack in ((a, pure_state, states.pure_densities),
                               (c, pure_state_from_concurrence,
                                states.pure_densities_from_concurrence)):
        members = states.density_stack(stack(values)).rho
        for x, member in zip(values.tolist(), members):
            assert one(x).rho.tobytes() == member.tobytes()


@pytest.mark.parametrize("build,value,text", [
    (pure_state, 0.4, "a must lie in [1/2, 1), got 0.4"),
    (pure_state, 1.0, "a must lie in [1/2, 1), got 1.0"),
    (pure_state, float("nan"), "a must lie in [1/2, 1), got nan"),
    (pure_state_from_concurrence, 0.0, "concurrence must lie in (0, 1], got 0.0"),
    (pure_state_from_concurrence, 1.5, "concurrence must lie in (0, 1], got 1.5"),
])
def test_pure_state_errors_keep_their_one_state_text(build, value, text):
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == text


def test_pure_density_stacks_name_their_first_bad_value():
    with pytest.raises(ValueError, match=r"got 0\.3$"):
        states.pure_densities([0.6, 0.3, 1.2])
    with pytest.raises(ValueError, match=r"got -0\.5$"):
        states.pure_densities_from_concurrence(np.array([0.5, -0.5, 2.0]))
    assert states.pure_densities([]).shape == (0, 4, 4)


# ---------------------------------------------------------------------------
# correlation magnitudes
# ---------------------------------------------------------------------------

def test_spectrum_bell():
    spec = profile(bell_state(1))
    assert np.allclose(spec.abs_t, [1, 1, 1])
    assert spec.det_t == pytest.approx(-1.0, abs=1e-12)


def test_spectrum_dephased_bell():
    rho = 0.75 * bell_state(1).rho + 0.25 * bell_state(4).rho
    spec = profile(from_density(rho))
    assert np.allclose(spec.abs_t, [1.0, 0.5, 0.5], atol=1e-12)
    assert spec.det_t == pytest.approx(-0.25, abs=1e-12)


def test_spectrum_pure_09():
    spec = profile(pure_state(0.9))
    assert np.allclose(spec.abs_t, [1.0, 0.6, 0.6], atol=1e-12)
    assert spec.det_t == pytest.approx(-0.36, abs=1e-12)


def test_spectrum_nonsymmetric_sorted_descending(rng):
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = u @ pure_state(0.8).rho @ u.conj().T
    spec = profile(from_density(rho))
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


def _block_inputs(rng):
    """(Kraus stack, input) of three sweep blocks, built by checked_rows, and
    of one search block of random channels, drawn as search_uqt draws them."""
    gamma, n = zip(*itertools.product((0.0, 0.3, 0.6, 0.9), (0.0, 0.2, 0.5)))
    s1, s2, t = zip(*itertools.product((0.0, 0.1), (-0.1, 0.1), (0.4, 0.6)))
    rank4 = {"s1": s1, "s2": s2, "s3": [0.05] * len(t), "t": t}
    p1, p2 = zip(*itertools.product((0.45, 0.7, 0.9), (0.3, 0.6)))
    blocks = [
        (families.checked_rows("gadc", {"gamma": gamma, "N": n}).kraus, bell_state(1).rho),
        (families.checked_rows("uqt_nonunital_rank4", rank4).kraus, pure_state(0.8).rho),
        (families.checked_rows("dephasing", {"p": [0.5, 0.9]}).kraus, bell_state(1).rho),
        (families.checked_rows("lambda_tilde_nu", {"p1": p1, "p2": p2}).kraus,
         states.pure_densities_from_concurrence(p1)),
    ]
    blocks.append((kraus_stack([channels.random_kraus(rng, r) for r in [3, 4] * 8]),
                   pure_state_from_concurrence(0.45).rho))
    return blocks


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_block_verdicts_invariant_under_local_unitaries(seed):
    # input rho -> (U_A x U_B) rho (U_A x U_B)^dag and each channel's Kraus
    # operators K -> V K U_B^dag turn each final state into (U_A x V) final
    # (U_A x V)^dag, which no verdict may tell apart
    rng = np.random.default_rng(seed)
    for kraus, rho in _block_inputs(np.random.default_rng(7)):
        ua, ub = random_unitary(rng), random_unitary(rng)
        u = np.kron(ua, ub)
        rotated = np.array([random_unitary(rng) @ k @ ub.conj().T for k in kraus])
        before, b = explorer._classify(kraus, rho)
        after, a = explorer._classify(rotated, u @ rho @ u.conj().T)
        assert before == after == [None] * len(kraus), (before, after)
        assert b["choi_rank"] == a["choi_rank"]
        for key in ("useful", "universal", "uqt", "formula_valid"):
            assert b[key] == a[key]
        for key in ("f_max", "delta"):  # None, no closed form, where formula_valid is false
            x, y = np.array(b[key], float), np.array(a[key], float)
            assert np.max(np.abs(x - y), initial=0.0, where=~np.isnan(x)) <= 1e-12
        # the singular values f_max and delta are made of, for every member
        assert np.max(np.abs(b["abs_t"] - a["abs_t"]), initial=0.0) <= 1e-12


def test_profile_delta_range(rng):
    for _ in range(30):
        prof = profile(from_density(random_density(rng)))
        if prof.formula_valid:
            assert 0.0 <= prof.delta <= 0.5
            assert prof.uqt == (prof.useful and prof.universal)


def test_verdicts_need_equal_magnitudes_besides_a_small_deviation():
    # delta = 7.5e-10 is within EPS_UQT, but a1 - a3 = 5e-9 is not: neither
    # universal nor uqt, though useful
    v = verdicts(-np.diag([0.5 + 5e-9, 0.5, 0.5])[None])
    assert v.delta[0] <= states.EPS_UQT < v.abs_t[0, 0] - v.abs_t[0, 2]
    assert v.useful.tolist() == [True]
    assert v.universal.tolist() == [False] and v.uqt.tolist() == [False]


# a diagonal T whose largest |t_ii| is 1e-150 LAPACK rescales, and its
# singular values differ from the sorted |t_ii| in the last digit
_RESCALED = np.diag([1e-150, 3e-151, 7e-152])
_DIAGONAL_SCALES = (1.0, 0.25, 1e-20, 1e20, 1e-100, np.nextafter(1e-100, 0.0), 1e100,
                    np.nextafter(1e100, np.inf), 1e-150, 1e102)  # det T stays finite


@st.composite
def _diagonal_t(draw):
    """An exactly diagonal T: zero and -0.0 entries and ties among its
    |t_ii|, off-diagonal zeros of either sign, and a largest |t_ii| of
    one of _DIAGONAL_SCALES, inside and just outside the range where
    verdicts skips LAPACK."""
    d = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.3]),
                                         st.floats(-1.0, 1.0)), min_size=3, max_size=3)))
    largest = np.max(np.abs(d))
    if largest > 0.0:
        d = d / largest * draw(st.sampled_from(_DIAGONAL_SCALES))
    t = np.reshape(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=9, max_size=9)), (3, 3))
    t[np.diag_indices(3)] = d
    return t


_GENERAL_T = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda v: np.reshape(v, (3, 3)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_diagonal_t(), _GENERAL_T, st.just(np.zeros((3, 3))), st.just(_RESCALED)),
                min_size=1, max_size=8))
@example([_RESCALED])
@example([np.diag([0.5, -0.25, 0.0]), -np.diag([0.3, 0.3, 0.7]), np.diag([1e-100, -1e-101, 0.0])])
@example([np.diag([0.5, -0.25, 0.0]), np.eye(3) + np.diag([1e-300, 1e-300], 1), _RESCALED,
          np.zeros((3, 3)), -np.diag([0.0, 0.6, 0.6])])  # all -0.0 off-diagonals
def test_verdicts_of_diagonal_and_general_members_have_lapack_bits(members):
    # an exactly diagonal T skips LAPACK: its magnitudes must still be the
    # bits np.linalg.svd gives it alone, in any stack, and its fields those
    # of its one-state profile
    t = np.array(members)
    v = verdicts(t)
    for i, ti in enumerate(t):
        assert v.abs_t[i].tobytes() == np.linalg.svd(ti, compute_uv=False).tobytes(), ti
        one = profile(states.TwoQubitState(rho=I4 / 4, hs=states.HSDecomposition(
            r_vec=np.zeros(3), s_vec=np.zeros(3), t_mat=ti)))
        assert one.abs_t.tobytes() == v.abs_t[i].tobytes()
        assert one.det_t == v.det_t[i] and type(one.det_t) is float
        closed = (v.f_max[i], v.delta[i]) if v.formula_valid[i] else (None, None)
        assert (one.f_max, one.delta) == closed
        for key in ("useful", "universal", "uqt", "formula_valid"):
            assert getattr(one, key) is bool(getattr(v, key)[i])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verdicts_of_a_non_finite_diagonal_member_are_lapacks(bad):
    # NaN raises LinAlgError and inf reads as NaN magnitudes, alone and in a
    # stack of diagonal members, as np.linalg.svd has it
    t = np.array([np.diag([0.5, 0.2, 0.1]), np.diag([bad, 0.5, 0.2]), np.diag([0.3, 0.3, 0.3])])
    for stack in (t, t[1:2]):
        if np.isnan(bad):
            for fn in (verdicts, lambda x: np.linalg.svd(x, compute_uv=False)):
                with pytest.raises(np.linalg.LinAlgError):
                    fn(stack)
        else:
            with np.errstate(invalid="ignore"):  # det T = inf times a False mask
                abs_t = verdicts(stack).abs_t
            assert np.isnan(abs_t).any()
            assert abs_t.tobytes() == np.linalg.svd(stack, compute_uv=False).tobytes()


def _density_of_rank(rng, r, dim=4):
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _numpy_reference(t, det_zero):
    """The TeleportProfile fields of one T from numpy's SVD and det alone;
    det_zero marks a T of rank < 3, whose det T is 0."""
    sv = np.linalg.svd(t, compute_uv=False)
    ref = {"abs_t": sv, "det_t": 0.0 if det_zero else np.linalg.det(t),
           "f_max": (1.0 + sv.sum() / 3.0) / 2.0,
           "delta": np.sqrt((sv[0] - sv[1]) ** 2 + (sv[0] - sv[2]) ** 2 + (sv[1] - sv[2]) ** 2)
           / (3.0 * np.sqrt(10.0))}
    valid = ref["det_t"] <= 0.0
    ref.update(formula_valid=valid, useful=valid and ref["f_max"] > 2.0 / 3.0 + states.EPS_CLS,
               universal=valid and sv[0] - sv[2] <= states.EPS_UQT)
    ref["uqt"] = ref["useful"] and ref["universal"] and sv[2] > 1.0 / 3.0 + states.EPS_CLS
    return ref


def test_verdicts_and_profiles_match_numpy_svd_and_det(rng):
    qubit = [_density_of_rank(rng, r, dim=2) for r in (1, 2)] + [np.eye(2) / 2]
    product = [np.kron(a, b) for a in qubit for b in qubit]  # T = r s^T, det T = 0
    dephased = 0.5 * bell_state(1).rho + 0.5 * bell_state(4).rho  # T = diag(0, 0, 1)
    positive = sum(w * bell_state(k).rho for w, k in zip((0.3, 0.3, 0.1, 0.3), (1, 2, 3, 4)))
    rotated = []
    for rho in [dephased] * 3 + [positive] * 3:
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated.append(u @ rho @ u.conj().T)
    werners = [p * bell_state(1).rho + (1 - p) / 4 * I4 for p in (0.2, 0.8, 1.0)]
    ranked = [_density_of_rank(rng, r) for r in (1, 2, 3, 4) for _ in range(10)]
    rhos = product + rotated[:3] + ranked + rotated[3:] + werners
    det_zero = [i < len(product) + 3 for i in range(len(rhos))]
    members = [from_density(rho) for rho in rhos]
    t_mat = np.array([m.hs.t_mat for m in members])
    v, profs = verdicts(t_mat), states.profiles(t_mat)
    refs = [_numpy_reference(t, z) for t, z in zip(t_mat, det_zero)]
    assert sum(r["det_t"] > 0 for r in refs) >= 5 and sum(r["uqt"] for r in refs) == 2
    assert sum(r["useful"] for r in refs) > 10 and sum(not r["useful"] for r in refs) > 10
    flags = ("formula_valid", "useful", "universal", "uqt")
    for i, (m, p, ref) in enumerate(zip(members, profs, refs)):
        assert not det_zero[i] or v.det_t[i] == 0.0 == p.det_t  # exactly 0, not noise
        assert abs(v.det_t[i] - ref["det_t"]) <= 1e-12 and abs(p.det_t - ref["det_t"]) <= 1e-12
        assert np.max(np.abs(v.abs_t[i] - ref["abs_t"])) <= 1e-12
        assert p.abs_t.tolist() == v.abs_t[i].tolist()
        assert [bool(getattr(v, k)[i]) for k in flags] == [ref[k] for k in flags]
        assert [getattr(p, k) for k in flags] == [ref[k] for k in flags]
        assert all(type(getattr(p, k)) is bool for k in flags)
        if ref["formula_valid"]:
            assert abs(p.f_max - ref["f_max"]) <= 1e-12 and abs(p.delta - ref["delta"]) <= 1e-12
            assert (p.f_max, p.delta) == (v.f_max[i], v.delta[i])
        else:
            assert p.f_max is None and p.delta is None
        one = profile(m)  # a member alone gets the values it gets inside the stack
        assert (one.f_max, one.delta, one.det_t) == (p.f_max, p.delta, p.det_t)
        assert one.abs_t.tolist() == p.abs_t.tolist()
        assert [getattr(one, k) for k in flags] == [getattr(p, k) for k in flags]


def test_verdicts_of_one_matrix_equal_its_stack_member_to_the_bit(rng):
    # a float64 scalar's ** 2 is libm pow, which rounds some squares
    # differently from an array's x * x: four of these 10,000 matrices got
    # another last digit of delta alone than in the stack
    t = rng.normal(size=(10000, 3, 3)) / 3.0
    v = verdicts(t)
    for i in range(len(t)):
        one = verdicts(t[i])
        assert (one.f_max, one.delta, one.det_t) == (v.f_max[i], v.delta[i], v.det_t[i])
        assert one.abs_t.tolist() == v.abs_t[i].tolist()
