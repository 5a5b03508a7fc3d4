import gc
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtchan import acceptance, channels, families, linalg, states
from uqtchan.channels import (
    ChannelValidationError,
    apply,
    apply_to_bob,
    channel_from_json,
    channel_to_json,
    choi,
    orthogonalize,
    report,
    rotate_kraus,
    validate,
)
from uqtchan.linalg import I2, SX, SY, SZ

from conftest import (
    JSON_NUMBERS,
    JSON_SCALARS,
    JSON_VALUES,
    NUMBER_LOOKALIKES,
    completeness_residual,
    kraus_stack,
    random_density,
    random_kraus,
    random_unitary,
    unitality_residual,
)

SIGMA = (I2, SX, SY, SZ)


def dephasing_kraus(p):
    return [np.sqrt(p) * I2, np.sqrt(1 - p) * SZ]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_identity():
    ch = validate([I2])
    rep = report(ch)
    assert rep.unital and rep.choi_rank == 1


def test_validate_dephasing():
    ch = validate(dephasing_kraus(0.3))
    assert len(ch.kraus) == 2
    assert report(ch).unital


def test_validate_rejects_incomplete():
    with pytest.raises(ChannelValidationError, match="completeness") as exc:
        validate([0.9 * I2])
    assert exc.value.residual > 0.1


def test_validate_rejects_nan():
    k = dephasing_kraus(0.3)
    k[1] = k[1].copy()
    k[1][0, 1] = np.nan
    with pytest.raises(ChannelValidationError, match="non-finite"):
        validate(k)


def test_completeness_tolerance_matches_trace_tolerance():
    # a residual the Choi state's trace check would reject is rejected by
    # validate; one inside it validates and every downstream call works
    with pytest.raises(ChannelValidationError, match="completeness"):
        validate([np.sqrt(1 + 8e-10) * I2])
    ch = validate([np.sqrt(1 + 4e-11) * I2])
    rep = report(ch)
    assert rep.choi_rank == 1 and rep.unital
    assert states.profile(apply_to_bob(states.bell_state(1), ch)).uqt


def test_validate_keeps_choi_rank():
    ch = families.gadc(0.3, 0.2)
    assert ch.choi_rank == report(ch).choi_rank == linalg.numeric_rank(choi(ch).rho) == 4
    assert report(ch).choi.rho.tobytes() == choi(ch).rho.tobytes()


def test_validate_rejects_empty_and_oversized():
    with pytest.raises(ChannelValidationError):
        validate([])
    with pytest.raises(ChannelValidationError):
        validate([I2 / np.sqrt(9)] * 9)


def test_validate_accepts_overcomplete():
    # 8 redundant operators are fine; orthogonalize reduces them
    ch = validate([I2 / np.sqrt(8)] * 8)
    assert len(orthogonalize(ch).kraus) == 1


def test_kraus_immutable():
    ch = validate(dephasing_kraus(0.3))
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 5.0


@pytest.mark.parametrize("bad", [[I2, np.eye(3)], [np.ones(3)], I2, [[["a", 0], [0, 1]]]],
                         ids=["ragged", "length-3 vector", "bare 2x2", "non-numeric"])
def test_validate_rejects_mis_shaped(bad):
    with pytest.raises(ChannelValidationError):
        validate(bad)


def _is_kraus_stack(kraus):
    return (isinstance(kraus, np.ndarray) and kraus.dtype == complex and kraus.ndim == 3
            and kraus.shape[1:] == (2, 2) and not kraus.flags.writeable
            and kraus.flags.c_contiguous)


def test_kraus_is_one_read_only_stack(rng):
    ch = validate(dephasing_kraus(0.3))
    rebuilt = channels.kraus_from_choi(channels.choi_matrix(ch.kraus))
    assert isinstance(rebuilt, np.ndarray) and rebuilt.shape == (2, 2, 2)
    # so is every catalog channel: a builder's block keeps its members
    # innermost in memory, and the Choi-defined families rebuild their
    # operators as a transposed view, but a channel keeps neither layout
    catalog = [families.noise_channel(fid, **fam.sample_params(rng))
               for fid, fam in families.FAMILIES.items()]
    for c in (ch, orthogonalize(families.gadc(0.5, 0.7)), rotate_kraus(ch, random_unitary(rng, 3)),
              validate(rebuilt), *catalog):
        assert _is_kraus_stack(c.kraus), c


def test_validate_stack_matches_validate(rng):
    # each member of a stack of lists of different k, padded with zero
    # operators, is accepted or rejected as validate alone accepts or
    # rejects its list, with the same rank or message; a malformed list is
    # validate's to parse (test_validate_rejects_mis_shaped)
    lists = [
        random_kraus(rng, 4), dephasing_kraus(0.3), [I2], random_kraus(rng, 3),
        [1.01 * I2],  # completeness violated
        [np.full((2, 2), np.nan)],  # non-finite
        list(random_kraus(rng, 2)) + [np.zeros((2, 2))],  # an explicit zero operator
    ]
    stack, choi_stack, ranks, errors, residuals, _ = channels.validate_stack(kraus_stack(lists))
    assert stack.shape == (len(lists), 4, 2, 2) and not stack.flags.writeable
    assert choi_stack.shape == (len(lists), 4, 4)
    assert ranks == [4, 2, 1, 3, 0, 0, 2] and all(type(rank) is int for rank in ranks)
    assert [err is None for err in errors] == [True] * 4 + [False, False, True]
    for member, member_choi, kraus, rank, err, res in zip(stack, choi_stack, lists, ranks, errors,
                                                          residuals):
        try:
            ch = validate(kraus)
        except ChannelValidationError as exc:
            assert (err, res) == (str(exc), exc.residual)
            continue
        k = len(ch.kraus)
        assert (rank, err, res) == (ch.choi_rank, None, None)
        assert member[:k].tobytes() == ch.kraus.tobytes() and not member[k:].any()
        assert np.max(np.abs(member_choi - choi(ch).rho)) <= 1e-15
    assert channels.validate_stack(np.zeros((0, 1, 2, 2)))[2:5] == ([], [], [])


def test_choi_matrix_of_a_member_alone_has_its_bits_in_a_stack(rng):
    # the Gram-form contraction gives a Kraus stack the same bits alone as
    # inside a larger stack, and agrees with the Bell-projector form
    lists = [random_kraus(rng, r) for r in (1, 2, 3, 4) * 9]
    stack = channels.validate_stack(kraus_stack(lists))[0]
    whole = channels.choi_matrix(stack)
    for member, member_choi in zip(stack, whole):
        assert channels.choi_matrix(member).tobytes() == member_choi.tobytes()
    phi = np.outer(states.BELL_KETS[0], states.BELL_KETS[0].conj())
    assert np.max(np.abs(whole - channels.bob_action(phi, stack))) <= 1e-15
    for kraus in lists[:4]:  # the unpadded list too
        assert np.max(np.abs(channels.choi_matrix(kraus) - choi(validate(kraus)).rho)) <= 1e-15


def test_validate_stack_takes_a_ready_stack(rng):
    # a (N, k, 2, 2) array is checked as a whole, as its members one by one:
    # a non-finite member and an incomplete one are rejected, zeros included
    padded = np.concatenate([random_kraus(rng, 2), np.zeros((2, 2, 2))])
    stack = np.array([random_kraus(rng, 4), np.full((4, 2, 2), np.nan), np.zeros((4, 2, 2)),
                      1.01 * random_kraus(rng, 4), padded])
    got, got_choi, ranks, errors, _, _ = channels.validate_stack(stack)
    assert ranks[0] == 4 and ranks[4] == 2
    assert errors[1] == "Kraus operator has non-finite entries"
    for member, member_choi, kraus, rank, err in zip(got, got_choi, stack, ranks, errors):
        try:
            ch = validate(kraus)
        except ChannelValidationError as exc:  # a rejected member is zero, and so is its Choi
            assert err == str(exc) and not member_choi.any() and rank == 0
            assert not member.any() or member.tobytes() == kraus.tobytes()
            continue
        assert err is None and rank == ch.choi_rank and member.tobytes() == ch.kraus.tobytes()
        assert member_choi.tobytes() == choi(ch).rho.tobytes()
    # anything but an (N, k, 2, 2) array with k in 1..8 is no stack
    for bad in ([random_kraus(rng, 2)], stack[0], np.zeros((1, 0, 2, 2)), np.zeros((1, 9, 2, 2)),
                np.zeros((1, 1, 3, 3))):
        with pytest.raises(ChannelValidationError, match="Kraus stack"):
            channels.validate_stack(bad)


#: one operator with finite entries whose products overflow: K^dag K is NaN
OVERFLOWING = np.array([[[1e200, 1e200], [1e200, -1e200]]])


@pytest.mark.parametrize("layout", ["C", "Fortran", "members innermost"])
def test_validate_stack_residuals_are_the_kraus_residuals(layout):
    # completeness and unitality, read off the marginals of the Choi matrix,
    # are the Kraus-side einsums to rounding in any memory layout, and each
    # member has the same bits alone, through validate, as inside the stack
    rng = np.random.default_rng(24)
    lists = [channels.random_kraus(rng, rank) for rank in range(1, 9) for _ in range(3)]
    lists += [(1.0 + 1e-6 * rng.uniform(0.5, 2.0)) * kraus for kraus in lists[::3]]  # incomplete
    c = kraus_stack(lists)
    stack = {"C": c, "Fortran": np.asfortranarray(c),
             "members innermost": np.moveaxis(np.moveaxis(c, 0, -1).copy(), -1, 0)}[layout]
    _, _, _, errors, residuals, unitality = channels.validate_stack(stack)
    incomplete = [i for i, err in enumerate(errors) if err is not None]
    assert incomplete == list(range(24, 32))
    assert np.max(np.abs(unitality - unitality_residual(c))) <= 1e-15
    raised = []  # the residual of each error validate raises
    for kraus, err, res, unital_res in zip(lists, errors, residuals, unitality.tolist()):
        try:
            assert validate(kraus).unitality_residual == unital_res and res is None
        except ChannelValidationError as exc:
            assert (str(exc), exc.residual) == (err, res)
            raised.append(exc.residual)
    assert np.max(np.abs(np.array(raised) - completeness_residual(c[incomplete]))) <= 1e-15


def test_overflowing_member_is_rejected_alone():
    # finite entries whose products overflow give a NaN completeness
    # residual: that member fails completeness, quietly, and the rest pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, choi_stack, ranks, errors, residuals, _ = channels.validate_stack(
            kraus_stack([[I2], OVERFLOWING]))
        with pytest.raises(ChannelValidationError, match="completeness violated.* = nan") as exc:
            validate(OVERFLOWING)
    assert ranks == [1, 0]
    assert errors == [None, "completeness violated: ||sum K^dag K - I||_max = nan"]
    assert residuals[0] is None and np.isnan(residuals[1]) and np.isnan(exc.value.residual)
    assert not choi_stack[1].any()


def test_validation_errors_leave_no_reference_cycle():
    # a rejected member's error must not hold the call's frame, and with it
    # the whole stack, in a cycle that only the cyclic collector frees
    lists = [[], [I2], [np.eye(3)], [np.full((2, 2), np.nan)], [2.0 * I2]]
    stack = kraus_stack([[I2], [np.full((2, 2), np.nan)], [2.0 * I2]])
    assert channels.validate_stack(stack)[2:4] == ([1, 0, 0], [
        None, "Kraus operator has non-finite entries",
        "completeness violated: ||sum K^dag K - I||_max = 3.000e+00"])
    # and so must a row that checked_rows rejects: an unknown name (every
    # row's error), a value out of range, a builder's ValueError,
    # ChannelValidationError and one raised from an OverflowError
    rows = [("gadc", {"gamma": 0.3, "x": 0.1}), ("gadc", {"gamma": 2.0, "N": 0.1}),
            ("uqt_nonunital_rank4", {"s1": 0.9, "s2": 0.0, "s3": 0.0, "t": 0.5}),
            ("lambda_u4", {"p": 0.3}), ("pln_nm", {"G": 1.0, "g": 1e100, "t": 1e100})]
    columns = [(fid, {key: [value, value] for key, value in row.items()}) for fid, row in rows]
    assert all(type(families.checked_rows(fid, cols).errors[1]) is str for fid, cols in columns)
    gc.collect()
    gc.disable()
    try:
        channels.validate_stack(stack)
        for kraus in lists:
            try:
                validate(kraus)
            except ChannelValidationError:
                pass
        for (fid, row), (_, cols) in zip(rows, columns):
            families.checked_rows(fid, cols)
            try:
                families.checked_build(fid, **row)
            except ValueError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_random_kraus_is_a_channel_of_its_rank():
    # the isometry draw is complete to rounding, has Choi rank equal to its
    # Kraus rank, and is non-unital with three or four operators
    worst = 0.0
    for rank in range(1, 5):
        for seed in range(200):
            kraus = channels.random_kraus(np.random.default_rng(seed), rank)
            assert kraus.shape == (rank, 2, 2)
            worst = max(worst, completeness_residual(kraus))
            ch = validate(kraus)
            assert ch.choi_rank == rank
            assert rank < 3 or ch.unitality_residual > 1e-6
    assert worst <= 1e-14


@pytest.mark.parametrize("rank", range(1, channels.MAX_KRAUS + 1))
def test_random_kraus_is_the_two_draw_isometry(rank):
    # the real, then the imaginary (2 rank, 2) Gaussians, one QR: the same
    # bits and the same generator state after the draw
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        g = ref.normal(size=(2 * rank, 2)) + 1j * ref.normal(size=(2 * rank, 2))
        assert channels.random_kraus(rng, rank).tobytes() == \
            np.linalg.qr(g)[0].reshape(rank, 2, 2).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("rank", [0, 9, -1, True, 2.5, "2", None])
def test_random_kraus_rejects_a_bad_rank_before_any_draw(rank):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f"1..8, got {rank!r}")):
        channels.random_kraus(rng, rank)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("shape", [(0, 2), (18, 2), (3, 2), (6, 3), (5, 4, 1), (4,), ()])
def test_isometry_kraus_rejects_draws_of_no_rank_in_range(shape):
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        channels.isometry_kraus(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_isometry_kraus_members_have_their_one_member_bits(rank):
    g = np.random.default_rng(rank).normal(size=(2, 3, 40, 2 * rank, 2))
    z = g[0] + 1j * g[1]
    stack = channels.isometry_kraus(z)
    assert stack.shape == (3, 40, rank, 2, 2)
    for at in np.ndindex(3, 40):
        assert stack[at].tobytes() == channels.isometry_kraus(z[at]).tobytes()


def test_isometry_stack_is_one_decomposition_per_rank(monkeypatch):
    rng = np.random.default_rng(8)
    ranks = rng.integers(1, 5, size=60).tolist()
    draws = [rng.normal(size=(2, 2 * r, 2)) for r in ranks]
    replay = np.random.default_rng(8)
    replay.integers(1, 5, size=60)
    singles = [channels.random_kraus(replay, r) for r in ranks]
    calls = []
    real = channels.isometry_kraus
    monkeypatch.setattr(channels, "isometry_kraus", lambda g: calls.append(g.shape) or real(g))
    stack = channels.isometry_stack(draws)
    assert calls == [(ranks.count(r), 2 * r, 2) for r in (1, 2, 3, 4)]
    assert stack.shape == (60, 4, 2, 2)
    for member, ops in zip(stack, singles):
        assert member[:len(ops)].tobytes() == ops.tobytes() and not member[len(ops):].any()
    assert channels.isometry_stack([]).shape == (0, 1, 2, 2)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_identity(rng):
    ch = validate([I2])
    x = random_density(rng, 2)
    assert np.allclose(apply(ch, x), x)


def test_apply_full_dephasing_kills_coherence():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = apply(validate(dephasing_kraus(0.5)), plus)
    assert np.allclose(out, I2 / 2)


def test_apply_full_amplitude_decay():
    # damping with p = 1 maps everything to the ground state
    adc = validate([np.array([[1, 0], [0, 0]], dtype=complex),
                    np.array([[0, 1], [0, 0]], dtype=complex)])
    out = apply(adc, I2 / 2)
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_apply_trace_preserving(rng):
    for rank in (1, 2, 3, 4):
        ch = validate(random_kraus(rng, rank))
        x = random_density(rng, 2)
        assert abs(np.trace(apply(ch, x)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# apply_to_bob / choi
# ---------------------------------------------------------------------------

def test_apply_to_bob_identity():
    bell = states.bell_state(1)
    assert np.allclose(apply_to_bob(bell, validate([I2])).rho, bell.rho)


def test_apply_to_bob_dephasing_is_bell_mixture():
    p = 0.3
    out = apply_to_bob(states.bell_state(1), validate(dephasing_kraus(p)))
    expected = p * states.bell_state(1).rho + (1 - p) * states.bell_state(4).rho
    assert np.max(np.abs(out.rho - expected)) < 1e-14


def test_apply_to_bob_rank3_example_identity():
    p = 0.6
    out = apply_to_bob(states.bell_state(1), families.example_rank3(p))
    expected = (p * states.bell_state(1).rho
                + (1 - p) * np.kron(I2 / 2, np.diag([1.0, 0.0])))
    assert np.max(np.abs(out.rho - expected)) < 1e-14


def _einsum_bob_action(rho, ks):
    """The reference: bob_action as one 3-operand einsum."""
    out = np.einsum("...kbe,...aecf,...kdf->...abcd", ks,
                    rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)), ks.conj())
    return out.reshape(out.shape[:-4] + (4, 4))


@pytest.mark.parametrize("rank", range(1, 9))
def test_bob_action_members_keep_their_bits_in_any_layout(rng, rank):
    # on one shared rho and on a stack of them, a Kraus stack in C order,
    # Fortran order or strided gives the same bits, each member those of its
    # one-member call, within 1e-15 of the einsum; the result is C-ordered,
    # which the bits of later stacked reductions depend on
    stack = np.array([random_kraus(rng, rank) for _ in range(12)])
    layouts = [stack, np.asfortranarray(stack), np.repeat(stack, 2, axis=0)[::2]]
    for rho in (random_density(rng), np.array([random_density(rng) for _ in stack])):
        outs = [channels.bob_action(rho, ks) for ks in layouts]
        assert all(out.flags.c_contiguous and out.tobytes() == outs[0].tobytes() for out in outs)
        for m, member in enumerate(stack):
            alone = channels.bob_action(rho if rho.ndim == 2 else rho[m], member)
            assert alone.tobytes() == outs[0][m].tobytes()
        assert np.max(np.abs(outs[0] - _einsum_bob_action(rho, stack))) <= 1e-15


def _isometry_kraus(rng, k, skew=0.0):
    """k random complex Kraus operators with sum K^dag K = diag(1 + skew, 1 - skew)."""
    g = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
    return np.linalg.qr(g)[0].reshape(k, 2, 2) @ np.diag(np.sqrt([1.0 + skew, 1.0 - skew]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(1, 8), min_size=1, max_size=4),
       kind=st.sampled_from(["bell", "pure", "matched", "mixed"]), stacked=st.booleans())
def test_final_correlations_match_the_literal_final_state(seed, counts, kind, stacked):
    # random complex Kraus operators involve sigma_y, so a wrong transpose
    # sign shows; the last list's completeness residual is just under
    # EPS_COMPLETE and not a multiple of I, so its final trace depends on
    # Bob's Bloch vector and a missing division by that trace shows too
    rng = np.random.default_rng(seed)
    lists = [_isometry_kraus(rng, k) for k in counts[:-1]]
    lists.append(_isometry_kraus(rng, counts[-1], 0.9 * channels.EPS_COMPLETE))

    def draw():
        if kind == "bell":
            return states.bell_state(int(rng.integers(1, 5))).rho
        if kind == "pure":
            return states.pure_state(float(rng.uniform(0.5, 0.99))).rho
        if kind == "matched":
            return states.pure_densities_from_concurrence([rng.uniform(0.05, 1.0)])[0]
        return states.from_density(acceptance._random_density_matrix(rng)).rho

    rho = np.array([draw() for _ in lists]) if stacked else draw()
    _, choi_stack, ranks, errors, _, _ = channels.validate_stack(kraus_stack(lists))
    assert errors == [None] * len(lists) and all(type(rank) is int for rank in ranks)
    got = channels.final_correlations(rho, states.pauli_coefficients(choi_stack))
    for m, kraus in enumerate(lists):
        literal = states.from_density(channels.bob_action(rho[m] if stacked else rho, kraus))
        assert np.max(np.abs(got[m] - literal.hs.t_mat)) <= 1e-12


def test_choi_identity_is_bell():
    assert np.allclose(choi(validate([I2])).rho, states.bell_state(1).rho)


def test_choi_depolarizing_correlations():
    p = 0.3
    ch = families.noise_channel("depolarizing_m", p=p)
    c = 1 - 4 * p / 3
    assert np.allclose(choi(ch).hs.t_mat, np.diag([c, -c, c]), atol=1e-12)


def test_choi_gadc_nonunital_local_vector():
    st = choi(families.gadc(0.5, 1.0))
    assert np.linalg.norm(st.hs.s_vec) > 0.1
    assert np.allclose(st.hs.r_vec, 0, atol=1e-12)  # Alice stays maximally mixed


def test_choi_alice_marginal_always_mixed(rng):
    for rank in (1, 2, 3, 4):
        st = choi(validate(random_kraus(rng, rank)))
        assert np.allclose(linalg.partial_trace(st.rho, keep=1), I2 / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_dephasing():
    rep = report(validate(dephasing_kraus(0.3)))
    assert rep.unital and rep.choi_rank == 2
    assert completeness_residual(rep.channel.kraus) < 1e-14


def test_report_rank3_example():
    rep = report(families.example_rank3(0.6))
    assert not rep.unital and rep.choi_rank == 3


def test_report_gadc_unital_at_half():
    rep = report(families.gadc(0.5, 0.5))
    assert rep.unital  # gamma (2N - 1) = 0


def test_unital_choi_has_both_marginals_mixed(rng):
    for _ in range(10):
        w = rng.dirichlet(np.ones(4))
        ch = families.pauli_mixture(*w)
        u = random_unitary(rng, len(ch.kraus))
        mixed = rotate_kraus(ch, u)
        st = choi(mixed)
        assert np.allclose(linalg.partial_trace(st.rho, keep=1), I2 / 2, atol=1e-10)
        assert np.allclose(linalg.partial_trace(st.rho, keep=2), I2 / 2, atol=1e-10)


# ---------------------------------------------------------------------------
# rotate_kraus
# ---------------------------------------------------------------------------

def _same_action(a, b, tol=1e-12):
    return all(np.max(np.abs(apply(a, sig) - apply(b, sig))) < tol for sig in SIGMA)


def test_rotate_identity_mixing():
    ch = validate(dephasing_kraus(0.3))
    assert _same_action(ch, rotate_kraus(ch, np.eye(2)))


def test_rotate_hadamard_dephasing():
    ch = validate(dephasing_kraus(0.5))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mixed = rotate_kraus(ch, h)
    assert np.allclose(mixed.kraus[0], (I2 + SZ) / 2)
    assert np.allclose(mixed.kraus[1], (I2 - SZ) / 2)
    assert _same_action(ch, mixed)


def test_rotate_permutation():
    ch = validate(dephasing_kraus(0.3))
    perm = np.array([[0, 1], [1, 0]], dtype=float)
    assert _same_action(ch, rotate_kraus(ch, perm))


def test_rotate_padding_with_zero_operators(rng):
    ch = validate(dephasing_kraus(0.3))
    u = random_unitary(rng, 4)
    assert _same_action(ch, rotate_kraus(ch, u))


def test_rotate_random_unitary(rng):
    for rank in (2, 3, 4):
        ch = validate(random_kraus(rng, rank))
        assert _same_action(ch, rotate_kraus(ch, random_unitary(rng, rank)))


def test_rotate_rejects_non_unitary():
    ch = validate(dephasing_kraus(0.3))
    with pytest.raises(ValueError, match="unitary"):
        rotate_kraus(ch, np.array([[1, 0], [0, 2.0]]))
    with pytest.raises(ValueError, match="smaller"):
        rotate_kraus(validate(random_kraus(np.random.default_rng(0), 3)), np.eye(2))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rotate_rejects_non_finite_mixing(value):
    # a NaN matrix passes max|W^dag W - I| > tol (NaN compares False), and an
    # inf one warns in the product: both are rejected before it
    ch = families.gadc(0.3, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mixing matrix has non-finite entries"):
            rotate_kraus(ch, np.full((4, 4), value))


# ---------------------------------------------------------------------------
# orthogonalize
# ---------------------------------------------------------------------------

def test_orthogonalize_strips_redundancy():
    padded = validate([I2, np.zeros((2, 2)), np.zeros((2, 2))])
    reduced = orthogonalize(padded)
    assert len(reduced.kraus) == 1
    assert np.allclose(np.abs(reduced.kraus[0]), I2)


def test_orthogonalize_dephasing_gives_pauli_pair():
    # weight 0.3 on I and 0.7 on sigma_3: the reduced pair comes back in
    # descending Choi-eigenvalue order with deterministic phases
    reduced = orthogonalize(validate(dephasing_kraus(0.3)))
    assert len(reduced.kraus) == 2
    assert np.allclose(reduced.kraus[0], np.sqrt(0.7) * SZ)
    assert np.allclose(reduced.kraus[1], np.sqrt(0.3) * I2)


def test_orthogonalize_gadc():
    # the four damping operators are not orthogonal; the rebuilt set is
    ch = families.gadc(0.5, 0.7)
    ortho = orthogonalize(ch)
    assert len(ortho.kraus) == 4
    for i in range(4):
        for j in range(i):
            assert abs(np.trace(ortho.kraus[i].conj().T @ ortho.kraus[j])) < 1e-10
    assert _same_action(ch, ortho, tol=1e-10)


def test_orthogonalize_gram_matches_choi_eigenvalues():
    ch = families.gadc(0.5, 0.7)
    ortho = orthogonalize(ch)
    eigs = linalg.hermitian_eig(channels.choi_matrix(ch.kraus)).eigenvalues
    grams = sorted((np.trace(k.conj().T @ k).real for k in ortho.kraus), reverse=True)
    assert np.allclose(grams, 2 * eigs[:4], atol=1e-10)


def test_choi_round_trip_random_channels(rng):
    for rank in (1, 2, 3, 4):
        for _ in range(5):
            ch = validate(random_kraus(rng, rank))
            assert _same_action(ch, orthogonalize(ch), tol=1e-10)


# ---------------------------------------------------------------------------
# rank-based teleportation facts
# ---------------------------------------------------------------------------

def test_rank1_choi_always_uqt(rng):
    for _ in range(20):
        ch = validate([random_unitary(rng)])
        assert states.profile(choi(ch)).uqt


def test_rank2_choi_never_uqt(rng):
    for _ in range(50):
        ch = validate(random_kraus(rng, 2))
        assert not states.profile(choi(ch)).uqt


def test_concurrence_monotone_under_channels(rng):
    for _ in range(40):
        st = states.from_density(random_density(rng))
        ch = validate(random_kraus(rng, int(rng.integers(1, 5))))
        assert states.concurrence(apply_to_bob(st, ch)) <= states.concurrence(st) + 1e-10


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_round_trip_bit_exact(rng):
    ch = validate(random_kraus(rng, 3), name="random", params={"alpha": 0.1234567890123456})
    doc = channel_to_json(ch)
    back = channel_from_json(doc)
    assert back.name == ch.name
    assert back.params == ch.params
    for a, b in zip(back.kraus, ch.kraus):
        assert np.array_equal(a, b)  # bit-exact floats through JSON


def test_json_schema_shape():
    doc = json.loads(channel_to_json(families.dephasing(0.25)))
    assert set(doc) == {"name", "kraus", "params"}
    assert len(doc["kraus"][0]) == 4 and len(doc["kraus"][0][0]) == 2


def test_json_rejects_malformed():
    with pytest.raises(ChannelValidationError):
        channel_from_json("not json at all {")
    with pytest.raises(ChannelValidationError):
        channel_from_json(json.dumps({"name": "x", "kraus": [[[1.0]]]}))
    # structurally fine but not a channel
    bad = {"name": "x", "kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}
    with pytest.raises(ChannelValidationError, match="completeness"):
        channel_from_json(json.dumps(bad))


_IDENTITY = [[[1, 0], [0, 0], [0, 0], [1, 0]]]
_KRAUS_DOCS = st.one_of(
    st.just(_IDENTITY),
    st.lists(st.lists(st.lists(JSON_NUMBERS | NUMBER_LOOKALIKES | JSON_SCALARS, min_size=2,
                               max_size=2) | JSON_VALUES,
                      min_size=3, max_size=5) | JSON_VALUES, max_size=2),
    JSON_VALUES)
CHANNEL_DOCS = st.one_of(JSON_VALUES, st.fixed_dictionaries(
    {"kraus": _KRAUS_DOCS},
    optional={"name": JSON_VALUES,
              "params": st.dictionaries(st.text(max_size=2),
                                        JSON_NUMBERS | NUMBER_LOOKALIKES | JSON_VALUES, max_size=2)
              | JSON_VALUES}))


@settings(max_examples=200, deadline=None)
@given(CHANNEL_DOCS)
def test_channel_documents_end_in_a_channel_or_a_validation_error(doc):
    try:
        ch = channels.channel_from_jsonable(doc)
    except ChannelValidationError:
        return
    assert all(isinstance(v, float) and np.isfinite(v) for v in ch.params.values())
    numbers = [*doc.get("params", {}).values(), *(x for entry in doc["kraus"]
                                                  for pair in entry for x in pair)]
    assert all(type(x) in (int, float) for x in numbers)  # JSON numbers, not bools or strings
    assert isinstance(doc.get("name", ""), str)
    json.dumps(channels.channel_to_jsonable(ch), allow_nan=False)


@pytest.mark.parametrize("doc,message", [
    ([], "expected a JSON object, got list"),
    (None, "expected a JSON object, got NoneType"),
    (3.5, "expected a JSON object, got float"),
    ({"kraus": _IDENTITY, "params": {"x": 10**400}}, "too large"),
    ({"kraus": _IDENTITY, "params": {"x": float("nan")}}, "params must be finite, got {'x': nan}"),
    ({"kraus": _IDENTITY, "params": {"x": float("inf")}}, "params must be finite, got {'x': inf}"),
    ({"kraus": [[[10**400, 0], [0, 0], [0, 0], [1, 0]]]}, "too large"),
])
def test_json_rejects_outside_documents(doc, message):
    with pytest.raises(ChannelValidationError, match=message):
        channels.channel_from_jsonable(doc)
