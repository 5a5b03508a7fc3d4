import gc
import json

import numpy as np
import pytest

from uqtchan import channels, families, linalg, states
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

from conftest import random_density, random_kraus, random_unitary

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
    assert ch.choi_rank == report(ch).choi_rank == choi(ch).eig.rank() == 4
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
            and kraus.shape[1:] == (2, 2) and not kraus.flags.writeable)


def test_kraus_is_one_read_only_stack(rng):
    ch = validate(dephasing_kraus(0.3))
    rebuilt = channels.kraus_from_choi(channels.choi_matrix(ch.kraus))
    assert isinstance(rebuilt, np.ndarray) and rebuilt.shape == (2, 2, 2)
    for c in (ch, orthogonalize(families.gadc(0.5, 0.7)), rotate_kraus(ch, random_unitary(rng, 3)),
              validate(rebuilt)):
        assert _is_kraus_stack(c.kraus), c


def test_validate_stack_matches_validate(rng):
    # each member of a stack of lists of different k is accepted or rejected
    # as validate alone accepts or rejects it, with the same rank or message
    lists = [
        random_kraus(rng, 4), dephasing_kraus(0.3), [I2], random_kraus(rng, 3),
        [1.01 * I2],  # completeness violated
        [],  # no operators
        [I2 / 3.0] * 9,  # too many operators
        [np.full((2, 2), np.nan)],  # non-finite
        [I2, np.eye(3)],  # ragged
        np.zeros((2, 3, 3)),  # not 2x2
        list(random_kraus(rng, 2)) + [np.zeros((2, 2))],  # an explicit zero operator
    ]
    stack, outcomes = channels.validate_stack(lists)
    assert stack.shape == (len(lists), 4, 2, 2) and not stack.flags.writeable
    assert [out if type(out) is int else None for out in outcomes] == \
        [4, 2, 1, 3, None, None, None, None, None, None, 2]
    for member, kraus, out in zip(stack, lists, outcomes):
        try:
            ch = validate(kraus)
        except ChannelValidationError as exc:
            assert isinstance(out, ChannelValidationError)
            assert (str(out), out.residual) == (str(exc), exc.residual)
            continue
        k = len(ch.kraus)
        assert out == ch.choi_rank
        assert member[:k].tobytes() == ch.kraus.tobytes() and not member[k:].any()
    assert channels.validate_stack([])[1] == []


def test_validation_errors_leave_no_reference_cycle():
    # a rejected member's error must not hold the call's frame, and with it
    # the whole stack, in a cycle that only the cyclic collector frees
    lists = [[], [I2], [np.eye(3)], [2.0 * I2]]
    assert [type(out) for out in channels.validate_stack(lists)[1]] == \
        [ChannelValidationError, int, ChannelValidationError, ChannelValidationError]
    gc.collect()
    gc.disable()
    try:
        channels.validate_stack(lists)
        for kraus in lists[::2]:
            try:
                validate(kraus)
            except ChannelValidationError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    assert channels.completeness_residual(rep.channel.kraus) < 1e-14


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
