import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtchan import channels, families, linalg, states
from uqtchan.channels import ChannelValidationError
from uqtchan.families import (
    FAMILIES,
    canonical_nonunital_choi,
    lambda_star_gamma,
    lambda_star_nu,
    lambda_tilde_nu,
    lambda_tilde_p2_max,
    lambda_u4,
    lambda_u4_weights,
    noise_channel,
    pauli_mixture,
    uqt_nonunital_rank3,
    uqt_nonunital_rank4,
    uqt_unital_for_pure,
    werner,
)
from uqtchan.linalg import I2, SZ

from conftest import completeness_residual, unitality_residual

S5 = np.sqrt(5.0)


def bell_output_profile(ch):
    return states.profile(channels.apply_to_bob(states.bell_state(1), ch))


def matched_output_profile(ch, c):
    st = states.pure_state_from_concurrence(c)
    return states.profile(channels.apply_to_bob(st, ch))


# ---------------------------------------------------------------------------
# Pauli mixtures
# ---------------------------------------------------------------------------

def test_pauli_mixture_identity():
    ch = pauli_mixture(1, 0, 0, 0)
    assert len(ch.kraus) == 1
    assert np.allclose(ch.kraus[0], I2)


def test_pauli_mixture_werner_is_uqt():
    prof = bell_output_profile(werner(0.8))
    assert prof.uqt and prof.f_max == pytest.approx(13 / 15, abs=1e-12)


def test_pauli_mixture_bell_diagonal_not_uqt():
    prof = bell_output_profile(pauli_mixture(0.5, 0.3, 0.2, 0))
    assert prof.useful is False or prof.universal is False
    assert not prof.uqt


def test_pauli_mixture_rejects_bad_weights():
    with pytest.raises(ValueError, match="p0 must lie in"):
        pauli_mixture(1.2, -0.2, 0, 0)
    with pytest.raises(ValueError, match="sum to 1"):
        pauli_mixture(0.5, 0.2, 0.2, 0.2)


# ---------------------------------------------------------------------------
# unital constructions for pure inputs
# ---------------------------------------------------------------------------

def test_uqt_unital_for_pure_correlation_value():
    # all three correlation magnitudes equal (4 p0 - 1) c / (2 + c)
    c, p0 = 0.8, 0.8
    prof = matched_output_profile(uqt_unital_for_pure(c, p0), c)
    expected = (4 * p0 - 1) * c / (2 + c)
    assert np.allclose(prof.abs_t, expected, atol=1e-12)
    assert prof.uqt


def test_uqt_unital_for_pure_boundary_excluded():
    c = 0.6
    with pytest.raises(ValueError, match="p0 must lie in"):
        uqt_unital_for_pure(c, (1 + 2 * c) / (6 * c))


def test_uqt_unital_for_pure_narrow_window():
    ch = uqt_unital_for_pure(0.51, 0.67)  # window is (0.6601, 0.6711]
    assert matched_output_profile(ch, 0.51).uqt
    with pytest.raises(ValueError, match="p0 must lie in"):
        uqt_unital_for_pure(0.51, 0.68)


def test_uqt_unital_for_pure_needs_large_concurrence():
    with pytest.raises(ValueError, match="c must lie in"):
        uqt_unital_for_pure(0.45, 0.9)


def test_lambda_u4_weights_and_validity():
    w = lambda_u4_weights(0.7)
    assert sum(w) == pytest.approx(1.0, abs=1e-14)
    ch = lambda_u4(0.7)
    assert channels.report(ch).choi_rank == 4
    prof = matched_output_profile(ch, 0.7)
    assert prof.f_max == pytest.approx((3 + 4 * 0.7) / (6 + 3 * 0.7), abs=1e-12)
    assert prof.delta <= 1e-12


def test_lambda_u4_rejected_below_half():
    with pytest.raises(ChannelValidationError, match="negative"):
        lambda_u4(0.4)


def test_lambda_u4_negative_weight_matrix_not_psd():
    # the would-be Choi matrix of the p = 0.4 operator set has a negative
    # eigenvalue, so the set describes no CPTP map
    w = lambda_u4_weights(0.4)
    assert w[3] < 0
    choi = sum(wi * states.bell_state(k).rho for wi, k in zip(w, (1, 2, 3, 4)))
    assert np.linalg.eigvalsh(choi)[0] < -1e-10


def test_lambda_u2_is_dephasing_law():
    # the rank-2 unital family is plain dephasing: deviation never vanishes
    for p in (0.2, 0.5, 0.8):
        for c in (0.3, 0.7, 0.95):
            prof = matched_output_profile(families.dephasing(p), c)
            f_ref = (2 + c * abs(2 * p - 1)) / 3
            d_ref = (1 - c * abs(2 * p - 1)) / (3 * S5)
            assert prof.f_max == pytest.approx(f_ref, abs=1e-12)
            assert prof.delta == pytest.approx(d_ref, abs=1e-12)
            assert not prof.uqt


# ---------------------------------------------------------------------------
# non-unital UQT-preserving families
# ---------------------------------------------------------------------------

def printed_rank4_kraus(s1, s2, s3, t):
    """Literal transcription of the published component formulas (open region)."""
    s = np.sqrt(s1 * s1 + s2 * s2 + s3 * s3)
    r = np.sqrt(s * s + 4 * t * t)
    x0 = ((2 * t - s3 + r) / (2 * np.sqrt(2))) * np.sqrt((1 + t + r) / (s * s + 2 * t * (2 * t + r)))
    x1 = (1 / (2 * np.sqrt(2))) * np.sqrt((s * s - s3 * s3) * (1 + s - t)) / s
    x2 = ((s3 - 2 * t + r) / (2 * np.sqrt(2))) * np.sqrt((1 + t - r) / (s * s + 2 * t * (2 * t - r)))
    x3 = (1 / (2 * np.sqrt(2))) * np.sqrt((s * s - s3 * s3) * (1 - s - t)) / s
    k0 = x0 * np.array([
        [(1j * s1 + s2) / (s3 - 2 * t - r),
         1j * (s * s + s3 * (s3 + 2 * r)) / (s * s - s3 * s3 + 4 * s3 * t)],
        [-1j, (1j * s1 - s2) / (-s3 + 2 * t + r)]])
    k1 = x1 * np.array([
        [-1j * (s + s3) / (s1 + 1j * s2), -1j],
        [-1j, 1j * (s3 - s) / (s1 - 1j * s2)]])
    k2 = x2 * np.array([
        [(1j * s1 + s2) / (s3 - 2 * t + r),
         1j * (s * s + s3 * (s3 - 2 * r)) / (s * s - s3 * s3 + 4 * s3 * t)],
        [-1j, (-1j * s1 + s2) / (s3 - 2 * t + r)]])
    k3 = x3 * np.array([
        [(1j * s1 + s2) / (s + s3), -1j],
        [-1j, 1j * (s + s3) / (s1 - 1j * s2)]])
    return [k0, k1, k2, k3]


def printed_rank3_kraus(theta, phi, t):
    r = 1 - t
    root = np.sqrt(r * r + 4 * t * t)
    ct, st_ = np.cos(theta), np.sin(theta)
    y0 = (2 * t - r * ct + root) / (2 * np.sqrt(2)) * np.sqrt(
        (1 + t + root) / (r * r + 2 * t * (2 * t + root)))
    y1 = st_ * np.sqrt(r) / 2
    y2 = (r * ct - 2 * t + root) / (2 * np.sqrt(2)) * np.sqrt(
        (1 + t - root) / (r * r + 2 * t * (2 * t - root)))
    den = r * r * st_ * st_ + 4 * t * r * ct
    k0 = y0 * np.array([
        [1j * r * st_ * np.exp(-1j * phi) / (r * ct - 2 * t - root),
         1j * (r * r * (1 + ct * ct) + 2 * r * ct * root) / den],
        [-1j, 1j * r * st_ * np.exp(1j * phi) / (-r * ct + 2 * t + root)]])
    k1 = y1 * np.array([
        [-1j * (1 + ct) / (st_ * np.exp(1j * phi)), -1j],
        [-1j, -1j * (1 - ct) / (st_ * np.exp(-1j * phi))]])
    k2 = y2 * np.array([
        [1j * r * st_ * np.exp(-1j * phi) / (r * ct - 2 * t + root),
         1j * (r * r * (1 + ct * ct) - 2 * r * ct * root) / den],
        [-1j, -1j * r * st_ * np.exp(1j * phi) / (r * ct - 2 * t + root)]])
    return [k0, k1, k2]


def test_rank4_family_profile():
    ch = uqt_nonunital_rank4(0.1, 0.1, 0.1, 0.5)
    rep = channels.report(ch)
    prof = states.profile(rep.choi)
    assert not rep.unital and rep.choi_rank == 4
    assert prof.f_max == pytest.approx(0.75, abs=1e-12)
    assert prof.delta <= 1e-12
    assert prof.uqt


@pytest.mark.parametrize("build,args", [
    (uqt_nonunital_rank4, (0.05, -0.1, 0.2, 0.6)),
    (uqt_nonunital_rank3, (0.7, 2.1, 0.5)),
])
def test_uqt_families_orthogonal_and_complete(build, args):
    ch = build(*args)
    assert completeness_residual(ch.kraus) < 1e-10
    for i in range(len(ch.kraus)):
        for j in range(i):
            assert abs(np.trace(ch.kraus[i].conj().T @ ch.kraus[j])) < 1e-10


def test_rank4_family_region_errors():
    with pytest.raises(ValueError, match=r"\|s\| must lie"):
        uqt_nonunital_rank4(0.3, 0.4, 0.0, 0.5)  # |s| = 0.5 = 1 - t
    with pytest.raises(ValueError, match="t must lie"):
        uqt_nonunital_rank4(0.1, 0.0, 0.0, 0.2)
    with pytest.raises(ValueError, match=r"\|s\| must lie"):
        uqt_nonunital_rank4(0.0, 0.0, 0.0, 0.5)  # unital point excluded


def test_rank4_family_axis_degeneracy_is_regular():
    ch = uqt_nonunital_rank4(0.0, 0.0, 0.2, 0.5)  # s1 = s2 = 0 axis
    rep = channels.report(ch)
    assert rep.choi_rank == 4 and not rep.unital
    assert states.profile(rep.choi).uqt


@pytest.mark.parametrize("s1,s2,s3,t", [
    (0.1, 0.1, 0.1, 0.5),
    (0.05, -0.1, 0.2, 0.6),
    (0.2, 0.05, -0.1, 0.4),
])
def test_rank4_family_matches_printed_forms(s1, s2, s3, t):
    printed = printed_rank4_kraus(s1, s2, s3, t)
    ch = uqt_nonunital_rank4(s1, s2, s3, t)
    # per-operator phases differ, the channel (Choi matrix) does not
    diff = np.max(np.abs(channels.choi_matrix(printed) - channels.choi_matrix(ch.kraus)))
    assert diff < 1e-12


def test_rank3_family_profile():
    ch = uqt_nonunital_rank3(np.pi / 3, np.pi / 4, 0.6)
    rep = channels.report(ch)
    prof = states.profile(rep.choi)
    assert not rep.unital and rep.choi_rank == 3
    assert np.allclose(prof.abs_t, 0.6, atol=1e-12)
    assert prof.f_max == pytest.approx(0.8, abs=1e-12)
    assert prof.delta <= 1e-12


def test_rank3_family_near_classical_edge():
    prof = states.profile(channels.choi(uqt_nonunital_rank3(1.0, 2.0, 0.34)))
    assert prof.f_max == pytest.approx(0.67, abs=1e-12)
    assert prof.uqt


def test_rank3_family_poles_are_regular():
    for theta in (0.0, np.pi):
        rep = channels.report(uqt_nonunital_rank3(theta, 0.7, 0.5))
        assert rep.choi_rank == 3 and not rep.unital


def test_rank3_family_range_error():
    with pytest.raises(ValueError, match="t must lie"):
        uqt_nonunital_rank3(0.3, 0.3, 1.0)


@pytest.mark.parametrize("theta,phi,t", [
    (np.pi / 3, np.pi / 4, 0.6),
    (0.4, 2.0, 0.5),
    (2.0, 5.5, 0.4),
    (np.pi / 2, 1.0, 0.45),
])
def test_rank3_family_matches_printed_forms(theta, phi, t):
    printed = printed_rank3_kraus(theta, phi, t)
    ch = uqt_nonunital_rank3(theta, phi, t)
    diff = np.max(np.abs(channels.choi_matrix(printed) - channels.choi_matrix(ch.kraus)))
    assert diff < 1e-12


def canonical_choi_eigenvalues(s_norm, t):
    """Closed-form spectrum (q0 > q1 > q2 > q3) of the canonical Choi matrix."""
    root = np.sqrt(s_norm * s_norm + 4.0 * t * t)
    return ((1.0 + t + root) / 4.0, (1.0 + s_norm - t) / 4.0,
            (1.0 + t - root) / 4.0, (1.0 - s_norm - t) / 4.0)


def test_canonical_choi_eigenvalue_ordering(rng):
    # strict ordering q0 > q1 > q2 > q3 across the admissible region
    for _ in range(200):
        t = float(rng.uniform(1 / 3 + 1e-3, 1 - 1e-3))
        s = float(rng.uniform(1e-3, (1 - t) * 0.999))
        q = canonical_choi_eigenvalues(s, t)
        assert q[0] > q[1] > q[2] > q[3] >= -1e-15
        direction = rng.normal(size=3)
        rho = canonical_nonunital_choi(s * direction / np.linalg.norm(direction), t)
        assert np.allclose(linalg.hermitian_eig(rho).eigenvalues, q, atol=1e-12)
        # the three gaps printed for the spectrum
        assert 2 * t + np.sqrt(s * s + 4 * t * t) - s > 0
        assert s + np.sqrt(s * s + 4 * t * t) - 2 * t > 0
        assert s + 2 * t - np.sqrt(s * s + 4 * t * t) > 0


# ---------------------------------------------------------------------------
# named examples
# ---------------------------------------------------------------------------

def test_example_rank4_uqt_values():
    prof = states.profile(channels.choi(families.example_rank4_uqt()))
    assert prof.f_max == pytest.approx(0.75, abs=1e-12)
    assert prof.delta <= 1e-12 and prof.uqt


def test_example_rank3_universal_only_values():
    ch = families.example_rank3_universal_only()
    rep = channels.report(ch)
    prof = states.profile(rep.choi)
    assert rep.choi_rank == 3 and not rep.unital
    assert prof.f_max == pytest.approx(11 / 20, abs=1e-12)
    assert prof.delta <= 1e-12
    assert prof.universal and not prof.useful


def test_example_rank3_universal_only_is_canonical_point():
    # the fixed example sits at s = (0.9, 0, 0), t = 0.1 of the canonical form
    ch = families.example_rank3_universal_only()
    rho = canonical_nonunital_choi((0.9, 0.0, 0.0), 0.1)
    rebuilt = channels.kraus_from_choi(rho, rank=3)
    diff = np.max(np.abs(channels.choi_matrix(ch.kraus) - channels.choi_matrix(rebuilt)))
    assert diff < 1e-12


def test_example_rank3_fidelity_law():
    for p in (0.2, 0.4, 0.6, 0.9):
        prof = states.profile(channels.choi(families.example_rank3(p)))
        assert prof.f_max == pytest.approx((1 + p) / 2, abs=1e-12)
        assert prof.delta <= 1e-12
        assert prof.useful == (p > 1 / 3)


# ---------------------------------------------------------------------------
# lambda_tilde_nu / lambda_star_nu
# ---------------------------------------------------------------------------

def test_lambda_tilde_fidelity_law(rng):
    for _ in range(20):
        p1 = float(rng.uniform(0.05, 0.95))
        p2 = float(rng.uniform(1e-3, lambda_tilde_p2_max(p1) * 0.999))
        prof = matched_output_profile(lambda_tilde_nu(p1, p2), p1)
        assert prof.f_max == pytest.approx((1 + p2 * p1) / 2, abs=1e-10)
        assert prof.delta <= 1e-10


def test_lambda_tilde_nonunital():
    ch = lambda_tilde_nu(0.6, 0.5)
    assert unitality_residual(ch.kraus) > 1e-3


def test_lambda_tilde_region_errors():
    hi = lambda_tilde_p2_max(0.6)
    with pytest.raises(ValueError, match="p2 must lie"):
        lambda_tilde_nu(0.6, hi)
    with pytest.raises(ValueError, match="p1 must lie"):
        lambda_tilde_nu(1.0, 0.1)


def test_lambda_star_gamma_and_law():
    # frozen from the closed forms: gamma(0.6) and the matched fidelity
    g = lambda_star_gamma(0.6)
    assert g == pytest.approx(0.2709385763545744, abs=1e-12)
    ch = lambda_star_nu(0.6)
    prof = matched_output_profile(ch, 0.6)
    u = np.sqrt(1 - 0.36)
    f_ref = (3 - u + np.sqrt(3 * 0.36 - 2 + 2 * u)) / 4
    assert prof.f_max == pytest.approx(f_ref, abs=1e-12)
    assert prof.delta <= 1e-12


def test_lambda_star_deviation_free_for_all_concurrences(rng):
    for _ in range(20):
        c = float(rng.uniform(0.05, 0.95))
        prof = matched_output_profile(lambda_star_nu(c), c)
        assert prof.delta <= 1e-10
        assert prof.uqt == (c > np.sqrt(5 - 2 * np.sqrt(3)) / 3)


# ---------------------------------------------------------------------------
# noise catalog
# ---------------------------------------------------------------------------

def test_unruh_kraus_verbatim():
    r = np.pi / 5
    ch = noise_channel("unruh", r=r)
    assert np.allclose(ch.kraus[0], np.diag([np.cos(r), 1.0]))
    assert np.allclose(ch.kraus[1], [[0, 0], [np.sin(r), 0]])
    assert not channels.report(ch).unital


def test_dephasing_m_kraus_ordering():
    ch = noise_channel("dephasing_m", p=0.3)
    assert np.allclose(ch.kraus[0], np.sqrt(0.7) * I2)  # identity term first
    assert np.allclose(ch.kraus[1], np.sqrt(0.3) * SZ)


def test_rtn_probability_law():
    g, omega, t = 1.0, 0.5, 0.3
    ch = noise_channel("rtn_nm", g=g, omega=omega, t=t)
    expected = np.exp(-g * t) * (np.cos(g * omega * t) + np.sin(g * omega * t) / omega)
    assert ch.params["p"] == pytest.approx(expected, abs=1e-15)


#: the seven time-law rows: an in-range point and the documented law p(params)
TIME_LAWS = {
    "adc_m": ({"gamma": 0.7, "t": 1.3}, lambda gamma, t: 1 - np.exp(-gamma * t)),
    "pln_m": ({"G": 0.7, "t": 1.3}, lambda G, t: np.exp(-G * t)),
    "oun_m": ({"G": 0.7, "t": 1.3}, lambda G, t: np.exp(-G * t / 2)),
    "adc_nm": ({"R": 1.0, "gamma": 0.5, "omega0": 2.0, "g": 0.8, "t": 1.2},
               lambda R, gamma, omega0, g, t:
               1 - np.exp(-2 * R * gamma / (omega0 / np.tanh(g * omega0 * t / 2) + 1))),
    "pln_nm": ({"G": 1.5, "g": 0.4, "t": 0.9},
               lambda G, g, t: np.exp(-G * t * (g * t + 2) / (2 * (g * t + 1) ** 2))),
    "oun_nm": ({"G": 1.5, "g": 0.4, "t": 0.9},
               lambda G, g, t: np.exp(-G * ((np.exp(-g * t) - 1) / g + t) / 2)),
    "rtn_nm": ({"g": 0.8, "omega": 1.5, "t": 0.4},
               lambda g, omega, t:
               np.exp(-g * t) * (np.cos(g * omega * t) + np.sin(g * omega * t) / omega)),
}


@pytest.mark.parametrize("family_id", sorted(TIME_LAWS))
def test_time_law_rows_record_their_law(family_id):
    params, law = TIME_LAWS[family_id]
    # passed in reverse order; the channel records them in spec order, then p
    ch = noise_channel(family_id, **dict(reversed(params.items())))
    names = [spec.name for spec in FAMILIES[family_id].params]
    assert list(ch.params) == names + ["p"]
    assert [ch.params[n] for n in names] == [params[n] for n in names]
    assert 0.0 < ch.params["p"] < 1.0
    assert ch.params["p"] == pytest.approx(law(**params), rel=0.0, abs=1e-15)


def test_rtn_rejects_unphysical_oscillation():
    # g w t = pi makes the law negative
    with pytest.raises(ValueError, match="outside"):
        noise_channel("rtn_nm", g=0.1, omega=5.0, t=2 * np.pi)


def test_time_law_overflow_is_a_value_error():
    # (g t + 1)**2 overflows a Python float
    with pytest.raises(ValueError, match=r"^pln_nm: derived p\(t\) overflows"):
        noise_channel("pln_nm", G=1.0, g=1e100, t=1e100)


@pytest.mark.parametrize("params", [
    {"C": 0.5, "p1": 0.6, "p2": 0.3},
    {"p1": 0.6, "C": 0.5, "p2": 0.3},
], ids=["alias first", "parameter first"])
def test_concurrence_alias_and_its_parameter_collide(params):
    with pytest.raises(ValueError, match="^lambda_tilde_nu: C and p1 both set p1$"):
        noise_channel("lambda_tilde_nu", **params)


def test_pln_nm_markovian_limit():
    # g -> 0 reproduces the Markovian law exp(-G t)
    ch = noise_channel("pln_nm", G=1.0, g=1e-9, t=0.7)
    assert ch.params["p"] == pytest.approx(np.exp(-0.7), abs=1e-8)


def test_depolarizing_nm_needs_positive_identity_weight():
    with pytest.raises(ValueError, match="3 alpha p"):
        noise_channel("depolarizing_nm", alpha=1.0, p=0.45)


def test_adc_nm_accepts_time_zero():
    ch = noise_channel("adc_nm", R=1.0, gamma=1.0, omega0=2.0, g=1.0, t=0.0)
    assert ch.params["p"] == 0.0


def test_lambda_star_matches_damping_form():
    ch = noise_channel("lambda_star_nu", p1=0.6)
    g = lambda_star_gamma(0.6)
    assert np.allclose(ch.kraus[0], np.diag([np.sqrt(1 - g), 1.0]))
    assert np.allclose(ch.kraus[1], [[0, 0], [np.sqrt(g), 0]])


def test_noise_channel_unknown_family_and_params():
    with pytest.raises(ValueError, match="unknown family"):
        noise_channel("nonexistent", p=0.1)
    with pytest.raises(ValueError, match="unknown parameter"):
        noise_channel("dephasing_m", q=0.1)
    with pytest.raises(ValueError, match="missing parameters"):
        noise_channel("adc_m", gamma=1.0)
    with pytest.raises(ValueError, match="must lie in"):
        noise_channel("dephasing_m", p=1.5)


def test_catalog_listing_covers_noise_rows():
    listed = {row["family"] for row in families.list_families()}
    assert set(families.NOISE_IDS) <= listed


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_family_random_draws_validate(family_id):
    # 200 in-range draws per family: construction must validate and report
    # the advertised unitality and Choi rank
    fam = FAMILIES[family_id]
    rng = np.random.default_rng(zlib.crc32(family_id.encode()))
    for _ in range(200):
        params = fam.sample_params(rng)
        ch = noise_channel(family_id, **params)
        assert ch.kraus.dtype == complex and ch.kraus.shape[1:] == (2, 2)
        assert not ch.kraus.flags.writeable
        assert completeness_residual(ch.kraus) <= channels.EPS_CPTP
        rep = channels.report(ch)
        if fam.expected_unital is not None:
            assert rep.unital == fam.expected_unital, (family_id, params)
        if fam.expected_rank is not None:
            assert rep.choi_rank == fam.expected_rank, (family_id, params)


@pytest.mark.parametrize("family_id", sorted(f for f, fam in FAMILIES.items()
                                             if fam.expected_rank == 2))
def test_rank2_samplers_stay_clear_of_rank_tolerance(family_id):
    # every draw keeps the second Choi eigenvalue >= 1e-6 x the first, three
    # decades above linalg.RANK_TOL, so no seed can round the rank down to 1
    fam = FAMILIES[family_id]
    for seed in range(300):
        params = fam.sample_params(np.random.default_rng(seed))
        eigs = linalg.hermitian_eig(channels.choi(noise_channel(family_id, **params)).rho).eigenvalues
        assert eigs[1] >= 1e-6 * eigs[0], (seed, params)


# ---------------------------------------------------------------------------
# one declaration per family: noise_channel is the only validation site
# ---------------------------------------------------------------------------

#: public constructor of each family that has one
CONSTRUCTORS = {
    "pauli_mixture": pauli_mixture, "werner": werner, "dephasing": families.dephasing,
    "lambda_u4": lambda_u4, "uqt_unital_for_pure": uqt_unital_for_pure,
    "uqt_nonunital_rank4": uqt_nonunital_rank4, "uqt_nonunital_rank3": uqt_nonunital_rank3,
    "example_rank3": families.example_rank3, "example_rank4_uqt": families.example_rank4_uqt,
    "example_rank3_universal_only": families.example_rank3_universal_only,
    "lambda_tilde_nu": lambda_tilde_nu, "lambda_star_nu": lambda_star_nu, "gadc": families.gadc,
}


def outcome(call):
    """The built channel (Kraus bytes, name, params), or the exception class and text."""
    try:
        ch = call()
    except ValueError as exc:
        return type(exc), str(exc)
    return ch.kraus.tobytes(), ch.name, ch.params


@settings(max_examples=300)
@given(family_id=st.sampled_from(sorted(CONSTRUCTORS)), seed=st.integers(0, 2**32 - 1),
       overrides=st.lists(st.one_of(
           st.none(),
           st.floats(-1.0, 7.0),
           st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, 0.5, 1.0, np.pi])),
           min_size=4, max_size=4),
       by_keyword=st.booleans())
def test_direct_call_matches_catalog(family_id, seed, overrides, by_keyword):
    # an in-range draw, with some parameters replaced by arbitrary values
    params = FAMILIES[family_id].sample_params(np.random.default_rng(seed))
    for name, value in zip(list(params), overrides):
        if value is not None:
            params[name] = value
    build = CONSTRUCTORS[family_id]
    direct = (lambda: build(**params)) if by_keyword else (lambda: build(*params.values()))
    assert outcome(direct) == outcome(lambda: noise_channel(family_id, **params))


def _rows_of(columns):
    """The keyword dicts of the rows of `columns`; one empty row if there is
    no column, as a family without params has."""
    n = len(next(iter(columns.values()))) if columns else 1
    return [{key: col[i] for key, col in columns.items()} for i in range(n)]


def _columns_of(rows):
    """The columns of keyword dicts that share their keys, in key order."""
    return {key: [row[key] for row in rows] for key in rows[0]}


def assert_block_rows_are_one_row_views(family_id, columns):
    """Row by row, checked_rows of the columns equals checked_build of the
    row alone: the error text it raises, of the family's `error` class for
    a joint constraint and ValueError for any other check, or the same
    recorded params and the same Kraus operators, where the one-row view of
    a Pauli mixture omits the zero operators that the block keeps."""
    rows = _rows_of(columns)
    block = families.checked_rows(family_id, columns)
    assert len(block.errors) == len(rows) and not block.kraus.flags.writeable
    assert all(block.errors[i] is not None for i in block.joint)
    assert all(col.shape == (len(rows),) for col in block.params.values())
    for i, row in enumerate(rows):
        got = block.kraus[i]
        try:
            kraus, recorded = families.checked_build(family_id, **row)
        except ValueError as exc:
            assert block.errors[i] == str(exc)
            assert type(exc) is (FAMILIES[family_id].error if i in block.joint else ValueError)
            assert not got.any() and all(np.isnan(col[i]) for col in block.params.values())
            continue
        assert block.errors[i] is None
        if FAMILIES[family_id].sparse:
            got = got[got.any(axis=(1, 2))]
        assert got.shape == kraus.shape and got.tobytes() == kraus.tobytes()
        assert {name: float(col[i]) for name, col in block.params.items()} == recorded


_VALUES = st.sampled_from([float("nan"), float("inf"), -0.3, 0.0, 0.3, 0.5, 1.0, 2.0, 1e300])
#: per row: its draw's seed and value edits (which parameter, value)
_ROWS = st.lists(st.tuples(st.integers(0, 2**32 - 1),
                           st.lists(st.tuples(st.integers(0, 4), _VALUES), max_size=3)),
                 min_size=1, max_size=6)
#: per call: name edits (what, which parameter, value), the same in every row
_NAMES = st.lists(st.tuples(st.sampled_from(["drop", "alias", "unknown"]), st.integers(0, 4),
                            _VALUES), max_size=3)


@settings(max_examples=200)
@given(family_id=st.sampled_from(sorted(FAMILIES)), rows=_ROWS, names=_NAMES)
def test_checked_rows_match_checked_build_row_by_row(family_id, rows, names):
    # in-range draws with values non-finite, out of range or rejected by the
    # builder, row by row, and with names dropped, repeated through an alias
    # or unknown, column by column
    fam = FAMILIES[family_id]
    dicts = []
    for seed, edits in rows:
        row = fam.sample_params(np.random.default_rng(seed))
        for k, value in edits:
            if row:
                row[list(row)[k % len(row)]] = value
        dicts.append(row)
    columns = _columns_of(dicts)
    for what, k, value in names:
        keys = list(columns) or ["p"]
        if what == "drop":
            columns.pop(keys[k % len(keys)], None)
        else:
            columns["x" if what == "unknown" else ("C", "c", "concurrence")[k % 3]] = \
                [value] * len(dicts)
    assert_block_rows_are_one_row_views(family_id, columns)


def _edge_columns(family_id):
    """Sampled points, and copies of them with one param set to each end of
    its range (in range where the end is closed), just beyond it, to a
    non-finite value or to a value that is no real number, as columns."""
    fam = FAMILIES[family_id]
    rng = np.random.default_rng(zlib.crc32(family_id.encode()))
    points = [fam.sample_params(rng) for _ in range(12)]
    rows = list(points)
    for spec in fam.params:
        ends = [x for x in (spec.low, spec.high) if x is not None]
        values = ends + [np.nextafter(x, d) for x in ends for d in (-np.inf, np.inf)]
        values += [float("nan"), float("inf"), -float("inf"), 2.0, -1.0, 1e300, True, "0.5"]
        for j, value in enumerate(values):
            rows.append({**points[j % len(points)], spec.name: value})
    return _columns_of(rows)


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_block_path_equals_one_row_view(family_id):
    assert_block_rows_are_one_row_views(family_id, _edge_columns(family_id))


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_block_kraus_shape_is_the_familys_whichever_rows_fail(family_id):
    # search_uqt places a lambda_tilde_nu block into a stack of four
    # operators: a block has its family's operator count whether every row,
    # some or none of them build, and a failed row is zeros and NaN params
    fam = FAMILIES[family_id]
    rng = np.random.default_rng(zlib.crc32(family_id.encode()))
    points = [fam.sample_params(rng) for _ in range(3)]
    failed = [{name: float("nan") for name in point} for point in points]
    if fam.params:
        blocks = [points, points[:2] + failed[2:], failed]
        expected = [[None] * 3, [None, None, str], [str] * 3]
    else:  # a fixed example's one row fails only by a name error
        blocks, expected = [[{}], [{"p": 0.5}]], [[None], [str]]
    shapes = set()
    for rows, kinds in zip(blocks, expected):
        columns = _columns_of(rows)
        block = families.checked_rows(family_id, columns)
        assert [err if err is None else type(err) for err in block.errors] == kinds
        assert_block_rows_are_one_row_views(family_id, columns)
        shapes.add(block.kraus.shape[1:])
    assert len(shapes) == 1


@pytest.mark.parametrize("family_id,columns", [
    ("gadc", {"gamma": [0.3, 2.0, "x"], "x": [0.1, 0.2, 0.3]}),
    ("gadc", {"gamma": [0.3, 0.4]}),
    ("lambda_tilde_nu", {"p1": [0.5, 0.6], "C": [0.5, 0.6], "p2": [0.3, 0.3]}),
    ("example_rank4_uqt", {"p": [0.5, 0.5]}),
], ids=["unknown", "missing", "alias repeats", "fixed example given a param"])
def test_a_name_error_is_every_rows_error(family_id, columns):
    # the names are resolved once per call: their error is every row's, even
    # a row whose values would fail on their own, with checked_build's text
    with pytest.raises(ValueError) as exc:
        families.checked_build(family_id, **_rows_of(columns)[0])
    block = families.checked_rows(family_id, columns)
    assert block.errors == [str(exc.value)] * len(_rows_of(columns))
    assert not block.kraus.any() and len(block.kraus) == len(block.errors)
    assert all(np.isnan(col).all() for col in block.params.values())
    assert_block_rows_are_one_row_views(family_id, columns)


def test_columns_of_unequal_length_are_a_value_error():
    with pytest.raises(ValueError, match=r"^gadc: param columns differ in length, got \[1, 2\]$"):
        families.checked_rows("gadc", {"gamma": [0.3, 0.4], "N": [0.1]})


def test_zero_operators_in_blocks_and_one_row_views():
    # Pauli weights of zero are omitted from the row's own Kraus list, and
    # kept as zero operators in a block; gadc keeps all four operators
    pauli = {"p0": [1.0, 0.0, 0.25], "p1": [0.0, 0.5, 0.25], "p2": [0.0, 0.0, 0.25],
             "p3": [0.0, 0.5, 0.25]}
    assert_block_rows_are_one_row_views("pauli_mixture", pauli)
    assert families.checked_rows("pauli_mixture", pauli).kraus.shape == (3, 4, 2, 2)
    assert [len(families.checked_build("pauli_mixture", **row)[0])
            for row in _rows_of(pauli)] == [1, 2, 4]
    assert [len(families.checked_build(fid, p=p)[0])
            for fid in ("werner", "dephasing") for p in (0.0, 1.0)] == [3, 1, 1, 1]
    gamma, n = zip(*[(g, n) for g in (0.0, 0.4, 1.0) for n in (0.0, 0.3, 1.0)])
    gadc = {"gamma": gamma, "N": n}
    assert_block_rows_are_one_row_views("gadc", gadc)
    assert all(len(families.gadc(**row).kraus) == 4 for row in _rows_of(gadc))


@pytest.mark.parametrize("value", [True, False, "0.3", "nan", 0.3 + 0j, 1j, [0.1], (0.1,),
                                   {"v": 0.1}, None, np.array([0.1]), 10**400],
                         ids=["True", "False", "numeric str", "nan str", "complex", "imaginary",
                              "list", "tuple", "dict", "None", "array", "huge int"])
def test_param_that_is_no_real_number_is_rejected_by_name(value):
    with pytest.raises(ValueError, match=r"^gadc: N must be (a real number|finite), got "):
        noise_channel("gadc", gamma=0.3, N=value)
    block = families.checked_rows("gadc", {"gamma": [0.3, 0.3], "N": [0.1, value]})
    assert block.errors[0] is None and block.errors[1].startswith("gadc: N must be")
    # the first value in the row's key order names the error
    with pytest.raises(ValueError, match="^gadc: gamma must be"):
        noise_channel("gadc", gamma=value, N=value)
    block = families.checked_rows("gadc", {"gamma": [0.3, value], "N": [value, value]})
    assert [err.split(" must")[0] for err in block.errors] == ["gadc: N", "gadc: gamma"]


def test_real_number_types_are_accepted_as_floats():
    ch = noise_channel("gadc", gamma=np.float32(0.25), N=1)
    assert ch.params == {"gamma": 0.25, "N": 1.0}
    assert all(type(v) is float for v in ch.params.values())


@pytest.mark.parametrize("call,error,message", [
    (lambda: uqt_nonunital_rank3(5.0, 0.3, 0.5), ValueError, "theta must lie in"),
    (lambda: pauli_mixture(-1e-13, 0.5, 0.5 + 1e-13, 0), ValueError, "p0 must lie in"),
    (lambda: lambda_u4(0.4), ChannelValidationError, "negative"),
    (lambda: noise_channel("lambda_u4", p=0.4), ChannelValidationError, "negative"),
], ids=["rank3 theta", "pauli negative weight", "lambda_u4 direct", "lambda_u4 catalog"])
def test_direct_calls_get_the_catalog_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("family_id,params,error", [
    ("pauli_mixture", {"p0": 0.5, "p1": 0.5, "p2": 0.5, "p3": 0.0}, ValueError),
    ("uqt_unital_for_pure", {"c": 0.8, "p0": 0.1}, ValueError),
    ("uqt_nonunital_rank4", {"s1": 0.9, "s2": 0.0, "s3": 0.0, "t": 0.5}, ValueError),
    ("lambda_tilde_nu", {"p1": 0.5, "p2": 0.99}, ValueError),
    ("pln_nm", {"G": 1.0, "g": 1e100, "t": 1e100}, ValueError),
    ("rtn_nm", {"g": 1.0, "omega": 2.0, "t": 2.0}, ValueError),
    ("depolarizing_nm", {"alpha": 1.0, "p": 0.5}, ValueError),
    ("lambda_u4", {"p": 0.3}, ChannelValidationError),
], ids=["pauli sum", "p0 window", "rank4 |s|", "tilde p2", "time-law overflow",
        "time law outside [0, 1]", "depolarizing_nm 3 alpha p", "lambda_u4 below 1/2"])
def test_a_joint_constraint_raises_its_familys_class(family_id, params, error):
    # the builder rejects the row, whose params each lie in range, and
    # checked_build raises the family's `error` class with the block's text
    with pytest.raises(ValueError) as exc:
        families.checked_build(family_id, **params)
    assert type(exc.value) is error is FAMILIES[family_id].error
    block = families.checked_rows(family_id, {key: [value] for key, value in params.items()})
    assert block.joint == {0} and block.errors == [str(exc.value)]


@pytest.mark.parametrize("family_id,params,name", [
    ("adc_nm", {"R": 1.0, "gamma": 1.0, "omega0": 2.0, "g": 1.0, "t": float("nan")}, "t"),
    ("gadc", {"gamma": 0.3, "N": float("inf")}, "N"),
    ("uqt_nonunital_rank4", {"s1": float("nan"), "s2": 0.1, "s3": 0.1, "t": 0.5}, "s1"),
    ("uqt_unital_for_pure", {"c": 0.8, "p0": float("-inf")}, "p0"),
])
def test_non_finite_param_rejected_by_name(family_id, params, name):
    with pytest.raises(ValueError, match=f"^{family_id}: {name} must be finite, got"):
        noise_channel(family_id, **params)


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_family_params_are_python_floats(family_id):
    fam = FAMILIES[family_id]
    rng = np.random.default_rng(zlib.crc32(family_id.encode()))
    for _ in range(20):
        ch = noise_channel(family_id, **fam.sample_params(rng))
        assert all(type(v) is float for v in ch.params.values()), ch.params
