import cmath
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from langevin_contract import cli, gaussian
from langevin_contract.certificates import CertificateError, step_matrix
from langevin_contract.coupling import certified_rate, certified_stepsize_threshold
from langevin_contract.gaussian import (
    STABILITY_CAP,
    STABILITY_TOL,
    SpectralError,
    _monotone_stable,
    bao_exact_rate,
    gaussian_scan,
    mode_eigenvalues,
    mode_report,
    stability_threshold,
    stationary_covariance,
)
from langevin_contract.integrators import KINETIC_SCHEMES, Scheme, StepParams, affine_mode_map
from oracles import _word_columns, mp_stability_threshold

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
KINETIC = [
    Scheme.KINETIC_EM,
    Scheme.BAO,
    Scheme.OAB,
    Scheme.ABO,
    Scheme.BOA,
    Scheme.OBA,
    Scheme.AOB,
    Scheme.BAOAB,
    Scheme.OBABO,
    Scheme.SES,
]


def test_kinetic_em_eigenvalues_closed_form():
    eigs = mode_eigenvalues(Scheme.KINETIC_EM, 1.0, StepParams(0.1, 4.0))
    # (2 - 0.4 +/- 0.1 sqrt(12)) / 2
    assert sorted(e.real for e in eigs) == pytest.approx(
        [0.6267949192431123, 0.9732050807568877], abs=1e-14
    )
    assert all(abs(e.imag) == 0.0 for e in eigs)


def test_eigenvalues_identity_at_tiny_h():
    eigs = mode_eigenvalues(Scheme.KINETIC_EM, 1.0, StepParams(1e-14, 4.0))
    assert all(abs(e - 1.0) < 1e-12 for e in eigs)


def test_bao_eigenvalues_closed_form():
    p = StepParams(0.1, 5.0)
    eta = p.eta
    s = 1 + eta - 0.01
    disc = cmath.sqrt(s * s - 4 * eta)
    expect = sorted(((s + disc) / 2).real for disc in (disc, -disc))
    got = sorted(e.real for e in mode_eigenvalues(Scheme.BAO, 1.0, p))
    assert got == pytest.approx(expect, abs=1e-13)


def test_bao_pure_imaginary_at_trace_zero():
    # at h = sqrt((1 + eta)/lam) the eigenvalue pair has zero real part,
    # which is the monotone-stability boundary (modulus sqrt(eta) < 1)
    gamma, lam = 8.0, 1.0
    h = 1.0
    for _ in range(100):
        h = math.sqrt((1 + math.exp(-gamma * h)) / lam)
    eigs = mode_eigenvalues(Scheme.BAO, lam, StepParams(h, gamma))
    assert all(abs(e.real) <= 1e-12 for e in eigs)
    assert all(abs(e) == pytest.approx(math.sqrt(math.exp(-gamma * h))) for e in eigs)


@pytest.mark.parametrize("scheme", [Scheme.KINETIC_EM, Scheme.BAO])
def test_closed_forms_match_eigensolve(scheme):
    # 5000 draws per scheme = 10^4 random parameter draws in total.  Near a
    # double root the eigenvalues of any solver are perturbed by
    # O(eps / sqrt(|disc|)), so the elementwise tolerance carries that
    # factor; trace and determinant are perfectly conditioned and held to
    # 1e-12 outright.
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    for _ in range(5000):
        lam = 10 ** rng.uniform(-1, 1)
        params = StepParams(10 ** rng.uniform(-3, -0.3), 10 ** rng.uniform(-0.5, 1.5))
        got = sorted(mode_eigenvalues(scheme, lam, params), key=lambda z: (z.real, z.imag))
        P = step_matrix(scheme, lam, params)
        want = sorted(np.linalg.eigvals(P), key=lambda z: (z.real, z.imag))
        tr, det = P[0, 0] + P[1, 1], P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
        scale = max(1.0, abs(tr))
        disc_cond = 8.0 * eps * scale**2 / max(abs(got[0] - got[1]), math.sqrt(eps) * scale)
        tol = 1e-12 * scale + disc_cond
        for g, w in zip(got, want):
            assert abs(g - w) <= tol
        assert abs(sum(got) - tr) <= 1e-12 * scale
        assert abs(got[0] * got[1] - det) <= 1e-12 * scale


def test_mode_eigenvalues_rejects_overdamped():
    with pytest.raises(SpectralError):
        mode_eigenvalues(Scheme.OVERDAMPED_EM, 1.0, StepParams(0.1, 1.0))


@pytest.mark.parametrize("lam", [-1.0, -0.0, 0.0, math.nan, math.inf])
def test_a_curvature_that_is_not_positive_raises(lam):
    # before stability_threshold's start value 1/sqrt(lam), which raised ValueError,
    # ZeroDivisionError or a nan stepsize; nan passed lam <= 0 and gave (inf, inf),
    # and inf started the search at h = 0.0, where the step core raised
    with pytest.raises(SpectralError, match="lam must be positive"):
        stability_threshold(Scheme.BAO, lam, 10.0)
    with pytest.raises(SpectralError, match="lam must be positive"):
        mode_eigenvalues(Scheme.BAO, lam, StepParams(0.1, 10.0))


def test_stability_threshold_kinetic_em_closed_form():
    got = stability_threshold(Scheme.KINETIC_EM, 1.0, 4.0)
    assert got == pytest.approx(2.0 / (4.0 + math.sqrt(12.0)), abs=1e-8)
    # large friction: threshold ~ 1/gamma
    got = stability_threshold(Scheme.KINETIC_EM, 1.0, 100.0)
    assert got == pytest.approx(2.0 / (100.0 + math.sqrt(100.0**2 - 4.0)), abs=1e-8)


def test_stability_threshold_bao_limit():
    # eta ~ 0 at gamma = 100: threshold -> sqrt((1 + 0)/lam) = 1
    assert stability_threshold(Scheme.BAO, 1.0, 100.0) == pytest.approx(1.0, abs=1e-6)
    # moderate friction: matches the fixed point of h = sqrt((1 + eta)/lam)
    h = 1.0
    for _ in range(200):
        h = math.sqrt((1 + math.exp(-8.0 * h)) / 1.0)
    assert stability_threshold(Scheme.BAO, 1.0, 8.0) == pytest.approx(h, abs=1e-8)


def test_stability_threshold_ends_on_adjacent_floats():
    # the threshold lies in [2**19, 2**20), where the float spacing
    # (1.16e-10) exceeds the bisection width; the search must still end
    h = stability_threshold(Scheme.BAO, 3e-12, 1e-4)
    assert _monotone_stable(Scheme.BAO, 3e-12, 1e-4, h)
    assert not _monotone_stable(Scheme.BAO, 3e-12, 1e-4, math.nextafter(h, math.inf))


def test_stability_threshold_is_a_value_at_the_ends_of_its_search():
    # kinetic_em at lam = 1e13 and gamma = 0.01 is unstable at every h that
    # halving from 1/sqrt(lam) reaches: 0.0; ses at gamma = 1e8 is stable up to the cap: the cap
    assert stability_threshold(Scheme.KINETIC_EM, 1e13, 0.01) == 0.0
    assert stability_threshold(Scheme.SES, 1.0, 1e8) == STABILITY_CAP


def _roadmap_xfail(item, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


_DET_NOISE = _roadmap_xfail("4(a)", "det = P00 P11 - P01 P10 cancels to noise once exp(-gamma h) < 1e-16")


@pytest.mark.parametrize(
    "scheme, gamma",
    [(s, g) for s in ("kinetic_em", "bao", "baoab", "obabo") for g in (5.0, 11.0)]
    + [pytest.param(s, 1e8, marks=_DET_NOISE) for s in ("bao", "baoab", "obabo")]
    + [
        pytest.param("obabo", 100.0, marks=_DET_NOISE),
        pytest.param(
            "kinetic_em", 1e8, marks=_roadmap_xfail(13, "the absolute STABILITY_TOL is 1% of a 1e-8 threshold")
        ),
    ],
)
def test_stability_threshold_matches_the_mp_oracle(scheme, gamma):
    # the oracle bisects the Jury conditions at 50 digits with det = exp(-gamma h) exactly
    # (1 - gamma h + h^2 lam for kinetic_em); the relative check catches what an
    # absolute width of STABILITY_TOL lets through at gamma = 1e8
    got, want = stability_threshold(scheme, 4.0, gamma), mp_stability_threshold(scheme, 4.0, gamma)
    assert abs(got - want) <= STABILITY_TOL
    assert got == pytest.approx(want, rel=1e-6)


@_roadmap_xfail(
    "4(a)",
    "obabo's stable set at lam = 6, gamma = 200 is not an interval: once exp(-gamma h) < 1e-16 the rounded "
    "det decides, and h is stable again 1e-10 past the returned threshold",
)
def test_stability_threshold_is_the_edge_of_an_interval():
    # the README's known-issue example, and why the stability probe is a
    # verdict with no margin: a secant on a margin assumes an interval
    h = stability_threshold(Scheme.OBABO, 6.0, 200.0)
    assert _monotone_stable(Scheme.OBABO, 6.0, 200.0, h)
    assert not _monotone_stable(Scheme.OBABO, 6.0, 200.0, h + 1e-10)


def test_the_shipped_scan_makes_2222_stability_probes(monkeypatch, tmp_path):
    # +-inf margins are never interpolated, so every search probes as the
    # plain bisection did (2222 probes on the shipped config); a probe runs
    # on Python floats, not BLAS, so the count is the same on every build
    calls = 0
    probe = gaussian._monotone_stable

    def counted(*args):
        nonlocal calls
        calls += 1
        return probe(*args)

    monkeypatch.setattr(gaussian, "_monotone_stable", counted)
    assert cli.main(["gaussian-scan", "--config", str(CONFIGS / "gaussian_scan.json"), "--out", str(tmp_path)]) == 0
    assert calls == 2222


def test_bao_exact_rate_examples():
    # h -> 0 gives no contraction
    assert bao_exact_rate(1.0, 1e-9, 5.0) == pytest.approx(0.0, abs=1e-8)
    # closed-form substitution at m=1, gamma=5, h=0.1
    eta = math.exp(-0.5)
    s0 = 1 - eta + 0.01
    expect = s0 - math.sqrt(s0 * s0 - 0.04)
    assert bao_exact_rate(1.0, 0.1, 5.0) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(0.05305885449688286, rel=1e-12)
    # gamma = inf is eta = 0: the discriminant is (1 - h^2 m)^2, so c_N = 2 h^2 m
    assert bao_exact_rate(1.0, 0.1, math.inf) == pytest.approx(0.02, rel=1e-12)


def test_bao_exact_rate_on_a_complex_pair_is_one_minus_eta():
    # at m = 1, h = 0.5, gamma = 0.1 the discriminant is negative: the mode
    # eigenvalues are a conjugate pair of modulus sqrt(eta)
    eta = math.exp(-0.05)
    eigs = mode_eigenvalues(Scheme.BAO, 1.0, StepParams(0.5, 0.1))
    assert all(e.imag != 0.0 for e in eigs)
    assert [abs(e) ** 2 for e in eigs] == pytest.approx([eta, eta], rel=1e-12)
    assert bao_exact_rate(1.0, 0.5, 0.1) == 1.0 - eta


def test_bao_exact_rate_is_twice_the_slow_mode_gap():
    # identity check: c_N equals 2 (1 - lam_max) of the mode matrix
    for h, gamma in [(0.1, 5.0), (0.05, 4.0), (0.2, 9.0)]:
        eigs = mode_eigenvalues(Scheme.BAO, 1.0, StepParams(h, gamma))
        lam_max = max(e.real for e in eigs)
        assert bao_exact_rate(1.0, h, gamma) == pytest.approx(2 * (1 - lam_max), rel=1e-10)


def _mp_bao_rate(m, h, gamma):
    """bao_exact_rate's real branch as 4 h^2 m / (s0 + sqrt(disc)), or 1 - eta
    where disc < 0, at 60 digits on the float inputs."""
    with mp.workdps(60):
        m, h, gamma = mp.mpf(m), mp.mpf(h), mp.mpf(gamma)
        eta = mp.exp(-gamma * h)
        q = h * h * m
        s0 = 1 - eta + q
        disc = s0 * s0 - 4 * q
        return float(1 - eta) if disc < 0 else float(4 * q / (s0 + mp.sqrt(disc)))


def test_bao_exact_rate_where_its_terms_overflow():
    # h^2 m overflows at (1, 1e160), s0^2 at (1e160, 1): the real branch
    # tends to 2 as h^2 m grows, where the direct form gave nan and -inf
    assert bao_exact_rate(1.0, 1e160, 4.0) == 2.0
    assert bao_exact_rate(1e160, 1.0, 4.0) == 2.0
    # h^2 overflows on a subnormal m whose h^2 m is small or moderate, and
    # 4 h^2 m overflows where h^2 m does not; both branches, against 60 digits
    for m, h, gamma in [(3e-309, 1e155, 1e-155), (5e-324, 1e160, 4.0), (1e-300, 1e154, 1e-154), (1e-300, 1e155, 1e-155)]:
        assert bao_exact_rate(m, h, gamma) == pytest.approx(_mp_bao_rate(m, h, gamma), rel=1e-14), (m, h, gamma)
    assert bao_exact_rate(5e-324, 1e160, 4.0) < 1.0 < 2.0 < bao_exact_rate(3e-309, 1e155, 1e-155)


def test_bao_exact_rate_where_nothing_overflows_is_the_direct_form():
    rng = np.random.default_rng(35)
    for _ in range(2000):
        m, h, gamma = (float(10 ** rng.uniform(-150.0, 150.0)) for _ in range(3))
        eta = math.exp(-gamma * h)
        s0 = 1.0 - eta + h * h * m
        disc = s0 * s0 - 4.0 * h * h * m
        if math.isfinite(disc):
            want = 1.0 - eta if disc < 0.0 else s0 - math.sqrt(disc)
            assert bao_exact_rate(m, h, gamma) == want, (m, h, gamma)


def _scan_rate(scheme, gamma, h):
    """One minus the larger spectral radius of the scan's reports at h, on m = M = 1."""
    return 1.0 - max(r.spectral_radius for r in gaussian_scan(scheme, 1.0, 1.0, gamma, [h]))


def test_gaussian_scan_all_schemes_contract_at_moderate_friction():
    # standard gaussian, gamma = 4 sqrt(M), h = 0.25: every report of the h contracts
    for scheme in (Scheme.KINETIC_EM, Scheme.BAO, Scheme.BAOAB, Scheme.OBABO, Scheme.SES):
        reports = gaussian_scan(scheme, 1.0, 1.0, 4.0, [0.25])
        assert [(r.h, r.lam) for r in reports] == [(0.25, 1.0), (0.25, 1.0)], scheme  # m = M: still two
        assert all(r.contractive for r in reports), scheme
        assert _scan_rate(scheme, 4.0, 0.25) > 0
    # for each h in grid order, the m-mode's report and then the M-mode's
    reports = gaussian_scan(Scheme.BAO, 1.0, 4.0, 8.0, [0.25, 0.1])
    assert [(r.h, r.lam) for r in reports] == [(0.25, 1.0), (0.25, 4.0), (0.1, 1.0), (0.1, 4.0)]
    assert all(r.scheme is Scheme.BAO and r.gamma == 8.0 for r in reports)


def test_gaussian_scan_kinetic_em_unstable_at_high_friction():
    reports = gaussian_scan(Scheme.KINETIC_EM, 1.0, 1.0, 1000.0, [0.25])
    assert not all(r.contractive for r in reports)
    assert reports[0].spectral_radius > 1.0


def test_gaussian_scan_rate_scaling_low_h():
    # fixed moderate friction: kinetic_em and ses rates scale linearly in h
    for scheme in (Scheme.KINETIC_EM, Scheme.SES):
        r1, r2 = _scan_rate(scheme, 6.0, 1e-4), _scan_rate(scheme, 6.0, 2e-4)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-2), scheme
    # splittings in the strongly damped regime (eta ~ 0): quadratic scaling
    for scheme in (Scheme.BAO, Scheme.BAOAB, Scheme.OBABO):
        r1, r2 = _scan_rate(scheme, 400.0, 0.05), _scan_rate(scheme, 400.0, 0.1)
        assert r2 / r1 == pytest.approx(4.0, rel=5e-2), scheme


def test_gaussian_scan_empty_grid_rejected():
    with pytest.raises(SpectralError):
        gaussian_scan(Scheme.BAO, 1.0, 4.0, 4.0, [])


@pytest.mark.parametrize("scheme", KINETIC)
def test_certified_rate_lower_bounds_mode_decay(scheme):
    # the certified squared rate never exceeds the worst mode's actual
    # squared decay 1 - radius^2 at admissible parameters
    m, M = 1.0, 4.0
    gamma = {Scheme.KINETIC_EM: 5.0, Scheme.SES: 12.5}.get(scheme, 8.0)
    h = 0.8 * certified_stepsize_threshold(scheme, m, M, gamma)
    if h <= 0:
        pytest.skip("no admissible stepsize at this friction")
    r = certified_rate(scheme, m, M, gamma, h)
    if not r.admissible:
        pytest.skip("inadmissible")
    radius = max(
        mode_report(scheme, lam, StepParams(h, gamma)).spectral_radius for lam in (m, M)
    )
    assert 1.0 - radius**2 >= r.c - 1e-12


def test_a_mode_far_past_stability_reads_an_infinite_radius_without_warnings():
    # at h = 1e200 the trace or determinant of the mode matrix overflows: both eigenvalues read
    # inf, not nan, on Python floats that warn of nothing (pytest turns a numpy warning into an error)
    rep = mode_report(Scheme.SES, 1.0, StepParams(1e200, 10.0))
    assert rep.spectral_radius == math.inf and not rep.contractive
    for scheme in KINETIC_SCHEMES:
        if scheme is Scheme.BAOAB:  # its certificate block takes h^3, which leaves the float range
            with pytest.raises(CertificateError, match="leaves the float range at h=1e[+]200"):
                gaussian_scan(scheme, 1.0, 4.0, 10.0, [1e200])
            continue
        # at eta = 0, oab and boa set v to 0 and leave x as it is: eigenvalues 1 and 0
        want = 1.0 if scheme in (Scheme.OAB, Scheme.BOA) else math.inf
        assert [r.spectral_radius for r in gaussian_scan(scheme, 1.0, 4.0, 10.0, [1e200])] == [want, want], scheme


def test_mode_report_fields():
    rep = mode_report(Scheme.KINETIC_EM, 1.0, StepParams(0.1, 4.0))
    assert rep.contractive and rep.spectral_radius == pytest.approx(0.9732050807568877)
    assert rep.lam == 1.0 and rep.h == 0.1 and rep.gamma == 4.0


def test_bao_certified_rate_tightness():
    # what actually holds on h < 1/sqrt(22), gamma >= 4, m = 1: the exact
    # mode rate sits between 8 and 8.6 times the certified rate (the
    # closed form equals 2 h^2 m / (1 - lam_min) with lam_min > eta, so it
    # always dominates 8 c(h) = 2 h^2 m / (1 - eta))
    rng = np.random.default_rng(11)
    for _ in range(200):
        h = rng.uniform(1e-3, 1.0 / math.sqrt(22.0) - 1e-9)
        gamma = rng.uniform(4.0, 100.0)
        c = certified_rate(Scheme.BAO, 1.0, 1.0, gamma, h).c
        cN = bao_exact_rate(1.0, h, gamma)
        assert 8.0 * c <= cN <= 8.6 * c


@pytest.mark.parametrize("lam", [0.5, 4.0])
def test_stationary_covariance_baoab_obabo_closed_forms(lam):
    # Leimkuhler and Matthews (2013): baoab's x-law is exact and its
    # Var(v) = 1 - h^2 lam / 4; obabo's v-law is exact and its
    # lam Var(x) = 1 / (1 - h^2 lam / 4), at every friction
    for gamma in (2.0, 11.0, 1e3):
        for h in (0.05, 0.3):
            shrink = 1.0 - h * h * lam / 4.0
            S = stationary_covariance(Scheme.BAOAB, lam, StepParams(h, gamma))
            assert lam * S[0, 0] == pytest.approx(1.0, rel=0.0, abs=1e-12)
            assert S[1, 1] == pytest.approx(shrink, rel=0.0, abs=1e-12)
            S = stationary_covariance(Scheme.OBABO, lam, StepParams(h, gamma))
            assert S[1, 1] == pytest.approx(1.0, rel=0.0, abs=1e-12)
            assert lam * S[0, 0] == pytest.approx(1.0 / shrink, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("scheme", KINETIC)
def test_stationary_covariance_is_the_fixed_point_or_raises(scheme):
    for lam, h, gamma in ((1.0, 0.1, 4.0), (4.0, 0.3, 11.0), (4.0, 0.3, 40.0), (4.0, 3.0, 2.0)):
        params = StepParams(h, gamma)
        P, N = affine_mode_map(scheme, lam, params)
        if max(abs(np.linalg.eigvals(P))) >= 1.0:
            with pytest.raises(SpectralError):
                stationary_covariance(scheme, lam, params)
            continue
        S = stationary_covariance(scheme, lam, params)
        assert np.allclose(S, P @ S @ P.T + N @ N.T, rtol=1e-12, atol=1e-14)
        assert S[0, 1] == pytest.approx(S[1, 0]) and np.all(np.linalg.eigvalsh(S) > 0.0)


@pytest.mark.parametrize("scheme", [Scheme.OAB, Scheme.ABO, Scheme.BOA], ids=lambda s: s.value)
@pytest.mark.xfail(
    strict=True,
    raises=SpectralError,
    reason="ROADMAP item 4(a): tr P rounds to 1 + det P once exp(-gamma h) < 1e-16; an exact det P decides",
)
def test_stationary_covariance_stability_is_decided_exactly_at_high_friction(scheme):
    # gamma h = 300: the chain is stable, by a Jury margin 1 + det P - tr P = h^2 lam eta
    # of ~1.9e-131 at 400 digits, while the float trace rounds to 1 + det P
    lam, h, gamma = 4.0, 0.3, 1e3
    with mp.workdps(400):
        (p00, p10), (p01, p11) = _word_columns(scheme, mp.mpf(lam), mp.mpf(h), mp.mpf(gamma), mp.exp, mp.mpf)
        trace, det = p00 + p11, p00 * p11 - p01 * p10
        assert 0 < det < 1 and abs(trace) < 1 + det
        assert 1 + det - trace == pytest.approx(h * h * lam * mp.exp(-gamma * h), rel=1e-30)
    assert np.isfinite(stationary_covariance(scheme, lam, StepParams(h, gamma))).all()
