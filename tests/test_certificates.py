import dataclasses
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from langevin_contract import certificates
from langevin_contract.certificates import (
    CERTIFICATE_SCHEMES,
    CertificateError,
    CertificateReport,
    GRID_POINTS,
    RATE_TOL,
    REFERENCE_BOUND_CONSTANTS,
    STEPSIZE_CAP,
    STEPSIZE_TOL,
    UnsupportedScheme,
    _affine_P,
    _grid_sums,
    _min_eig_H,
    _point,
    _verdict,
    bisect,
    check_certificate,
    composition_bound,
    max_certified_rate,
    max_certified_stepsize,
    search,
    step_matrix,
    transition_matrix_P,
)
from langevin_contract.coupling import certified_rate, certified_stepsize_threshold
from langevin_contract.integrators import Scheme, StepParams
from oracles import build_abc


def test_transition_matrix_identity_at_h_zero_limit():
    # h -> 0: P -> I (checked at a tiny stepsize)
    P = transition_matrix_P(Scheme.KINETIC_EM, 3.0, StepParams(1e-12, 4.0))
    assert np.allclose(P, np.eye(2), atol=1e-10)


def test_transition_matrix_kinetic_em_example():
    P = transition_matrix_P(Scheme.KINETIC_EM, 1.0, StepParams(0.1, 4.0))
    assert np.allclose(P, [[1.0, 0.1], [-0.1, 0.6]], atol=1e-15)


def test_transition_matrix_bao_example():
    eta = math.exp(-0.5)
    P = transition_matrix_P(Scheme.BAO, 1.0, StepParams(0.1, 5.0))
    assert np.allclose(P, [[0.99, 0.1], [-0.1 * eta, eta]], atol=1e-15)


def _hand_abc(scheme, h, g, a, b, c):
    # hand-expanded coefficients of the kinetic_em and bao blocks: an oracle
    # for the derived polynomials that does not go through transition_matrix_P
    eta = math.exp(-g * h)
    if scheme is Scheme.KINETIC_EM:
        A = [-c, 2.0 * b * h, -h * h * a]
        B = [-c * b + h * (b * g - 1.0), h * (a + h * (b - a * g)), 0.0]
        C = [-c * a + h * (2.0 * a * g - 2.0 * b - h * (1.0 - 2.0 * b * g + a * g * g)), 0.0, 0.0]
    else:
        A = [-c, 2.0 * (b * eta + h) * h, -(a * eta**2 + 2.0 * b * eta * h + h * h) * h * h]
        B = [b * (1.0 - eta) - h - b * c, (a * eta**2 + 2.0 * b * eta * h + h * h) * h, 0.0]
        C = [a * (1.0 - eta**2) - 2.0 * b * eta * h - h * h - a * c, 0.0, 0.0]
    return A, B, C


@pytest.mark.parametrize("scheme", [Scheme.KINETIC_EM, Scheme.BAO])
def test_build_abc_hand_coefficients(scheme):
    h, g, a, b, c = 0.1, 4.0, 0.25, 0.25, 0.0125
    abc = build_abc(scheme, StepParams(h, g), a, b, c)
    for got, want in zip((abc.A, abc.B, abc.C), _hand_abc(scheme, h, g, a, b, c)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_build_abc_simplified_B_constant_term():
    # with the certified (a, b) the constant term of B is exactly -b c
    for scheme in CERTIFICATE_SCHEMES:
        gamma = 12.0 if scheme is not Scheme.SES else 12.0
        h = 0.8 * certified_stepsize_threshold(scheme, 1.0, 4.0, gamma)
        assert h > 0
        r = certified_rate(scheme, 1.0, 4.0, gamma, h)
        abc = build_abc(scheme, StepParams(h, gamma), r.a, r.b, r.c)
        assert abc.B[0] == pytest.approx(-r.b * r.c, rel=1e-9, abs=1e-18), scheme


def test_build_abc_degenerate_step():
    # c = 0 and h -> 0: A -> 0, consistent with P -> I
    abc = build_abc(Scheme.BAO, StepParams(1e-10, 2.0), 0.5, 0.1, 0.0)
    assert np.abs(abc.A).max() <= 1e-9


def test_build_abc_unsupported_schemes():
    for scheme in (Scheme.ABO, Scheme.BOA, Scheme.OBA, Scheme.AOB, Scheme.OVERDAMPED_EM):
        with pytest.raises(UnsupportedScheme):
            build_abc(scheme, StepParams(0.1, 4.0), 0.5, 0.1, 0.01)


@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES)
def test_abc_polynomials_match_numeric_H(scheme):
    # strong transcription oracle: A, B, C evaluated at lam must equal the
    # entries of H = (1-c) W - P^T W P assembled from matrices
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = 10 ** rng.uniform(-1, 1)
        M = m * 10 ** rng.uniform(0, 2)
        gamma = 10 ** rng.uniform(-0.5, 2)
        h = 10 ** rng.uniform(-4, -0.3)
        a, b, c = 1 / M, rng.uniform(0, 1 / math.sqrt(M)), rng.uniform(0, 0.5)
        lam = rng.uniform(m, M)
        params = StepParams(h, gamma)
        abc = build_abc(scheme, params, a, b, c)
        P = transition_matrix_P(scheme, lam, params)
        W = np.array([[1.0, b], [b, a]])
        H = (1 - c) * W - P.T @ W @ P
        scale = max(1e-30, np.abs(H).max())
        for coeffs, entry in ((abc.A, H[0, 0]), (abc.B, H[0, 1]), (abc.C, H[1, 1])):
            val = coeffs[0] + coeffs[1] * lam + coeffs[2] * lam * lam
            assert abs(val - entry) <= 1e-12 * scale


def _einsum_min_eig_H_grid(P0, P1, lams, W, c):
    # the former _min_eig_H_grid, kept as the reference for the
    # entry-by-entry version, which must reproduce it bit for bit
    Pg = P0[np.newaxis] + lams[:, np.newaxis, np.newaxis] * P1[np.newaxis]
    Hg = (1.0 - c) * W[np.newaxis] - np.einsum("nki,kl,nlj->nij", Pg, W, Pg)
    tr = Hg[:, 0, 0] + Hg[:, 1, 1]
    det = Hg[:, 0, 0] * Hg[:, 1, 1] - Hg[:, 0, 1] * Hg[:, 1, 0]
    return 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))


@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES, ids=lambda s: s.value)
def test_min_eig_H_grid_matches_einsum_reference(scheme):
    rng = np.random.default_rng(3)
    for M in (1.0, 4.0, 100.0):
        for m in (M, M * rng.uniform(0.01, 1.0)):
            for gamma in (0.5, 10 ** rng.uniform(0.0, 4.0), 1e4):
                for h in (1e-4, 10 ** rng.uniform(-4.0, 0.3), STEPSIZE_CAP):
                    params = StepParams(h, gamma)
                    r = certified_rate(scheme, m, M, gamma, h)
                    W = np.array([[1.0, r.b], [r.b, r.a]])
                    lams = np.linspace(m, M, GRID_POINTS) if M > m else np.array([m])
                    P0, P1 = _affine_P(scheme, params)
                    got = _min_eig_H(_grid_sums(P0, P1, lams, W), W, r.c, lams.shape)
                    want = _einsum_min_eig_H_grid(P0, P1, lams, W, r.c)
                    assert np.array_equal(got, want), (m, M, gamma, h)
                    # a constant P(lam): every sum is one float, and the oracle still fills the grid
                    flat = _min_eig_H(_grid_sums(P0, 0.0 * P1, lams, W), W, r.c, lams.shape)
                    assert np.array_equal(flat, _einsum_min_eig_H_grid(P0, 0.0 * P1, lams, W, r.c))
                    for k in (0, len(lams) // 2, len(lams) - 1):
                        P = transition_matrix_P(scheme, lams[k], params)
                        H = (1.0 - r.c) * W - P.T @ W @ P
                        # the trace/determinant formula loses digits relative
                        # to the largest entry of H, not to the eigenvalue
                        atol = 1e-10 * np.abs(H).max()
                        ref = np.linalg.eigvalsh(H)[0]
                        np.testing.assert_allclose(got[k], ref, rtol=1e-10, atol=atol)


class _Grid(NamedTuple):
    """Both polynomials of a check on the whole grid, and their guards."""

    rate: object
    c: float
    P0: np.ndarray
    P1: np.ndarray
    W: np.ndarray
    lams: np.ndarray
    pa: np.ndarray
    pq: np.ndarray
    guard_a: float
    guard_q: float


def _reference_grid(scheme, m, M, gamma, h, c=None):
    # the polynomial half of check_certificate in one piece, with
    # numpy.polynomial: the rate, P0 and P1 (one block probe each), W, the
    # grid, both polynomials on the whole grid and their guards, built afresh
    scheme = Scheme(scheme)
    if not (0.0 < m <= M):
        raise CertificateError(f"need 0 < m <= M, got m={m}, M={M}")
    rate = certified_rate(scheme, m, M, gamma, h)
    a, b = rate.a, rate.b
    c = rate.c if c is None else c
    params = StepParams(h, gamma)
    P0 = transition_matrix_P(scheme, 0.0, params)
    P1 = transition_matrix_P(scheme, 1.0, params) - P0
    W = np.array([[1.0, b], [b, a]])
    cross = P0.T @ W @ P1
    H = np.stack([(1.0 - c) * W - P0.T @ W @ P0, -(cross + cross.T), -(P1.T @ W @ P1)])
    A, B, C = H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]

    def derivative_bound(coeffs, hi):
        return float(sum(k * abs(ck) * hi ** (k - 1) for k, ck in enumerate(coeffs) if k > 0))

    lams = np.linspace(m, M, GRID_POINTS) if M > m else np.array([m])
    pa = npoly.polyval(lams, A)
    quartic = npoly.polysub(npoly.polymul(A, C), npoly.polymul(B, B))
    pq = npoly.polyval(lams, quartic)
    if M > m:
        dlam = (M - m) / (GRID_POINTS - 1)
        guard_a = derivative_bound(A, M) * dlam / 2.0
        guard_q = derivative_bound(quartic, M) * dlam / 2.0
    else:
        guard_a = guard_q = 0.0
    return _Grid(rate, c, P0, P1, W, lams, pa, pq, guard_a, guard_q)


def _full_grid_passed(grid):
    """The certificate's rule, read off both polynomials on the whole grid."""
    return bool(grid.rate.b**2 < grid.rate.a and grid.pa.min() > grid.guard_a and grid.pq.min() > grid.guard_q)


def _reference_check_certificate(scheme, m, M, gamma, h, c=None):
    # check_certificate in one piece, kept as the reference that the split
    # into a c-free point and a c half must reproduce bit for bit: every call
    # builds the polynomial half (_reference_grid) and the einsum oracle afresh
    grid = _reference_grid(scheme, m, M, gamma, h, c)
    rate, c, P0, P1, W, lams, pa, pq = grid[:8]
    a, b = rate.a, rate.b
    norm_valid = b * b < a
    passed = _full_grid_passed(grid)
    eigs = _einsum_min_eig_H_grid(P0, P1, lams, W, c)
    agrees = bool(np.array_equal((pa > 0.0) & (pq > 0.0), eigs > 0.0))
    margin_a, margin_q = pa / lams, pq / lams
    worst = int(np.argmin(np.minimum(margin_a, margin_q)))
    return CertificateReport(
        scheme=Scheme(scheme),
        m=m,
        M=M,
        gamma=gamma,
        h=h,
        a=a,
        b=b,
        c=c,
        passed=passed,
        min_margin_A=float(margin_a.min()),
        min_margin_ACB2=float(margin_q.min()),
        worst_lambda=float(lams[worst]),
        oracle_min_eig=float(eigs.min()),
        oracle_agrees=agrees,
        norm_valid=norm_valid,
        grid_points=len(lams),
    )


def _zeroing_c(scheme, m, M, gamma, h, i, j):
    """A c at which entry (i, j) of (1-c) W - P0^T W P0, the constant term
    of A, B or C, is exactly 0.0 as the reference computes it, or None."""
    rate = certified_rate(scheme, m, M, gamma, h)
    W = np.array([[1.0, rate.b], [rate.b, rate.a]])
    P0 = transition_matrix_P(scheme, 0.0, StepParams(h, gamma))
    K0 = P0.T @ W @ P0
    start = 1.0 - K0[i, j] / W[i, j] if W[i, j] != 0.0 else 0.0  # b = 0: c does not move B0
    for direction in (np.inf, -np.inf):
        c = start
        for _ in range(64):
            if ((1.0 - c) * W - K0)[i, j] == 0.0:
                return float(c)
            c = np.nextafter(c, direction)
    return None


def _outcome(check, *args, **kwargs):
    """The repr of every report field, or the type and text of the error raised."""
    try:
        rep = check(*args, **kwargs)
    except Exception as exc:  # the reference must raise alike
        return type(exc), str(exc)
    return [(f.name, repr(getattr(rep, f.name))) for f in dataclasses.fields(rep)]


def _reference_draws(scheme, rng):
    """Check points (scheme, m, M, gamma, h): m = M, 12 random draws, then
    6 steep ones, where gamma h is past ~745 and eta underflows to 0.0."""
    points = [(scheme, 2.0, 2.0, 11.0, 0.05)]  # m = M
    for _ in range(12):
        m = 10 ** rng.uniform(-1.0, 1.0)
        M = m if rng.uniform() < 0.2 else m * 10 ** rng.uniform(0.0, 2.0)
        points.append((scheme, m, M, 10 ** rng.uniform(math.log10(0.3), 4.0), 10 ** rng.uniform(-4.0, 1.0)))
    steep = []
    for _ in range(6):
        m = 10 ** rng.uniform(-1.0, 1.0)
        M = m if rng.uniform() < 0.2 else m * 10 ** rng.uniform(0.0, 2.0)
        steep.append((scheme, m, M, 10 ** rng.uniform(4.0, 8.0), 10 ** rng.uniform(-3.0, 0.0)))
    return points + steep


@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES, ids=lambda s: s.value)
def test_check_certificate_matches_the_uncached_reference(scheme):
    rng = np.random.default_rng(13)
    points = _reference_draws(scheme, rng)
    steep = points[-6:]

    def same(point, c):
        kw = {} if c is None else {"c": c}
        want = _outcome(_reference_check_certificate, *point, **kw)
        assert _outcome(check_certificate, *point, **kw) == want, (point, c)

    zeroed = [0, 0, 0]
    for i, point in enumerate(points):
        # one point at several c
        for c in (None, float(rng.uniform(0.0, 1.0)), 0.0, 1.0, None, float(10 ** rng.uniform(-8.0, -1.0))):
            same(point, c)
        for k, entry in enumerate(((0, 0), (0, 1), (1, 1))):  # A0, B0 or C0 exactly 0.0
            c = _zeroing_c(*point, *entry)
            if c is not None:
                zeroed[k] += 1
                same(point, c)
        if i >= 1:  # A, B, A interleaved
            same(points[i - 1], None)
            same(point, float(rng.uniform(0.0, 0.1)))
        if i >= 2:
            same(points[i - 2], float(rng.uniform(0.0, 0.1)))
    assert min(zeroed) > 0, zeroed
    params = [StepParams(h, gamma) for *_, gamma, h in steep]
    assert all(p.eta == 0.0 for p in params)
    if scheme in (Scheme.BAO, Scheme.OAB, Scheme.BAOAB):  # P1 entries with a factor eta
        zeros = [np.count_nonzero(_affine_P(scheme, p)[1] == 0) for p in params]
        moderate = [np.count_nonzero(_affine_P(scheme, StepParams(p.h, 1.0))[1] == 0) for p in params]
        assert all(z > z1 for z, z1 in zip(zeros, moderate))


def test_search_probes_take_the_verdict_only(monkeypatch):
    # neither search runs the eigenvalue oracle; a stepsize probe builds one
    # point, a rate search one in all, and every probe shares one lam grid
    calls = dict.fromkeys(("_verdict", "_grid_sums", "_min_eig_H", "certified_rate"), 0)

    def counting(name):
        fn = getattr(certificates, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(certificates, name, counting(name))
    certificates._lam_grid.cache_clear()
    scheme, m, M, gamma = Scheme.BAO, 1.0, 4.0, 26.0

    h = max_certified_stepsize(scheme, m, M, gamma)
    n_step = calls["_verdict"]
    assert n_step > 20 and calls["certified_rate"] == n_step  # every probe a new point
    assert certificates._lam_grid.cache_info().misses == 1

    calls.update(_verdict=0, certified_rate=0)
    max_certified_rate(scheme, m, M, gamma, 0.8 * h)
    assert calls["_verdict"] > math.log2(1.0 / RATE_TOL) and calls["certified_rate"] == 1
    assert calls["_grid_sums"] == calls["_min_eig_H"] == 0

    rep = check_certificate(scheme, m, M, gamma, 0.8 * h)  # a report runs the oracle once
    assert calls["_grid_sums"] == calls["_min_eig_H"] == 1 and rep.oracle_agrees

    point = _point(scheme, m, M, gamma, 0.8 * h)
    assert np.array_equal(point.lams, np.linspace(m, M, GRID_POINTS))
    arrays = [x for x in point if isinstance(x, np.ndarray)]
    assert len(arrays) == 5  # W, P0, P1, lams and A's Horner tail
    for x in (*point.k0, *sum(point.lam_terms, ()), point.tail_min, point.guard_a):
        assert type(x) is float
    with pytest.raises(ValueError, match="read-only"):  # the grid is shared by every point of (m, M)
        point.lams[0] = 0.0


def test_a_derivative_bound_beyond_the_float_range_raises():
    # the guard's M^3 overflows past M ~ 5.6e102, where no check can be
    # made: every route raises a CertificateError
    args = (Scheme.BAO, 1.0, 1e103, 1e110)
    for call in (
        lambda: check_certificate(*args, 1e-120),
        lambda: max_certified_rate(*args, 1e-120),
        lambda: max_certified_stepsize(*args),
    ):
        with pytest.raises(CertificateError, match="overflows at M=1e"):
            call()
    assert check_certificate(Scheme.BAO, 1e103, 1e103, 1e110, 1e-120).grid_points == 1  # m = M: no guard


def _verdict_passed(scheme, m, M, gamma, h, c=None):
    """``check_certificate(...).passed`` from the verdict alone, as the searches take it."""
    point = _point(scheme, m, M, gamma, h)
    return _verdict(point, m, M, point.rate.c if c is None else c)[0]


def _passed(check, *args, **kwargs):
    """The verdict of ``check``, or the type and text of the error raised."""
    try:
        return check(*args, **kwargs)
    except Exception as exc:  # both routes must raise alike
        return type(exc), str(exc)


@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES, ids=lambda s: s.value)
def test_verdict_matches_check_certificate(scheme):
    rng = np.random.default_rng(13)
    bad = [(scheme, 4.0, 1.0, 11.0, 0.05), (scheme, -1.0, 4.0, 11.0, 0.05), (Scheme.LM, 1.0, 4.0, 11.0, 0.05)]
    for point in _reference_draws(scheme, rng) + bad:
        for c in (None, 0.0, float(rng.uniform(0.0, 1.0))):
            want = _passed(lambda *args, c: check_certificate(*args, c=c).passed, *point, c=c)
            assert _passed(_verdict_passed, *point, c=c) == want, (point, c)


@pytest.mark.parametrize("m, M", [(1.0, 4.0), (2.0, 2.0)], ids=["grid", "one_node"])
def test_polyval_is_numpy_polyval_bit_for_bit(m, M):
    # on the lam grid, the in-place Horner gives numpy's values and signs of
    # zero: every pattern of 0.0, -0.0 and 1.5 up to degree 4, then draws
    lams = certificates._lam_grid(m, M)
    rng = np.random.default_rng(5)
    patterns = [list(c) for n in range(1, 6) for c in itertools.product((0.0, -0.0, 1.5), repeat=n)]
    draws = [[rng.choice([0.0, -0.0, rng.normal() * 10 ** rng.uniform(-8, 8)]) for _ in range(n)] for n in range(1, 6)]
    for c in patterns + 50 * draws:
        got, want = certificates._polyval(lams, [float(x) for x in c]), npoly.polyval(lams, c)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), c
    # the patterns reach polyval's sign-of-zero rule: a Horner that started
    # from c[-1] * x, without its + x * 0, would end on -0.0 for some
    assert any(np.signbit(c[-2] + (c[-1] * lams) * lams).any() for c in patterns if len(c) == 2)


@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES, ids=lambda s: s.value)
def test_verdict_is_the_full_grid_rule(scheme):
    # deciding A from the point's tail minimum, and the quartic only where
    # the norm and A pass, gives the rule on both full grids; the values
    # the verdict hands on are the grid's, bit for bit
    rng = np.random.default_rng(17)
    seen = dict.fromkeys(("norm_invalid", "A_fails", "quartic_fails", "passes"), 0)
    # gamma = 1 < sqrt(M): every certificate scheme's b is about 1/gamma, so b^2 >= a = 1/M
    for scheme_, m, M, gamma, h in _reference_draws(scheme, rng) + [(scheme, 1.0, 4.0, 1.0, 0.01)]:
        point = _point(scheme_, m, M, gamma, h)
        cs = [point.rate.c, 0.0, 0.5, 1.0, float(rng.uniform(0.0, 1.0)), float(10 ** rng.uniform(-8.0, -1.0))]
        try:  # just past the largest rate, where a probe often fails on the quartic alone
            cs.append(max_certified_rate(scheme_, m, M, gamma, h) + 2.0 * RATE_TOL)
        except CertificateError:
            pass
        for c in cs:
            grid = _reference_grid(scheme_, m, M, gamma, h, c)
            passed, a0, quartic, pq = _verdict(point, m, M, c)
            assert passed == _full_grid_passed(grid), (m, M, gamma, h, c)
            assert np.array_equal(a0 + point.tail, grid.pa)
            a_passes = point.rate.norm_valid and grid.pa.min() > grid.guard_a
            assert (pq is not None) == a_passes
            if pq is not None:
                assert np.array_equal(pq, grid.pq) and np.array_equal(certificates._polyval(grid.lams, quartic), pq)
            key = "norm_invalid" if not point.rate.norm_valid else "A_fails" if not a_passes else None
            seen[key or ("passes" if passed else "quartic_fails")] += 1
    assert min(seen.values()) > 0, seen


def test_rate_search_evaluates_only_what_decides_a_probe(monkeypatch):
    # one point per rate search: A's tail, its minimum and its guard once;
    # each probe the quartic's guard, and its grid only once A has passed
    calls = {"tail": 0, "quartic": 0, "guard_a": 0, "guard_q": 0}
    probes = []
    polyval, guard, verdict = certificates._polyval, certificates._guard, certificates._verdict

    def counted_polyval(x, c):
        calls["tail" if len(c) == 2 else "quartic"] += 1
        return polyval(x, c)

    def counted_guard(lam_coeffs, m, M):
        calls["guard_a" if len(lam_coeffs) == 2 else "guard_q"] += 1
        return guard(lam_coeffs, m, M)

    def recorded_verdict(point, m, M, c):
        probes.append(c)
        return verdict(point, m, M, c)

    monkeypatch.setattr(certificates, "_polyval", counted_polyval)
    monkeypatch.setattr(certificates, "_guard", counted_guard)
    monkeypatch.setattr(certificates, "_verdict", recorded_verdict)
    scheme, m, M, gamma = Scheme.BAO, 1.0, 4.0, 26.0
    h = 0.8 * certified_stepsize_threshold(scheme, m, M, gamma)
    max_certified_rate(scheme, m, M, gamma, h)
    a_passes = [_reference_grid(scheme, m, M, gamma, h, c) for c in probes]
    a_passes = [grid.pa.min() > grid.guard_a for grid in a_passes]
    assert calls["tail"] == calls["guard_a"] == 1
    assert calls["guard_q"] == len(probes) > math.log2(1.0 / RATE_TOL)
    assert calls["quartic"] == sum(a_passes) and 0 < sum(a_passes) < len(probes)


#: per scheme, the friction (a function of M) from which admissible draws
#: start; for kinetic_em and ses it is the floor of their hypotheses
_FLOORS = {
    Scheme.KINETIC_EM: lambda M: 2 * math.sqrt(M),
    Scheme.SES: lambda M: 5 * math.sqrt(M),
    Scheme.BAO: lambda M: math.sqrt(6 * M),
    Scheme.OAB: lambda M: math.sqrt(6 * M),
    Scheme.BAOAB: lambda M: 2 * math.sqrt(M),
    Scheme.OBABO: lambda M: 2 * math.sqrt(M),
}


def _reference_stepsize(scheme, m, M, gamma):
    """max_certified_stepsize with every probe a full check, and the failing
    end of its last bracket (None when the cap passes)."""
    failing = []

    def passes(h):
        ok = check_certificate(scheme, m, M, gamma, h).passed
        if not ok:
            failing.append(h)
        return ok

    lo = search(passes, STEPSIZE_CAP, STEPSIZE_CAP, 59, STEPSIZE_TOL)
    return lo, min((x for x in failing if x > lo), default=None)


def _reference_rate(scheme, m, M, gamma, h):
    """max_certified_rate with every probe a full check, and the failing end
    of its last bracket; (0.0, 0.0) when c = 0 fails."""
    failing = [1.0]  # the bisection's upper end, never probed

    def passes(c):
        ok = check_certificate(scheme, m, M, gamma, h, c=c).passed
        if not ok:
            failing.append(c)
        return ok

    if not passes(0.0):
        return 0.0, 0.0
    lo = bisect(passes, 0.0, 1.0, RATE_TOL)
    return lo, min(x for x in failing if x > lo)


@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES, ids=lambda s: s.value)
def test_searches_match_full_check_searches(scheme):
    # the searches decide on the verdict alone; the full check, oracle
    # included, still passes at each answer and fails past it
    M, floor = 4.0, _FLOORS[scheme](4.0)
    cases = [(2.0, 2.0, 11.0, 0.05)]  # m = M
    cases += [(1.0, M, floor * (1.0 - 1e-3), 0.05), (1.0, M, floor * (1.0 + 1e-3), 0.05)]
    cases.append((1.0, M, 0.8 * math.sqrt(M), 0.05))  # no stepsize passes
    if scheme is Scheme.SES:
        cases.append((1.0, M, 44.0, 0.05))  # passes at the cap
    cases += [point[1:] for point in _reference_draws(scheme, np.random.default_rng(13))[1:4]]
    answers = []
    for m, M, gamma, h_draw in cases:
        h, h_fail = _reference_stepsize(scheme, m, M, gamma)
        got = max_certified_stepsize(scheme, m, M, gamma)
        assert type(got) is float and got == h, (m, M, gamma)
        answers.append(h)
        if h > 0.0:
            rep = check_certificate(scheme, m, M, gamma, h)
            assert rep.passed and rep.oracle_agrees, rep
        if h_fail is not None:
            assert not check_certificate(scheme, m, M, gamma, h_fail).passed

        h_use = 0.8 * h if h > 0.0 else h_draw
        c, c_fail = _reference_rate(scheme, m, M, gamma, h_use)
        got = max_certified_rate(scheme, m, M, gamma, h_use)
        assert type(got) is float and got == c, (m, M, gamma, h_use)
        if c_fail > 0.0:  # c_fail = 0.0: c = 0 fails, nothing is certified and the rate reads 0.0
            rep = check_certificate(scheme, m, M, gamma, h_use, c=c)
            assert rep.passed and rep.oracle_agrees, rep
        assert not check_certificate(scheme, m, M, gamma, h_use, c=c_fail).passed
    assert 0.0 in answers
    if scheme is Scheme.SES:
        assert STEPSIZE_CAP in answers


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: just above gamma = sqrt(M) the grid certificate passes at h = 10/2**56 "
    "on round-off margins that the eigenvalue oracle rejects",
)
def test_certified_stepsize_agrees_with_the_oracle_just_above_sqrt_M():
    for scheme in CERTIFICATE_SCHEMES:
        h = max_certified_stepsize(scheme, 1.0, 4.0, 2.1)
        assert h == 0.0 or check_certificate(scheme, 1.0, 4.0, 2.1, h).oracle_agrees, scheme


def test_check_certificate_kinetic_em_example():
    rep = check_certificate(Scheme.KINETIC_EM, 1.0, 4.0, 4.0, 0.1)
    assert rep.passed and rep.oracle_agrees
    # P_A(lam)/(h lam) at lam = 1 equals -m/(2 gamma) + 2/gamma - h/M = 0.35
    abc = build_abc(Scheme.KINETIC_EM, StepParams(0.1, 4.0), rep.a, rep.b, rep.c)
    pa1 = abc.A[0] + abc.A[1] + abc.A[2]
    assert pa1 / 0.1 == pytest.approx(0.35)
    assert rep.min_margin_A > 0 and rep.min_margin_ACB2 > 0
    assert 1.0 <= rep.worst_lambda <= 4.0


def test_check_certificate_rejects_overclaimed_rate():
    # doubling c beyond m h / gamma (4x the certified rate) breaks the
    # certificate at threshold parameters, while 2x still passes
    m, M, gamma = 4.0, 4.0, 4.0  # gamma^2 = 4M exactly
    h = 0.999 * 0.5 / gamma
    assert check_certificate(Scheme.KINETIC_EM, m, M, gamma, h, c=2 * m * h / gamma).passed is False
    assert check_certificate(Scheme.KINETIC_EM, m, M, gamma, h, c=m * h / gamma).passed is True


def test_check_certificate_single_point_interval():
    # m = M: one lambda; polynomial and oracle signs must agree there
    rep = check_certificate(Scheme.BAO, 2.0, 2.0, 8.0, 0.05)
    assert rep.grid_points == 1
    assert rep.passed and rep.oracle_agrees
    assert rep.worst_lambda == 2.0


@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES)
def test_certificate_passes_on_admissible_draws(scheme):
    # reduced-count randomized suite; the full 10^3-per-scheme version runs
    # in the acceptance module
    rng = np.random.default_rng(1)
    done = 0
    while done < 50:
        m = 10 ** rng.uniform(-1, 0.5)
        M = m * 10 ** rng.uniform(0, 2)
        gamma = _FLOORS[scheme](M) * 10 ** rng.uniform(0.05, 1)
        hmax = certified_stepsize_threshold(scheme, m, M, gamma)
        if hmax <= 0:
            continue
        h = rng.uniform(0.05, 0.999) * hmax
        rep = check_certificate(scheme, m, M, gamma, h)
        assert rep.passed, (m, M, gamma, h, rep)
        assert rep.oracle_agrees
        assert rep.oracle_min_eig > 0
        done += 1


def test_max_certified_rate_dominates_certified_rate():
    cases = [
        (Scheme.KINETIC_EM, 1.0, 4.0, 4.0, 0.1),
        (Scheme.BAOAB, 1.0, 4.0, 8.0, None),
        (Scheme.SES, 1.0, 4.0, 11.0, None),
    ]
    for scheme, m, M, gamma, h in cases:
        if h is None:
            h = 0.8 * certified_stepsize_threshold(scheme, m, M, gamma)
        r = certified_rate(scheme, m, M, gamma, h)
        c_max = max_certified_rate(scheme, m, M, gamma, h)
        assert c_max >= r.c


def test_max_certified_rate_is_zero_when_nothing_certifiable():
    assert not check_certificate(Scheme.KINETIC_EM, 1.0, 4.0, 4.0, 5.0, c=0.0).passed
    assert max_certified_rate(Scheme.KINETIC_EM, 1.0, 4.0, 4.0, 5.0) == 0.0
    # at h = 1e200 the blocks of H overflow: c = 0 fails on them, and numpy warns of nothing
    assert max_certified_rate(Scheme.BAO, 1.0, 4.0, 10.0, 1e200) == 0.0


@pytest.mark.parametrize(
    "scheme, m, M, error",
    [
        (Scheme.ABO, 1.0, 4.0, UnsupportedScheme),
        (Scheme.LM, 1.0, 4.0, UnsupportedScheme),
        (Scheme.BAO, 4.0, 1.0, CertificateError),
        (Scheme.BAO, -1.0, 4.0, CertificateError),
    ],
    ids=["abo", "lm", "m_above_M", "m_negative"],
)
def test_certificate_searches_raise_on_bad_input(scheme, m, M, error):
    # bad input is not "no stepsize passes": both searches raise the same error
    with pytest.raises(error) as rate_err:
        max_certified_rate(scheme, m, M, 11.0, 0.01)
    with pytest.raises(error) as step_err:
        max_certified_stepsize(scheme, m, M, 11.0)
    assert str(step_err.value) == str(rate_err.value)


def test_max_certified_rate_unimodal_in_h():
    # the certifiable rate grows with h away from zero and collapses to
    # zero at the edge of the certifiable stepsize range
    hs = [0.02, 0.05, 0.08, 0.11]
    vals = [max_certified_rate(Scheme.BAO, 1.0, 1.0, 5.0, h) for h in hs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    h_edge = max_certified_stepsize(Scheme.BAO, 1.0, 1.0, 5.0)
    peak = max_certified_rate(Scheme.BAO, 1.0, 1.0, 5.0, 0.75 * h_edge)
    near_edge = max_certified_rate(Scheme.BAO, 1.0, 1.0, 5.0, 0.999 * h_edge)
    assert near_edge < peak


def test_max_certified_stepsize_bao_bracket():
    # certified threshold lands inside [1, 2] x (1 - eta)/sqrt(6M)
    h = max_certified_stepsize(Scheme.BAO, 1.0, 1.0, 5.0)
    eta = math.exp(-5.0 * h)
    assert (1 - eta) / math.sqrt(6.0) <= h <= 2 * (1 - eta) / math.sqrt(6.0)
    # and it is at least the hypothesis threshold (sufficient condition)
    assert h >= certified_stepsize_threshold(Scheme.BAO, 1.0, 1.0, 5.0)


@pytest.mark.parametrize("gamma", [11.0, 22.0, 44.0])
@pytest.mark.parametrize("scheme", CERTIFICATE_SCHEMES, ids=lambda s: s.value)
def test_certificate_searches_stop_at_the_pass_boundary(scheme, gamma):
    m, M = 1.0, 4.0
    h = max_certified_stepsize(scheme, m, M, gamma)
    assert check_certificate(scheme, m, M, gamma, h).passed
    if h < STEPSIZE_CAP:  # ses at gamma >= 22 still passes at the cap
        assert not check_certificate(scheme, m, M, gamma, h + STEPSIZE_TOL).passed
    h_use = 0.8 * certified_stepsize_threshold(scheme, m, M, gamma)
    c = max_certified_rate(scheme, m, M, gamma, h_use)
    assert check_certificate(scheme, m, M, gamma, h_use, c=c).passed
    assert not check_certificate(scheme, m, M, gamma, h_use, c=c + RATE_TOL).passed


def _threshold(t):
    """The predicate x < t, recording every point it is asked about."""
    seen = []

    def passes(x):
        seen.append(x)
        return x < t

    return passes, seen


@pytest.mark.parametrize(
    "t, start, cap, want",
    [
        # (edge, probes): halving brackets 0.3 in [5/32, 10/32] after 7 probes, and
        # 8 bisections leave steps of 5/8192: the edge is 5/32 + 235 * 5/8192
        (0.3, 10.0, 10.0, (0.2996826171875, 15)),
        # doubling brackets 7 in [4, 8] after 4 probes; 12 bisections, steps of 2**-10
        (7.0, 1.0, 100.0, (6.9990234375, 16)),
        (50.0, 1.0, 40.0, (40.0, 7)),  # doubling reaches a passing cap: the cap
        (20.0, 10.0, 10.0, (10.0, 1)),  # start is a passing cap
        (1e-30, 1.0, 1.0, (0.0, 11)),  # nothing passes in 10 halvings: 0.0
    ],
)
def test_bracket(t, start, cap, want):
    # search brackets the edge, then bisects it to the width 1e-3
    passes, seen = _threshold(t)
    assert search(passes, start, cap, 10, 1e-3) == want[0]
    assert len(seen) == len(set(seen)) == want[1]  # no point is tried twice


def test_bisect_stops_at_tol():
    passes, seen = _threshold(0.3)
    lo = bisect(passes, 0.0, 1.0, 1e-6)
    assert lo < 0.3 <= lo + 1e-6
    assert len(seen) == 20  # 2**-20 is the first width below 1e-6


def test_bisect_tol_below_float_spacing_terminates():
    # float spacing in [2**18, 2**19) is 2**-34 ~ 5.8e-11, above tol, so the
    # search has to end on adjacent floats
    passes, _ = _threshold(3.0e5 + 0.1)
    lo = bisect(passes, 2.0**18, 2.0**19, 1e-12)
    assert passes(lo)
    assert not passes(math.nextafter(lo, math.inf))


def test_step_matrix_overdamped():
    P = step_matrix(Scheme.OVERDAMPED_EM, 2.0, StepParams(0.1, 1.0))
    assert np.allclose(P, [[0.8, 0.0], [0.0, 0.0]])
    # exactly the position factor 1 - h lam; v' is the step's draw, and LM's
    # v, the previous draw, enters x at sqrt(2h)/2
    for scheme in (Scheme.OVERDAMPED_EM, Scheme.LM):
        for h, lam in ((0.1, 2.0), (0.37, 5.3), (1e-6, 1e3)):
            P = step_matrix(scheme, lam, StepParams(h, 1.0))
            p01 = math.sqrt(2.0 * h) * 0.5 if scheme is Scheme.LM else 0.0
            assert np.array_equal(P, [[1.0 - h * lam, p01], [0.0, 0.0]])


def test_composition_bound_values():
    M = 4.0
    a = 1.0 / M
    h = 0.5 / math.sqrt(M)  # the regime h <= 1/(2 sqrt(M))
    assert composition_bound("AB", a, h, M) <= REFERENCE_BOUND_CONSTANTS["AB"]
    assert composition_bound("OB", a, h, M) <= REFERENCE_BOUND_CONSTANTS["OB"]
    assert composition_bound("BAO", a, h, M) <= REFERENCE_BOUND_CONSTANTS["BAO"]
    assert composition_bound("ABO", a, h, M) <= REFERENCE_BOUND_CONSTANTS["ABO"]
    assert composition_bound(["AB", "O"], a, h, M) <= REFERENCE_BOUND_CONSTANTS["AB,O"]


def test_composition_bound_identity_limit():
    # h = 0: a single word reduces to the pure norm-equivalence factor 3
    assert composition_bound("AB", 0.25, 0.0, 4.0) == pytest.approx(3.0)
    assert composition_bound("BA", 0.25, 0.0, 4.0) == pytest.approx(3.0)
    assert composition_bound("A", 0.25, 0.0, 4.0) == pytest.approx(3.0)
    assert composition_bound("B", 0.25, 0.0, 4.0) == pytest.approx(3.0)


def test_composition_bound_unsupported():
    with pytest.raises(CertificateError):
        composition_bound("XYZ", 0.25, 0.1, 4.0)
    with pytest.raises(CertificateError):
        composition_bound([], 0.25, 0.1, 4.0)


def test_stepsize_restriction_scaling_in_gamma():
    # restriction ~ 1/gamma for the kinetic Euler scheme, ~ 1/sqrt(M)
    # (gamma-independent) for the kick-drift-refresh splittings
    M = 4.0
    em = [max_certified_stepsize(Scheme.KINETIC_EM, 1.0, M, g) for g in (11.0, 22.0, 44.0)]
    assert em[0] / em[1] == pytest.approx(2.0, rel=0.05)
    assert em[1] / em[2] == pytest.approx(2.0, rel=0.05)
    bao = [max_certified_stepsize(Scheme.BAO, 1.0, M, g) for g in (11.0, 22.0, 44.0)]
    assert max(bao) / min(bao) <= 1.05
    # hypothesis thresholds carry the same scaling
    hyp = [certified_stepsize_threshold(Scheme.SES, 1.0, M, g) for g in (11.0, 22.0, 44.0)]
    assert hyp[0] / hyp[2] == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize(
    "gamma",
    [
        1e5,
        pytest.param(
            1e8,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 13: the bracket is narrower than the absolute STEPSIZE_TOL, "
                "so the search returns its lower end 10/2**30 unbisected",
            ),
        ),
    ],
)
def test_kinetic_em_certified_stepsize_scales_like_1_over_gamma(gamma):
    # far above the friction floor kinetic_em's certified stepsize is 1.466/gamma
    want = 1e3 * max_certified_stepsize(Scheme.KINETIC_EM, 1.0, 4.0, 1e3)
    assert gamma * max_certified_stepsize(Scheme.KINETIC_EM, 1.0, 4.0, gamma) == pytest.approx(want, rel=1e-3)


def test_best_certified_rate_scales_like_m_over_M():
    # best rate ~ m/M: at gamma tied to sqrt(M) the certified rate at 80%
    # of the threshold scales like m/M across condition numbers
    vals = []
    for M in (4.0, 16.0, 64.0):
        gamma = 11.0 * math.sqrt(M / 4.0)
        h = 0.8 * certified_stepsize_threshold(Scheme.BAOAB, 1.0, M, gamma)
        vals.append(max_certified_rate(Scheme.BAOAB, 1.0, M, gamma, h) * M)
    assert max(vals) / min(vals) <= 1.2  # m/M scaling collapses the values
