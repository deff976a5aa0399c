"""Contraction certificates via positive definiteness of H = (1-c) W - P^T W P.

For a quadratic form with structure matrix W = [[1, b], [b, a]] and a
difference-process update z' = P z (P depends on the mean-value Hessian Q),
one-step contraction at rate c is equivalent to H being positive definite.
Because every entry of H is a polynomial in Q, and Q is symmetric with
spectrum in [m, M], the problem reduces to scalar polynomial positivity:

    H = [[A(Q), B(Q)], [B(Q), C(Q)]]  is PD
    iff  A(lam) > 0 and (AC - B^2)(lam) > 0 for every lam in [m, M].

A scheme's mode matrix comes from its step: :func:`step_matrix` runs the
integrators' step core on a scalar mode (basis states, Python floats), and
for kinetic_em, bao, oab and ses that is also the certificate block of
:func:`transition_matrix_P`.  Only the conjugate blocks of baoab and obabo
are written out by hand there (see its docstring for why).  Every block
applies the kick once, so P is affine in lam, P(lam) = P0 + lam P1, and
the A/B/C polynomials are derived from it rather than expanded by hand:

    H(lam) = (1-c) W - P0^T W P0 - lam (P0^T W P1 + P1^T W P0) - lam^2 P1^T W P1.

Positivity is certified on a dense grid backed by a derivative bound (so
the grid minimum genuinely implies positivity between nodes), and the
polynomial route is cross-checked against direct 2x2 eigenvalues at every
grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from numpy.polynomial import polynomial as npoly

from .coupling import certified_rate
from .integrators import Scheme, StepParams, _mode_map


class CertificateError(ValueError):
    """Invalid certificate request."""


class UnsupportedScheme(CertificateError):
    """Scheme has no direct certificate (first-order permutations route
    through bao/oab via the boundary-operator argument)."""


#: schemes with a direct A/B/C certificate; baoab and obabo are analyzed
#: through their conjugate single-gradient blocks (see transition_matrix_P)
CERTIFICATE_SCHEMES = (
    Scheme.KINETIC_EM,
    Scheme.BAO,
    Scheme.OAB,
    Scheme.BAOAB,
    Scheme.OBABO,
    Scheme.SES,
)

GRID_POINTS = 2048
#: search cap of :func:`max_certified_stepsize`, and the bisection widths
STEPSIZE_CAP = 10.0
STEPSIZE_TOL = 1e-8
RATE_TOL = 1e-10


def transition_matrix_P(scheme: Scheme, lam: float, params: StepParams) -> np.ndarray:
    """Difference-process one-step matrix certified for a scalar mode Q = lam.

    For kinetic_em, bao, oab and ses this is :func:`step_matrix`, the step
    core's own map.  For baoab and obabo it is the conjugate block
    A(h/2) B(h) A(h/2) O(h), respectively A(h) B(h/2) O(h) B(h/2): it kicks
    once, so it is affine in lam, and shares its spectrum with the full
    step, which kicks twice.  These two blocks are written out by hand:
    composed from their words they round differently, enough to move
    obabo's stability thresholds in the zone where exp(-gamma h) is below
    ~1e-16.  eta = exp(-gamma h) in both.
    """
    scheme = Scheme(scheme)
    if scheme not in CERTIFICATE_SCHEMES:
        raise UnsupportedScheme(
            f"{scheme.value} has no certificate block; permuted splittings route through bao/oab"
        )
    if scheme not in (Scheme.BAOAB, Scheme.OBABO):
        return _mode_map(scheme, lam, params)[0]
    h, eta = params.h, params.eta
    if scheme is Scheme.BAOAB:
        return np.array(
            [
                [1.0 - h * h * lam / 2.0, h - h**3 * lam / 4.0],
                [-h * eta * lam, eta - h * h * eta * lam / 2.0],
            ]
        )
    half = 0.5 * h * (1.0 + eta)
    return np.array([[1.0, h], [-half * lam, eta - h * half * lam]])


def step_matrix(scheme: Scheme, lam: float, params: StepParams) -> np.ndarray:
    """Exact one-step difference map of the integrator on a scalar mode.

    Read off the step core on Python floats (the P of
    :func:`langevin_contract.integrators.affine_mode_map`); for LM the
    previous draw is 0.0, and the overdamped velocity passes through.  For
    baoab/obabo it is the full symmetric step, not the certificate block.
    """
    return _mode_map(Scheme(scheme), lam, params)[0]


def _affine_P(scheme: Scheme, params: StepParams) -> tuple[np.ndarray, np.ndarray]:
    """(P0, P1) with P(lam) = P0 + lam P1; exact because every certificate
    block applies the kick operator once."""
    P0 = transition_matrix_P(scheme, 0.0, params)
    return P0, transition_matrix_P(scheme, 1.0, params) - P0


@dataclass(frozen=True)
class AbcPolynomials:
    """Entries of H as polynomials in lam (ascending coefficients, deg <= 2)."""

    scheme: Scheme
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def _abc(P0: np.ndarray, P1: np.ndarray, W: np.ndarray, c: float) -> tuple[np.ndarray, ...]:
    """(A, B, C) for P(lam) = P0 + lam P1 and the weight matrix W."""
    cross = P0.T @ W @ P1
    H = np.stack([(1.0 - c) * W - P0.T @ W @ P0, -(cross + cross.T), -(P1.T @ W @ P1)])
    return H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]


def build_abc(scheme: Scheme, params: StepParams, a: float, b: float, c: float) -> AbcPolynomials:
    """Coefficient form of A, B, C for the certificate block of ``scheme``.

    Derived from P(lam) = P0 + lam P1 (see the module docstring).  With the
    scheme's certified (a, b) the constant term of B collapses to -b c,
    which is what makes the m-independent stepsize thresholds work.
    """
    scheme = Scheme(scheme)
    W = np.array([[1.0, b], [b, a]])
    return AbcPolynomials(scheme, *_abc(*_affine_P(scheme, params), W, c))


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a positivity check over lam in [m, M].

    ``norm_valid`` records b^2 < a; outside that region the weight matrix
    is indefinite, the quadratic form is not a norm, and ``passed`` is
    forced False regardless of the polynomial margins.
    """

    scheme: Scheme
    m: float
    M: float
    gamma: float
    h: float
    a: float
    b: float
    c: float
    passed: bool
    min_margin_A: float
    min_margin_ACB2: float
    worst_lambda: float
    oracle_min_eig: float
    oracle_agrees: bool
    norm_valid: bool
    grid_points: int
    eta_convention: str = "exp(-gamma h)"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scheme"] = self.scheme.value
        return d


def _derivative_bound(coeffs: np.ndarray, hi: float) -> float:
    """sup |d/dlam p(lam)| on [0, hi] via the coarse coefficient bound."""
    return float(sum(k * abs(ck) * hi ** (k - 1) for k, ck in enumerate(coeffs) if k > 0))


def _min_eig_H_grid(P0: np.ndarray, P1: np.ndarray, lams: np.ndarray, W: np.ndarray, c: float) -> np.ndarray:
    """Vectorized min eigenvalue of H over the lam grid, assembled from
    P(lam) = P0 + lam P1.

    Each entry of P^T W P is written out as its four terms
    (P[k][i] W[k, l]) P[l][j] over grid vectors, added k outer, l inner,
    from the first term.  That is the summation order of the einsum
    ``"nki,kl,nlj->nij"`` the tests keep as the reference, so the results
    are bit-identical to it; numpy runs a three-operand einsum through its
    generic loop, about ten times slower than these vector operations.
    """
    P = [[P0[k, i] + lams * P1[k, i] for i in range(2)] for k in range(2)]

    def entry(i: int, j: int) -> np.ndarray:
        t = [(P[k][i] * W[k, l]) * P[l][j] for k in range(2) for l in range(2)]
        return (1.0 - c) * W[i, j] - (((t[0] + t[1]) + t[2]) + t[3])

    H = [[entry(i, j) for j in range(2)] for i in range(2)]
    tr = H[0][0] + H[1][1]
    det = H[0][0] * H[1][1] - H[0][1] * H[1][0]
    return 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))


def check_certificate(
    scheme: Scheme,
    m: float,
    M: float,
    gamma: float,
    h: float,
    a: float | None = None,
    b: float | None = None,
    c: float | None = None,
) -> CertificateReport:
    """Certify A > 0 and AC - B^2 > 0 on lam in [m, M].

    Defaults (a, b, c) to the scheme's certified triple.  AC - B^2 is
    expanded by coefficient convolution (degree <= 4), then both
    polynomials are evaluated on a uniform grid; positivity is asserted
    only when the grid minimum exceeds L * dlam / 2 with L the coarse
    derivative bound, which rules out a sign change between nodes.  Each
    grid point is independently checked by the minimum eigenvalue of the
    2x2 matrix H assembled from P, and the sign agreement of the two
    routes is reported.
    """
    scheme = Scheme(scheme)
    if not (0.0 < m <= M):
        raise CertificateError(f"need 0 < m <= M, got m={m}, M={M}")
    rate = certified_rate(scheme, m, M, gamma, h)
    a = rate.a if a is None else a
    b = rate.b if b is None else b
    c = rate.c if c is None else c
    # one (P0, P1) for both the polynomial route and the eigenvalue oracle
    P0, P1 = _affine_P(scheme, StepParams(h, gamma))
    W = np.array([[1.0, b], [b, a]])
    A, B, C = _abc(P0, P1, W, c)

    lams = np.linspace(m, M, GRID_POINTS) if M > m else np.array([m])
    pa = npoly.polyval(lams, A)
    quartic = npoly.polysub(npoly.polymul(A, C), npoly.polymul(B, B))
    pq = npoly.polyval(lams, quartic)

    if M > m:
        dlam = (M - m) / (GRID_POINTS - 1)
        guard_a = _derivative_bound(A, M) * dlam / 2.0
        guard_q = _derivative_bound(quartic, M) * dlam / 2.0
    else:
        guard_a = guard_q = 0.0
    norm_valid = b * b < a
    passed = bool(norm_valid and pa.min() > guard_a and pq.min() > guard_q)

    eigs = _min_eig_H_grid(P0, P1, lams, W, c)
    poly_pd = (pa > 0.0) & (pq > 0.0)
    oracle_pd = eigs > 0.0
    agrees = bool(np.array_equal(poly_pd, oracle_pd))

    margin_a, margin_q = pa / lams, pq / lams
    worst = int(np.argmin(np.minimum(margin_a, margin_q)))
    return CertificateReport(
        scheme=scheme,
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


def bracket(passes, start: float, cap: float, halvings: int) -> tuple[float | None, float | None]:
    """Bracket the edge of a pass region (0, x*), trying each point once.

    From ``start`` (at most ``cap``) doubles upward, clamped at ``cap``,
    while ``passes`` holds, or halves downward, at most ``halvings`` times,
    while it fails.  Returns (lo, hi) with lo passing and hi failing; hi is
    None when ``cap`` passes and lo is None when no tried point passes.
    """
    x = start
    if passes(x):
        while x < cap:
            nxt = min(2.0 * x, cap)
            if not passes(nxt):
                return x, nxt
            x = nxt
        return x, None
    for _ in range(halvings):
        hi, x = x, x / 2.0
        if passes(x):
            return x, hi
    return None, x


def bisect(passes, lo: float, hi: float, tol: float) -> float:
    """Shrink a bracket (lo passing, hi failing) to width ``tol``; return lo.

    Also stops when the midpoint rounds onto an endpoint, so a ``tol``
    below the float spacing of the bracket cannot loop forever.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_certified_rate(scheme: Scheme, m: float, M: float, gamma: float, h: float) -> float:
    """Largest c in (0, 1) passing the certificate with the scheme's (a, b).

    H is monotone decreasing in c, so bisection on [0, 1] applies, to width
    :data:`RATE_TOL`.  Raises when even c = 0 fails (no contraction
    certified at these parameters).
    """
    rate = certified_rate(scheme, m, M, gamma, h)

    def passes(c: float) -> bool:
        return check_certificate(scheme, m, M, gamma, h, a=rate.a, b=rate.b, c=c).passed

    if not passes(0.0):
        raise CertificateError(
            f"{Scheme(scheme).value} certifies no contraction at h={h}, gamma={gamma}"
        )
    return bisect(passes, 0.0, 1.0, RATE_TOL)


def max_certified_stepsize(scheme: Scheme, m: float, M: float, gamma: float) -> float:
    """Largest h whose certificate passes with the certified (a, b, c)(h).

    The pass region is taken to be an interval (0, h*): halving from
    :data:`STEPSIZE_CAP` brackets h*, then bisection resolves it to
    :data:`STEPSIZE_TOL`.  Returns the cap when the cap passes and 0.0 when
    no stepsize passes (friction below the scheme's implicit floor).
    """

    def passes(h: float) -> bool:
        try:
            return check_certificate(scheme, m, M, gamma, h).passed
        except (CertificateError, OverflowError):
            return False

    lo, hi = bracket(passes, STEPSIZE_CAP, STEPSIZE_CAP, 59)
    if lo is None:
        return 0.0
    if hi is None:
        return lo
    return bisect(passes, lo, hi, STEPSIZE_TOL)


# boundary-operator amplification templates: per operator word, the
# coefficient pair (c1, c2) such that the squared norm of the mapped
# difference is at most 3 (c1 |xbar|^2 + c2 |vbar|^2); the bound constant
# is then 3 max(c1, c2 / a).  Words use full-step A/B unless noted.
def _pair_coeffs(op: str, a: float, h: float, M: float) -> tuple[float, float]:
    hM2 = h * h * M * M
    if op == "A":
        return 1.0, h * h + a / 2.0
    if op == "B":
        return 0.5 + a * hM2, a
    if op == "O":
        return 0.5, a / 2.0
    if op == "AB":
        return 1.0 + 2.0 * hM2 * a, h * h + a + 2.0 * h * h * hM2 * a
    if op == "BA":
        return 1.0 + a * hM2, h * h + a
    if op == "OB":  # half-step B
        return 0.5 + a * hM2 / 4.0, a
    if op == "BAO":  # half-step B and A, full O
        return 1.0 + a * hM2 / 4.0 + h * h * hM2 / 8.0, h * h / 2.0 + a
    if op == "ABO":  # full A, half-step B and O
        return 1.0 + a * hM2 / 2.0, a + h * h + a * h * h * hM2 / 2.0
    raise CertificateError(f"unsupported boundary operator {op!r}")


#: constants the amplification bounds must stay below at a = 1/M,
#: h <= 1/(2 sqrt(M)); the chain entry covers ["AB", "O"] compositions
REFERENCE_BOUND_CONSTANTS = {"AB": 7.0, "BAO": 7.0, "ABO": 8.0, "OB": 6.0, "AB,O": 27.0}


def composition_bound(ops, a: float, h: float, M: float) -> float:
    """Squared-norm amplification constant of a boundary-operator word list.

    Each word contributes 3 max(c1, c2 / a) from its coefficient template;
    a list multiplies the per-word constants (the decomposition argument
    that reduces permuted splittings to the bao/oab certificates).  At
    h = 0 a single word degenerates to the pure norm-equivalence factor 3.
    """
    if isinstance(ops, str):
        ops = [ops]
    if not ops:
        raise CertificateError("empty operator list")
    total = 1.0
    for op in ops:
        c1, c2 = _pair_coeffs(op, a, h, M)
        total *= 3.0 * max(c1, c2 / a)
    return total
