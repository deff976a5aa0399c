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
the grid minimum genuinely implies positivity between nodes), and every
report cross-checks the polynomial route against direct 2x2 eigenvalues
at every grid point.

A check comes in two halves.  Only c moves between the probes of a rate
search, and it enters H only through (1-c) W, so it moves only the
constant terms of A, B and C.  Everything else is one *point*
(:func:`_point`), built once per check and once per rate search: the certified
rate, W, P0 and P1, the entries of P0^T W P0, the lam^1 and lam^2
coefficients of A, B and C as floats, the lam grid (one read-only array
per (m, M), :func:`_lam_grid`), A's Horner tail on it and the tail's
minimum, and A's grid guard, which c does not move because the guard
skips the constant term.  The c half is :func:`_verdict`, and a probe
evaluates only what decides it: the constant terms, the quartic
AC - B^2's coefficients and its guard (on every probe, so an M beyond
the guard's float range raises on every route), then A as
A[0] + min(tail) > guard_a, and only when the norm is valid and A
passes, the quartic on the grid.  Deciding A from the tail's minimum is
exact: adding a constant keeps order under round-to-nearest, so
min(A[0] + tail) is A[0] + min(tail) bit for bit.
:func:`check_certificate` takes A on the grid (the tail plus one add)
and the verdict's quartic values, evaluating them itself, once, where A
failed, and adds the eigenvalue oracle, H = (1-c) W - P^T W P from the
point's P0, P1 and W with its minimum eigenvalue at every node, and the
margins.  The searches decide on the verdict alone: they read only
``passed``, so no search probe runs the oracle, while every report
carries it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import CertifiedRate, certified_rate
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
        try:
            h3 = h**3
        except OverflowError:
            raise CertificateError(f"baoab's certificate block leaves the float range at h={h}") from None
        return np.array(
            [
                [1.0 - h * h * lam / 2.0, h - h3 * lam / 4.0],
                [-h * eta * lam, eta - h * h * eta * lam / 2.0],
            ]
        )
    half = 0.5 * h * (1.0 + eta)
    return np.array([[1.0, h], [-half * lam, eta - h * half * lam]])


def step_matrix(scheme: Scheme, lam: float, params: StepParams) -> np.ndarray:
    """Exact one-step difference map of the integrator on a scalar mode.

    Read off the step core on Python floats (the P of
    :func:`langevin_contract.integrators.affine_mode_map`).  An overdamped
    step's v' is its draw, so its second row is 0: [[1 - h lam, 0], [0, 0]]
    for overdamped_em and [[1 - h lam, sqrt(2h)/2], [0, 0]] for LM, whose v
    is the previous draw.  For baoab/obabo it is the full symmetric step,
    not the certificate block.
    """
    return _mode_map(Scheme(scheme), lam, params)[0]


def _affine_P(scheme: Scheme, params: StepParams) -> tuple[np.ndarray, np.ndarray]:
    """(P0, P1) with P(lam) = P0 + lam P1; exact because every certificate
    block applies the kick operator once."""
    P0 = transition_matrix_P(scheme, 0.0, params)
    return P0, transition_matrix_P(scheme, 1.0, params) - P0


def _h_blocks(P0: np.ndarray, P1: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, ...]:
    """The c-free blocks of H(lam) for P(lam) = P0 + lam P1: P0^T W P0,
    then the coefficient blocks of lam and lam^2."""
    P0W = P0.T @ W  # ``@`` groups from the left, so P0^T W P is (P0^T W) P
    cross = P0W @ P1
    return P0W @ P0, -(cross + cross.T), -(P1.T @ W @ P1)


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
        # every field is a scalar, so a shallow dict is the full copy
        return {**vars(self), "scheme": self.scheme.value}


def _guard(lam_coeffs, m: float, M: float) -> float:
    """The grid guard L dlam / 2 of a polynomial whose coefficients of
    lam^1, lam^2, ... are ``lam_coeffs``, with L the coarse bound on
    sup |p'| over [0, M]; 0.0 on the one-node grid of m = M.  The constant
    term never enters, so c does not move A's guard.  Raises where M^k
    overflows."""
    if not M > m:
        return 0.0
    try:
        bound = float(sum([k * abs(ck) * M ** (k - 1) for k, ck in enumerate(lam_coeffs, 1)]))
    except OverflowError:
        raise CertificateError(f"the grid guard overflows at M={M:g}: a check needs M below about 5.6e102") from None
    return bound * ((M - m) / (GRID_POINTS - 1)) / 2.0


def _polyval(x: np.ndarray, c) -> np.ndarray:
    """``npoly.polyval(x, c)`` bit for bit on finite x >= 0, such as the lam
    grid, in one array.  polyval starts Horner from ``c[-1] + x * 0``; for
    x >= 0 that is ``c[-1] + 0.0``, sign of zero included, so the first step
    is ``(c[-1] + 0.0) * x`` and every later one runs in place."""
    if len(c) == 1:
        return c[0] + x * 0
    p = (c[-1] + 0.0) * x
    for ck in c[-2:0:-1]:
        p += ck
        p *= x
    p += c[0]
    return p


def _grid_sums(P0: np.ndarray, P1: np.ndarray, lams: np.ndarray, W: np.ndarray) -> list[list]:
    """The c-free half of the eigenvalue oracle: the four entries of
    P(lam)^T W P(lam) over the lam grid, for P(lam) = P0 + lam P1.

    Each entry is written out as its four terms (P[k][i] W[k, l]) P[l][j]
    over grid vectors, added k outer, l inner, from the first term.  That
    is the summation order of the einsum ``"nki,kl,nlj->nij"`` the tests
    keep as the reference, so :func:`_min_eig_H` is bit-identical to it;
    numpy runs a three-operand einsum through its generic loop, about ten
    times slower than these vector operations.  An entry of P whose P1
    entry is exactly 0 (of either sign) is one Python float, the node
    operation P0 + lam P1 done once, and so is every sum of such entries.
    """
    w = W.tolist()
    P = [
        [P0[k, i] + lams * P1[k, i] if P1[k, i] != 0 else float(P0[k, i] + lams[0] * P1[k, i]) for i in range(2)]
        for k in range(2)
    ]
    PW = [[[P[k][i] * w[k][l] for l in range(2)] for k in range(2)] for i in range(2)]  # shared by both j

    def entry(i: int, j: int):
        t = [PW[i][k][l] * P[l][j] for k in range(2) for l in range(2)]
        return ((t[0] + t[1]) + t[2]) + t[3]

    return [[entry(i, j) for j in range(2)] for i in range(2)]


def _min_eig_H(sums: list[list], W: np.ndarray, c: float, shape: tuple[int, ...]) -> np.ndarray:
    """Min eigenvalue of H = (1-c) W - P^T W P at each grid node, from the
    :func:`_grid_sums` of P^T W P; ``shape`` is the grid's."""
    H = [[(1.0 - c) * W[i, j] - sums[i][j] for j in range(2)] for i in range(2)]
    tr = H[0][0] + H[1][1]
    det = H[0][0] * H[1][1] - H[0][1] * H[1][0]
    eig = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    return eig if np.ndim(eig) else np.full(shape, eig)  # a constant P(lam) gives one value


class _Point(NamedTuple):
    """The c-free half of a check at one (scheme, m, M, gamma, h)."""

    rate: CertifiedRate  # its c is the default c of a check
    W: np.ndarray
    P0: np.ndarray  # P(lam) = P0 + lam P1, for the eigenvalue oracle
    P1: np.ndarray
    k0: tuple[float, float, float]  # entries (0, 0), (0, 1), (1, 1) of P0^T W P0
    lam_terms: tuple[tuple[float, float], ...]  # the lam^1, lam^2 coefficients of A, B, C
    lams: np.ndarray
    tail: np.ndarray  # A's Horner tail, so A(lams) = A[0] + tail
    tail_min: float  # min(tail), so min A(lams) = A[0] + tail_min
    guard_a: float  # A's grid guard, which c does not move


@functools.lru_cache(maxsize=1, typed=True)
def _lam_grid(m: float, M: float) -> np.ndarray:
    """The read-only lam grid on [m, M]: :data:`GRID_POINTS` nodes, or m alone when m = M."""
    lams = np.linspace(m, M, GRID_POINTS) if M > m else np.array([m])
    lams.flags.writeable = False
    return lams


def _point(scheme: Scheme, m: float, M: float, gamma: float, h: float) -> _Point:
    """Check the arguments, then build the c-free half of a check (module docstring)."""
    scheme = Scheme(scheme)
    if not (0.0 < m <= M):
        raise CertificateError(f"need 0 < m <= M, got m={m}, M={M}")
    rate = certified_rate(scheme, m, M, gamma, h)
    # one (P0, P1) for both the polynomial route and the eigenvalue oracle
    P0, P1 = _affine_P(scheme, StepParams(h, gamma))
    W = np.array([[1.0, rate.b], [rate.b, rate.a]])
    K0, H1, H2 = (block.tolist() for block in _h_blocks(P0, P1, W))
    abc = ((0, 0), (0, 1), (1, 1))  # the entries of H that are A, B and C
    lam_terms = tuple((H1[i][j], H2[i][j]) for i, j in abc)
    lams = _lam_grid(m, M)
    tail = _polyval(lams, lam_terms[0])
    tail *= lams  # A(lams) is A[0] + tail, polyval's last step
    k0 = tuple(K0[i][j] for i, j in abc)
    return _Point(rate, W, P0, P1, k0, lam_terms, lams, tail, float(tail.min()), _guard(lam_terms[0], m, M))


def _verdict(point: _Point, m: float, M: float, c: float) -> tuple[bool, float, list[float], np.ndarray | None]:
    """The c half of a check up to its verdict: (passed, A[0], the quartic
    AC - B^2's coefficients, its grid values or None).  Both searches decide
    on ``passed`` alone; the quartic's grid is evaluated only once the norm
    and A have passed, and is None otherwise."""
    # the constant terms, (1-c) W - P0^T W P0, are all that c moves
    rate = point.rate
    A, B, C = ([(1.0 - c) * w - k, *hi] for w, k, hi in zip((1.0, rate.b, rate.a), point.k0, point.lam_terms))
    quartic = (np.convolve(A, C) - np.convolve(B, B)).tolist()
    guard_q = _guard(quartic[1:], m, M)  # on every probe, so a bad M raises wherever it is checked
    # round-to-nearest keeps order under adding A[0], so this is min(A[0] + tail) > guard_a
    if not (rate.norm_valid and A[0] + point.tail_min > point.guard_a):
        return False, A[0], quartic, None
    pq = _polyval(point.lams, quartic)
    return bool(pq.min() > guard_q), A[0], quartic, pq


# far past stability the blocks and polynomials overflow to inf or nan, and the report fails on them
@np.errstate(over="ignore", invalid="ignore")
def check_certificate(
    scheme: Scheme,
    m: float,
    M: float,
    gamma: float,
    h: float,
    c: float | None = None,
) -> CertificateReport:
    """Certify A > 0 and AC - B^2 > 0 on lam in [m, M].

    W is built from the scheme's certified (a, b), as written, so a
    degenerate pair (b^2 >= a) is reported with ``norm_valid`` False and
    never passes; ``c`` defaults to the certified rate.  AC - B^2 is
    expanded by coefficient convolution (degree <= 4), then both
    polynomials are evaluated on a uniform grid; positivity is asserted
    only when the grid minimum exceeds L * dlam / 2 with L the coarse
    derivative bound, which rules out a sign change between nodes.  Each
    grid point is independently checked by the minimum eigenvalue of the
    2x2 matrix H assembled from P, and the sign agreement of the two
    routes is reported.  Everything that does not depend on c comes from
    :func:`_point`, which also raises for bad input (see
    :func:`max_certified_stepsize`).
    """
    point = _point(scheme, m, M, gamma, h)
    lams = point.lams
    c = point.rate.c if c is None else c
    passed, a0, quartic, pq = _verdict(point, m, M, c)
    pa = a0 + point.tail
    if pq is None:
        pq = _polyval(lams, quartic)

    eigs = _min_eig_H(_grid_sums(point.P0, point.P1, lams, point.W), point.W, c, lams.shape)
    poly_pd = (pa > 0.0) & (pq > 0.0)
    oracle_pd = eigs > 0.0
    agrees = bool(np.array_equal(poly_pd, oracle_pd))

    margin_a, margin_q = pa / lams, pq / lams
    worst = int(np.argmin(np.minimum(margin_a, margin_q)))
    return CertificateReport(
        scheme=Scheme(scheme),
        m=m,
        M=M,
        gamma=gamma,
        h=h,
        a=point.rate.a,
        b=point.rate.b,
        c=c,
        passed=passed,
        min_margin_A=float(margin_a.min()),
        min_margin_ACB2=float(margin_q.min()),
        worst_lambda=float(lams[worst]),
        oracle_min_eig=float(eigs.min()),
        oracle_agrees=agrees,
        norm_valid=point.rate.norm_valid,
        grid_points=len(lams),
    )


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


def search(passes, start: float, cap: float, halvings: int, tol: float) -> float:
    """The edge of a pass region (0, x*), trying each point once.

    From ``start`` (at most ``cap``) doubles upward, clamped at ``cap``,
    while ``passes`` holds, or halves downward, at most ``halvings`` times,
    while it fails; the bracket found is shrunk by :func:`bisect`.  Returns
    ``cap`` when ``cap`` passes and 0.0 when no point tried passes.
    """
    x = start
    if passes(x):
        while x < cap:
            nxt = min(2.0 * x, cap)
            if not passes(nxt):
                return bisect(passes, x, nxt, tol)
            x = nxt
        return cap
    for _ in range(halvings):
        hi, x = x, x / 2.0
        if passes(x):
            return bisect(passes, x, hi, tol)
    return 0.0


# as in check_certificate: a probe far past stability fails on overflowed blocks and polynomials
@np.errstate(over="ignore", invalid="ignore")
def max_certified_rate(scheme: Scheme, m: float, M: float, gamma: float, h: float) -> float:
    """Largest c in (0, 1) passing the certificate with the scheme's (a, b).

    H is monotone decreasing in c, so bisection on [0, 1] applies, to width
    :data:`RATE_TOL`, on one point; a probe is the check's verdict alone.
    Returns 0.0 when even c = 0 fails (no contraction certified at these
    parameters); bad input raises as :func:`max_certified_stepsize`.
    """
    point = _point(scheme, m, M, gamma, h)

    def passes(c: float) -> bool:
        return _verdict(point, m, M, c)[0]

    return bisect(passes, 0.0, 1.0, RATE_TOL) if passes(0.0) else 0.0


@np.errstate(over="ignore", invalid="ignore")
def max_certified_stepsize(scheme: Scheme, m: float, M: float, gamma: float) -> float:
    """Largest h whose certificate passes with the certified (a, b, c)(h).

    The pass region is taken to be an interval (0, h*): :func:`search`
    halves from :data:`STEPSIZE_CAP` and bisects to :data:`STEPSIZE_TOL`;
    a probe builds its point and takes the check's verdict alone, no
    oracle.  Returns the cap when the cap passes and 0.0 when no stepsize
    passes (friction below the scheme's implicit floor).  Bad input
    raises: a scheme outside :data:`CERTIFICATE_SCHEMES`, m, M outside
    0 < m <= M, or M > m beyond the range of the derivative bound (about
    5.6e102).
    """

    def passes(h: float) -> bool:
        point = _point(scheme, m, M, gamma, h)
        return _verdict(point, m, M, point.rate.c)[0]

    return search(passes, STEPSIZE_CAP, STEPSIZE_CAP, 59, STEPSIZE_TOL)


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
