"""Reference-free oracles for the edges of parameter space.

Each routine reads only the scheme's operator word or a closed form, never a
float result of the library, so a test can check the library against it where
float rounding decides: symbolic mode matrices on sympy symbols, the
stationary position law of a splitting's gamma = inf chain in closed form, and
50-digit mpmath searches for the monotone stability threshold and for the root
of the "eta" stepsize hypothesis h < (1 - exp(-gamma h))/s.

The last section holds reference routines that only the tests call: the
plain bisection on a pass/fail predicate and the stepsize search that
halves from its cap, the A/B/C coefficient form of a
certificate block, the boundary-operator
amplification bounds behind the coupling records' prefactors, the Gaussian
2-Wasserstein distance, the Wasserstein decay factor, the list of
first-order splittings, the whole-array mode chain and the zero-noise
difference chain of a coupled pair on a quadratic target.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np
import sympy as sp

from langevin_contract.certificates import CertificateError, _affine_P, _h_blocks
from langevin_contract.integrators import (
    _CHAIN_BLOCK,
    SPLITTING_WORDS,
    IntegratorError,
    Scheme,
    StepParams,
    _coefficients,
    _Mode,
    _step_core,
    affine_mode_map,
    noise_requirements,
)
from langevin_contract.norms import NormError

#: working precision of the mp routines, in decimal digits
DPS = 50


def _word_columns(word, lam, h, g, exp, frac):
    """Columns of P, the step core at zero noise on the mode U(x) = lam x^2 / 2,
    for the splitting word keyed ``word`` in SPLITTING_WORDS: a piece of
    fraction f drifts or kicks for ``frac(f) * h``, and an O piece damps by
    exp(-gamma f h) (its noise scale multiplies a zero draw)."""
    coefs = []
    for piece, f in SPLITTING_WORDS[word]:
        tau = frac(f) * h
        coefs += (exp(-g * tau), 0) if piece == "O" else (tau,)
    return [_step_core(word, _Mode(lam), x, v, coefs, (0, 0))[:2] for x, v in ((1, 0), (0, 1))]


def symbolic_word_P(word, lam, h, g):
    """P of the word's step core on sympy symbols."""
    return sp.Matrix(_word_columns(word, lam, h, g, sp.exp, sp.Rational)).T


def symbolic_limit_law(word, lam, h):
    """lam Var(x) under the stationary law of the word's gamma = inf mode chain,
    in closed form on sympy symbols, or None where it has none.

    At gamma = inf every O piece has eta = 0 and noise scale 1, so it sets v to
    its draw.  The chain z' = P z + N xi is the step core on the mode
    U(x) = lam x^2 / 2, and its stationary covariance S solves
    S = P S P^T + N N^T.  None where that system has no unique solution, as
    when P has the eigenvalue 1 (a random walk or a frozen x).
    """
    coefs, k = [], 0
    for piece, f in SPLITTING_WORDS[word]:
        coefs += (0, 1) if piece == "O" else (sp.Rational(f) * h,)
        k += piece == "O"

    def image(x, v, xi):
        return _step_core(word, _Mode(lam), x, v, coefs, xi)[:2]

    P = sp.Matrix([image(1, 0, [0] * k), image(0, 1, [0] * k)]).T
    N = sp.Matrix([image(0, 0, [int(j == i) for j in range(k)]) for i in range(k)]).T
    sxx, sxv, svv = sp.symbols("s_xx s_xv s_vv")
    S = sp.Matrix([[sxx, sxv], [sxv, svv]])
    solutions = sp.linsolve(list(S - P * S * P.T - N * N.T), [sxx, sxv, svv])
    if not solutions or solutions.free_symbols & {sxx, sxv, svv}:
        return None
    ((law, _, _),) = solutions
    return sp.simplify(lam * law)


def _bisect(inside, lo, hi, steps=170):
    """The boundary between ``lo`` (inside) and ``hi`` (outside), halved ``steps`` times."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def mp_stability_threshold(scheme, lam, gamma):
    """Largest h whose mode matrix has both eigenvalues in the unit disk with
    positive real part, at :data:`DPS` digits.

    Those are the Jury conditions on z^2 - T z + D: 0 < D < 1, T > 0 and
    1 - T + D > 0.  A splitting's T is the trace of its word's P on mpf
    constants, and D is exactly exp(-gamma h) (``test_symbolic_splitting_words``
    proves the identity); kinetic_em has T = 2 - gamma h, D = 1 - gamma h + h^2 lam.
    The search doubles or halves from 1/sqrt(lam) to a bracket, then bisects,
    so the stable set must be bounded: oab, abo and boa are stable at every h
    once gamma > 2 sqrt(lam)/e, and have no threshold to find.
    """
    scheme = Scheme(scheme)
    with mp.workdps(DPS):
        lam, gamma = mp.mpf(lam), mp.mpf(gamma)

        def stable(h):
            if scheme is Scheme.KINETIC_EM:
                T, D = 2 - gamma * h, 1 - gamma * h + h * h * lam
            else:
                (p00, _), (_, p11) = _word_columns(scheme, lam, h, gamma, mp.exp, mp.mpf)
                T, D = p00 + p11, mp.exp(-gamma * h)
            return 0 < D < 1 and T > 0 and 1 - T + D > 0

        h = 1 / mp.sqrt(lam)
        if stable(h):
            while stable(2 * h):
                h *= 2
            return float(_bisect(stable, h, 2 * h))
        while not stable(h / 2):
            h /= 2
        return float(_bisect(stable, h / 2, h))


def mp_eta_root(gamma, s):
    """The h > 0 with h = (1 - exp(-gamma h))/s, for gamma > s, at :data:`DPS` digits.

    With u = gamma h and r = gamma/s it is the nontrivial root of
    f(u) = u + r expm1(-u).  f < 0 at u = r - 1 (r exp(1 - r) < 1 for r > 1)
    and f = r exp(-r) > 0 at u = r, so [r - 1, r] brackets it away from the
    trivial root u = 0.
    """
    with mp.workdps(DPS):
        gamma = mp.mpf(gamma)
        r = gamma / mp.mpf(s)
        u = _bisect(lambda u: u + r * mp.expm1(-u) < 0, r - 1, r)
        return float(u / gamma)


def plain_bisect(passes, lo, hi, tol):
    """Shrink a bracket (lo passing, hi failing) to width ``tol`` on the
    bool ``passes``, probing every midpoint, and return lo; it stops where
    the midpoint rounds onto an endpoint.  The reference for
    :func:`langevin_contract.certificates.bisect`, which returns its float."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def halving_search(passes, cap, halvings, tol):
    """The edge of a pass region (0, x*) on the bool ``passes``: ``cap`` when
    it passes, else the first of ``halvings`` halvings of it that passes,
    with the failing point above it, shrunk by :func:`plain_bisect`; 0.0
    when none passes.  The reference for
    :func:`langevin_contract.certificates.max_certified_stepsize`, which
    starts from the hypotheses' threshold instead and returns this float."""
    if passes(cap):
        return cap
    x = cap
    for _ in range(halvings):
        hi, x = x, x / 2.0
        if passes(x):
            return plain_bisect(passes, x, hi, tol)
    return 0.0


FIRST_ORDER_SPLITTINGS =(Scheme.BAO, Scheme.OAB, Scheme.ABO, Scheme.BOA, Scheme.OBA, Scheme.AOB)


@dataclass(frozen=True)
class AbcPolynomials:
    """Entries of H as polynomials in lam (ascending coefficients, deg <= 2)."""

    scheme: Scheme
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def build_abc(scheme: Scheme, params: StepParams, a: float, b: float, c: float) -> AbcPolynomials:
    """Coefficient form of A, B, C for the certificate block of ``scheme``.

    Derived from P(lam) = P0 + lam P1 (see the certificates module
    docstring).  With the scheme's certified (a, b) the constant term of B
    collapses to -b c, which is what makes the m-independent stepsize
    thresholds work.
    """
    scheme = Scheme(scheme)
    W = np.array([[1.0, b], [b, a]])
    K0, H1, H2 = _h_blocks(*_affine_P(scheme, params), W)
    H = np.stack([(1.0 - c) * W - K0, H1, H2])
    return AbcPolynomials(scheme, H[:, 0, 0], H[:, 0, 1], H[:, 1, 1])


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
#: h <= 1/(2 sqrt(M)); the chain entry covers ["AB", "O"] compositions.
#: The coupling records' prefactors state 7 (baoab, obabo) and 27 (the
#: permuted splittings) themselves; the tests hold them equal to these.
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


def wasserstein_decay_factor(C: float, a: float, c: float, n_steps: int) -> float:
    """Squared-Wasserstein decay factor 3 C max(a, 1/a) (1 - c)^n.

    Converts a per-step norm contraction (rate c, equivalence constant C)
    into the worst-case multiplier on squared Wasserstein distance after
    n steps.
    """
    if not 0.0 < c <= 1.0:
        raise NormError(f"rate must satisfy 0 < c <= 1, got {c}")
    if C < 1.0:
        raise NormError(f"equivalence constant must be >= 1, got {C}")
    if a <= 0.0:
        raise NormError(f"a must be positive, got {a}")
    if n_steps < 0:
        raise NormError(f"n_steps must be non-negative, got {n_steps}")
    return 3.0 * C * max(a, 1.0 / a) * (1.0 - c) ** n_steps


# an eigenvalue below -_PSD_TOL * max(1, |largest|) is negative, not roundoff
_PSD_TOL = 1e-10


def _sqrtm_psd(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    w, V = np.linalg.eigh(S)
    if w.min() < -_PSD_TOL * max(1.0, abs(w).max()):
        raise NormError(f"covariance is not positive semidefinite, min eig {w.min()}")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def gaussian_w2(mean1, cov1, mean2, cov2) -> float:
    """2-Wasserstein distance between two Gaussians (Bures closed form).

    W2^2 = |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2}).
    """
    mu1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    S1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    S2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    root2 = _sqrtm_psd(S2)
    cross = _sqrtm_psd(root2 @ S1 @ root2)
    sq = np.sum((mu1 - mu2) ** 2) + np.trace(S1) + np.trace(S2) - 2.0 * np.trace(cross)
    # the exact value is >= 0; clamp roundoff
    return float(np.sqrt(max(sq, 0.0)))


def whole_array_mode_chain(scheme, lam, params, x0, v0, noise):
    """The blocked arithmetic of :func:`langevin_contract.integrators.simulate_mode_chain`
    with every temporary (padded noise, block states, block starts, positions)
    held for the whole chain at once: the chain, walked in chunks, equals it bit
    for bit."""
    P, N = affine_mode_map(scheme, lam, params)
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2 or noise.shape[1] != N.shape[1]:
        raise IntegratorError(f"noise must have shape (n, {N.shape[1]}), got {noise.shape}")
    (n, k), B = noise.shape, _CHAIN_BLOCK
    R = max(1, -(-n // B))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [np.eye(2, dtype=np.longdouble)]
        for _ in range(B):
            powers.append(P.astype(np.longdouble) @ powers[-1])
        powers = np.array(powers, dtype=float)
        xi = np.zeros((R, B * k))
        xi.reshape(-1, k)[:n] = noise
        lag = np.arange(B)[None, :] - np.arange(B)[:, None]
        T = np.where((lag >= 0)[:, :, None, None], (powers[:B] @ N)[np.maximum(lag, 0)], 0.0)
        T = T.transpose(0, 3, 1, 2).reshape(B * k, B * 2)
        Y = np.empty((R, B * 2))
        for r in range(0, R, B):
            np.matmul(xi[r : r + B], T, out=Y[r : r + B])
        Y = Y.reshape(R, B, 2)
        (a00, a01), (a10, a11) = powers[B].tolist()
        x, v = float(x0), float(v0)
        starts = [(x, v)]
        for ex, ev in Y[:-1, -1].tolist():
            x, v = a00 * x + a01 * v + ex, a10 * x + a11 * v + ev
            starts.append((x, v))
        starts = np.array(starts)
        X = starts[:, :1] * powers[1:, 0, 0]
        X += starts[:, 1:] * powers[1:, 0, 1]
        X += Y[:, :, 0]
        last = n - (R - 1) * B
        z_n = powers[last] @ starts[-1] + (Y[-1, last - 1] if last else 0.0)
    if not np.isfinite(z_n).all():
        raise IntegratorError("chain diverged to non-finite state")
    xs = np.empty(n + 1)
    xs[0] = x0
    xs[1:] = X.reshape(-1)[:n]
    return xs


def zero_noise_difference(scheme, potential, z0, z1, params, n_steps, norm):
    """The distance trace of a coupled pair on a quadratic target from its difference:
    (x0 - x1, v0 - v1), with v = 0 for lm, whose chains start at one primer draw,
    stepped by the step core with every draw 0.0 and no gradient carried from one
    step to the next, the distances reduced once at the end (d_0 from the start
    states) and cut at the first non-finite one.  Returns (distances, diverged_at)."""
    coefs, zero = _coefficients(scheme, params), (0.0,) * noise_requirements(scheme)
    x, v = z0.x - z1.x, z0.v - z1.v
    xs, vs = [x], [v]
    if scheme is Scheme.LM:
        v = np.zeros_like(v)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            x, v, _ = _step_core(scheme, potential, x, v, coefs, zero)
            xs.append(x)
            vs.append(np.broadcast_to(v, x.shape))  # an overdamped v is the draw, 0.0
        d = norm.squared(np.array(xs), np.array(vs))
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        return d[: bad[0] + 1], int(bad[0])
    return d, None
