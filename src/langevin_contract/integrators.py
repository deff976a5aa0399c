"""One-step maps for overdamped and kinetic Langevin discretizations.

Covered schemes: overdamped Euler-Maruyama and its averaged-noise variant
(LM); the kinetic Euler-Maruyama scheme; all six first-order splittings of
the B (velocity kick), A (position drift) and O (exact Ornstein-Uhlenbeck)
pieces; the symmetric second-order splittings BAOAB and OBABO; and the
stochastic exponential Euler scheme (SES) with its correlated noise pair.

Every splitting is one row of :data:`SPLITTING_WORDS`: its operator word, a
sequence of (piece, fraction of h) applied left to right, so "BAO" kicks,
drifts, then refreshes.  The step core and the noise count are derived
from that row.  A piece of duration tau = fraction * h acts as

    B: v <- v - tau * grad U(x)
    A: x <- x + tau * v
    O: v <- eta * v + sqrt(1 - eta^2) * xi,   eta = exp(-gamma * tau)

and each O piece consumes the next standard-normal draw.  Step functions
are pure: identical inputs give bit-identical outputs, and two states
stepped with shared noise have a noise-independent difference (the basis
of synchronous coupling).

Every mode matrix of a scheme is read off the step core: :func:`_mode_map`
runs it on Python floats on a 1-d mode U(x) = lam x^2 / 2, which gives the
(P, N) of :func:`affine_mode_map` and the
:func:`langevin_contract.certificates.step_matrix` that certificates and
spectra use.  Only the conjugate certificate blocks of BAOAB and OBABO are
written out by hand, in :func:`langevin_contract.certificates.transition_matrix_P`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .potentials import Potential


class IntegratorError(ValueError):
    """Invalid scheme, parameters or noise for a step."""


class Scheme(str, enum.Enum):
    OVERDAMPED_EM = "overdamped_em"
    LM = "lm"
    KINETIC_EM = "kinetic_em"
    BAO = "bao"
    OAB = "oab"
    ABO = "abo"
    BOA = "boa"
    OBA = "oba"
    AOB = "aob"
    BAOAB = "baoab"
    OBABO = "obabo"
    SES = "ses"


OVERDAMPED_SCHEMES = (Scheme.OVERDAMPED_EM, Scheme.LM)
KINETIC_SCHEMES = tuple(s for s in Scheme if s not in OVERDAMPED_SCHEMES)

#: operator word of each splitting: (piece, fraction of h), left to right
SPLITTING_WORDS = {
    Scheme.BAO: (("B", 1.0), ("A", 1.0), ("O", 1.0)),
    Scheme.OAB: (("O", 1.0), ("A", 1.0), ("B", 1.0)),
    Scheme.ABO: (("A", 1.0), ("B", 1.0), ("O", 1.0)),
    Scheme.BOA: (("B", 1.0), ("O", 1.0), ("A", 1.0)),
    Scheme.OBA: (("O", 1.0), ("B", 1.0), ("A", 1.0)),
    Scheme.AOB: (("A", 1.0), ("O", 1.0), ("B", 1.0)),
    Scheme.BAOAB: (("B", 0.5), ("A", 0.5), ("O", 1.0), ("A", 0.5), ("B", 0.5)),
    Scheme.OBABO: (("O", 0.5), ("B", 0.5), ("A", 1.0), ("B", 0.5), ("O", 0.5)),
}


@dataclass(frozen=True)
class PhaseState:
    """Position-velocity pair z = (x, v); arrays share shape (..., d).

    In an overdamped chain v is the last standard-normal draw: EM ignores
    it and LM averages it with the next one, so every scheme is a
    memoryless map of (x, v).
    """

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.shape != v.shape:
            raise IntegratorError(f"x and v must share a shape, got {x.shape} vs {v.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.x.shape[-1]


@dataclass(frozen=True)
class StepParams:
    """Stepsize h and friction gamma; eta is derived on demand."""

    h: float
    gamma: float

    def __post_init__(self):
        if not self.h > 0.0:
            raise IntegratorError(f"h must be positive, got {self.h}")
        if not self.gamma > 0.0:
            raise IntegratorError(f"gamma must be positive, got {self.gamma}")

    @property
    def eta(self) -> float:
        """exp(-gamma h): the damping of a full-step O piece."""
        return math.exp(-self.gamma * self.h)


def noise_requirements(scheme: Scheme) -> int:
    """Number of independent standard-normal d-vectors consumed per step.

    A splitting consumes one per O piece of its word (two for OBABO); SES
    consumes two raw vectors that the step core mixes into a single
    correlated (position, velocity) pair by the Cholesky factor of
    :func:`ses_covariance`.  All other schemes consume one vector.
    """
    scheme = Scheme(scheme)
    word = SPLITTING_WORDS.get(scheme)
    if word is not None:
        return sum(piece == "O" for piece, _ in word)
    return 2 if scheme is Scheme.SES else 1


def _square(x: float) -> float:
    """x**2, or inf where it leaves the float range."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _ses_g(u: float) -> float:
    """u - 2(1 - e^-u) + (1 - e^-2u)/2, series-protected for small u."""
    if u < 1e-2:
        # u^3/3 - u^4/4 + 7u^5/60: relative error O(u^3) of the next term
        return u**3 * (1.0 / 3.0 + u * (-0.25 + u * (7.0 / 60.0)))
    return u + 2.0 * math.expm1(-u) - 0.5 * math.expm1(-2.0 * u)


def ses_covariance(params: StepParams) -> tuple[float, float, float]:
    """(var_position, var_velocity, covariance) of the SES noise pair.

    Ito isometry for the exact OU solution with frozen gradient gives

        var(zeta)  = (2/gamma) (h - 2(1-eta)/gamma + (1-eta^2)/(2 gamma))
        var(omega) = 1 - eta^2
        cov        = (1 - eta)^2 / gamma

    with eta = exp(-gamma h).  A gamma whose square is 0 or beyond the float
    range raises IntegratorError; at an infinite gamma the formulas give 0/0
    (SES's limit constants are in :func:`_coefficients`).
    """
    g, h = params.gamma, params.h
    g2 = _square(g)
    if not 0.0 < g2 < math.inf:
        raise IntegratorError(f"SES noise covariance needs gamma^2 in the float range, got gamma={g}")
    u = g * h
    var_pos = 2.0 * _ses_g(u) / g2
    var_vel = -math.expm1(-2.0 * u)
    cov = math.expm1(-u) ** 2 / g
    return var_pos, var_vel, cov


def _as_noise(scheme: Scheme, noise, dim: int) -> np.ndarray:
    arr = np.asarray(noise, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    need = noise_requirements(scheme)
    if arr.shape[0] != need or arr.shape[-1] != dim:
        raise IntegratorError(
            f"{scheme.value} needs noise of shape ({need}, ..., {dim}), got {arr.shape}"
        )
    return arr


def step(scheme: Scheme, potential: Potential, state: PhaseState, params: StepParams, noise) -> PhaseState:
    """Advance one step of the given scheme.

    ``noise`` holds ``noise_requirements(scheme)`` standard-normal draws of
    shape (d,) (stacked along the first axis).  An overdamped scheme
    returns its draw as v (broadcast to x's shape), and LM reads the
    incoming v as the previous step's draw.
    """
    scheme = Scheme(scheme)
    xi = _as_noise(scheme, noise, state.dim)
    x, v, _ = _step_core(scheme, potential, state.x, state.v, _coefficients(scheme, params), xi)
    return PhaseState(x, np.broadcast_to(v, x.shape).copy())


def _coefficients(scheme: Scheme, params: StepParams) -> tuple[float, ...]:
    """The per-step constants of one (h, gamma) point, in the order the core reads them.

    Scalar ``math`` calls, so a batch of points steps bit-identically to
    each point alone, with each constant a float where the points share it
    and otherwise an array of their states' shape (B, 2, d), one
    state-sized array per such constant.  At gamma = inf every eta is 0:
    the constants of the high-friction limit.  A non-finite constant
    (kinetic_em's gamma h at gamma = inf) raises IntegratorError.
    """
    h, g = params.h, params.gamma
    word = SPLITTING_WORDS.get(scheme)
    if word is not None:
        coefs = []
        for piece, frac in word:
            tau = frac * h
            if piece == "O":
                eta = math.exp(-g * tau)
                coefs += (eta, math.sqrt(1.0 - eta * eta))
            else:
                coefs.append(tau)
    elif scheme in OVERDAMPED_SCHEMES:
        coefs = h, math.sqrt(2.0 * h)
    elif scheme is Scheme.KINETIC_EM:
        coefs = h, g * h, math.sqrt(2.0 * g * h)
    elif math.isinf(g):  # SES at gamma = inf, where the formulas below give 0/0: their limits
        coefs = 0.0, 0.0, 0.0, 0.0, 0.0, 1.0
    else:  # SES: the noise pair's lower-triangular Cholesky factor, position component first;
        # ses_covariance also checks that gamma^2 is in the float range
        var_pos, var_vel, cov = ses_covariance(params)
        alpha = -math.expm1(-g * h) / g  # (1 - eta)/gamma without cancellation
        beta = (g * h + math.expm1(-g * h)) / g**2  # (gamma h + eta - 1)/gamma^2
        # var_pos ~ 2 (gamma h)^3 / (3 gamma^2) underflows to 0.0 at tiny gamma h: test before dividing
        schur = var_vel - cov * cov / var_pos if var_pos > 0.0 else 0.0
        if schur <= 0.0:
            raise IntegratorError(f"SES noise covariance not positive definite at h={h}, gamma={g}")
        l11 = math.sqrt(var_pos)
        coefs = alpha, beta, params.eta, l11, cov / l11, math.sqrt(schur)
    if not all(map(math.isfinite, coefs)):
        raise IntegratorError(f"{scheme.value} has non-finite step constants at h={h}, gamma={g}")
    return tuple(coefs)


def _step_core(scheme, potential, x, v, coefs, xi, grad=None):
    """The array-level step from :func:`_coefficients`; returns (x, v, grad).

    Shared by :func:`step` and the coupling runner.  ``coefs`` entries are
    floats or, for a batch of points whose values differ, arrays of the
    states' shape (B, 2, d); ``xi[j]`` is the j-th draw, broadcast against
    x.  ``grad``, when given, is grad U(x): a
    splitting kicks with it until its first drift, and the returned grad is
    grad U at the new x, or None once a drift followed the last kick.  So
    BAOAB and OBABO reuse the end-of-step gradient (one evaluation per step).
    """
    word = SPLITTING_WORDS.get(scheme)
    if word is not None:
        c = iter(coefs)
        k = 0
        for piece, _ in word:
            if piece == "B":
                if grad is None:
                    grad = potential.gradient(x)
                v = v - next(c) * grad
            elif piece == "A":
                x = x + next(c) * v
                grad = None
            else:
                eta, scale = next(c), next(c)
                v = eta * v + scale * xi[k]
                k += 1
        return x, v, grad
    grad = potential.gradient(x)
    if scheme is Scheme.OVERDAMPED_EM:
        h, s = coefs
        return x - h * grad + s * xi[0], xi[0], None
    if scheme is Scheme.LM:  # v is the previous step's draw
        h, s = coefs
        return x - h * grad + s * (0.5 * (xi[0] + v)), xi[0], None
    if scheme is Scheme.KINETIC_EM:
        h, gh, s = coefs
        return x + h * v, v - h * grad - gh * v + s * xi[0], None
    alpha, beta, eta, l11, l21, l22 = coefs  # SES
    zeta, omega = l11 * xi[0], l21 * xi[0] + l22 * xi[1]
    return x + alpha * v - beta * grad + zeta, eta * v - alpha * grad + omega, None


class _Mode(NamedTuple):
    """The gradient of a 1-d mode U(x) = lam x^2 / 2 on Python floats."""

    lam: float

    def gradient(self, x: float) -> float:
        return self.lam * x


def _mode_rows(scheme: Scheme, coefs: tuple[float, ...], lam: float) -> tuple[tuple[float, float], ...]:
    """The rows ((p00, p01), (p10, p11)) of P on a mode of curvature lam, as
    Python floats: the step core's images of the basis states (1, 0) and
    (0, 1) at zero noise, which covers every scheme (none draws more than
    two), from one :func:`_coefficients` tuple."""
    mode, zero = _Mode(float(lam)), (0.0, 0.0)
    p00, p10 = _step_core(scheme, mode, 1.0, 0.0, coefs, zero)[:2]
    p01, p11 = _step_core(scheme, mode, 0.0, 1.0, coefs, zero)[:2]
    return (p00, p01), (p10, p11)


def _mode_map(
    scheme: Scheme, lam: float, params: StepParams, noise: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """(P, N) of the step core on a 1-d mode of curvature lam: z' = P z + N xi.

    P is :func:`_mode_rows`; when ``noise``, each column of N is the image
    of z = 0 under one unit draw (else N is None).  So every mode matrix of
    a scheme is its step's own arithmetic, rounding included.
    """
    coefs = _coefficients(scheme, params)
    P = np.array(_mode_rows(scheme, coefs, lam))
    if not noise:
        return P, None
    mode, k = _Mode(float(lam)), noise_requirements(scheme)
    draws = ([float(j == i) for j in range(k)] for i in range(k))
    return P, np.array([_step_core(scheme, mode, 0.0, 0.0, coefs, xi)[:2] for xi in draws]).T


def affine_mode_map(scheme: Scheme, lam: float, params: StepParams) -> tuple[np.ndarray, np.ndarray]:
    """(P, N) of the exact one-step affine map z' = P z + N xi on a 1-d
    quadratic mode of curvature lam, read off the step core.

    Every scheme has one: an overdamped scheme's v' is its draw, so P's
    second row is 0 and N's is 1 (LM reads v as the previous draw).
    """
    return _mode_map(Scheme(scheme), lam, params, noise=True)


#: steps per block of :func:`simulate_mode_chain`
_CHAIN_BLOCK = 32
#: block rows per chunk of :func:`simulate_mode_chain`: a chunk's block states are 2**17 bytes
_CHAIN_CHUNK = 2**17 // (16 * _CHAIN_BLOCK)


def simulate_mode_chain(
    scheme: Scheme,
    lam: float,
    params: StepParams,
    x0: float,
    v0: float,
    noise: np.ndarray,
) -> np.ndarray:
    """Positions x_0..x_n of an n-step chain on a 1-d quadratic mode.

    ``noise`` has shape (n, k) with k = noise_requirements(scheme).  The
    chain is the affine recurrence z' = P z + N xi of :func:`affine_mode_map`,
    solved in blocks of B = :data:`_CHAIN_BLOCK` steps: a product with the
    block-Toeplitz matrix of P^0 N .. P^(B-1) N gives every block's
    zero-start states, and a loop of n/B steps carries the block starts by
    P^B.  So long chains (10^6 steps) stay cheap.  The blocks are walked in
    chunks of :data:`_CHAIN_CHUNK` block rows that reuse one set of buffers,
    so the working memory is one chunk and only the output is O(n).  The
    summation order differs from stepping, so positions are not
    bit-identical to :func:`step`: they agree with it to rounding.  Raises
    IntegratorError exactly when the final state z_n is non-finite; n = 0
    gives [x0].
    """
    P, N = affine_mode_map(scheme, lam, params)
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2 or noise.shape[1] != N.shape[1]:
        raise IntegratorError(f"noise must have shape (n, {N.shape[1]}), got {noise.shape}")
    (n, k), B = noise.shape, _CHAIN_BLOCK
    R = max(1, -(-n // B))  # blocks; steps past n see zero noise and are dropped
    C = min(R, _CHAIN_CHUNK)
    xs = np.empty(n + 1)
    xs[0] = x0
    # a diverging chain overflows in the dropped tail or at its end: only z_n is judged
    with np.errstate(over="ignore", invalid="ignore"):
        # P^0 .. P^B, in extended precision where numpy has one: the carry repeats
        # the rounding of P^B n/B times, and one rounding of the exact power cuts that
        # drift 3-12x (10^5 steps at rho(P) = 1 - 2.5e-6, against an 80-bit loop)
        powers = [np.eye(2, dtype=np.longdouble)]
        for _ in range(B):
            powers.append(P.astype(np.longdouble) @ powers[-1])
        powers = np.array(powers, dtype=float)
        # T[(i, c), (j, d)] = (P^(j-i) N)[d, c] for i <= j, so Y[r, j] = sum_{i<=j} P^(j-i) N xi[rB + i]
        # is the state after j + 1 steps of block r from zero
        lag = np.arange(B)[None, :] - np.arange(B)[:, None]
        T = np.where((lag >= 0)[:, :, None, None], (powers[:B] @ N)[np.maximum(lag, 0)], 0.0)
        T = T.transpose(0, 3, 1, 2).reshape(B * k, B * 2)
        (a00, a01), (a10, a11) = powers[B].tolist()
        xi, Y, X = np.empty((C, B * k)), np.empty((C, B, 2)), np.empty((C, B))
        x, v = float(x0), float(v0)
        for r0 in range(0, R, C):
            rows, s0 = min(C, R - r0), r0 * B
            steps = min(n - s0, rows * B)
            xc, yc, Xc = xi[:rows], Y[:rows], X[:rows]
            xc.reshape(-1, k)[:steps] = noise[s0 : s0 + steps]
            xc.reshape(-1, k)[steps:] = 0.0
            # B rows a call keeps OpenBLAS on the calling thread: one threaded gemm over
            # all rows left its workers spinning and slowed the next 0.2 s of work by ~30%
            # (2-vCPU VM); C is a multiple of B, so the calls split the rows at multiples of B
            for r in range(0, rows, B):
                np.matmul(xc[r : r + B], T, out=yc.reshape(rows, 2 * B)[r : r + B])
            starts = []
            for ex, ev in yc[:, -1].tolist():
                starts.append((x, v))
                x, v = a00 * x + a01 * v + ex, a10 * x + a11 * v + ev
            starts = np.array(starts)  # z at steps s0, s0 + B, s0 + 2B, ...
            np.multiply(starts[:, :1], powers[1:, 0, 0], out=Xc)  # x of P^(j+1) z_rB, elementwise for the same reason
            Xc += starts[:, 1:] * powers[1:, 0, 1]
            Xc += yc[:, :, 0]
            xs[1 + s0 : 1 + s0 + steps] = Xc.reshape(-1)[:steps]
        last = n - (R - 1) * B  # steps taken in the last block
        z_n = powers[last] @ starts[-1] + (yc[-1, last - 1] if last else 0.0)
    if not np.isfinite(z_n).all():
        raise IntegratorError("chain diverged to non-finite state")
    return xs
