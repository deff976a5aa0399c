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
FIRST_ORDER_SPLITTINGS = (Scheme.BAO, Scheme.OAB, Scheme.ABO, Scheme.BOA, Scheme.OBA, Scheme.AOB)
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
    """Position-velocity pair z = (x, v); arrays share shape (..., d)."""

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

    with eta = exp(-gamma h).  An infinite gamma raises IntegratorError: the
    formulas give 0/0 there (SES's limit constants are in :func:`_coefficients`).
    """
    g, h = params.gamma, params.h
    if not math.isfinite(g):
        raise IntegratorError(f"SES noise covariance needs a finite gamma, got {g}")
    u = g * h
    var_pos = 2.0 * _ses_g(u) / g**2
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


def step(
    scheme: Scheme,
    potential: Potential,
    state: PhaseState,
    params: StepParams,
    noise,
    prev_noise: np.ndarray | None = None,
) -> PhaseState:
    """Advance one step of the given scheme.

    ``noise`` holds ``noise_requirements(scheme)`` standard-normal draws of
    shape (d,) (stacked along the first axis).  LM additionally needs
    ``prev_noise``, the draw consumed at the previous step; the chain
    runner threads it (seeded with a primer draw at chain start).
    """
    scheme = Scheme(scheme)
    xi = _as_noise(scheme, noise, state.dim)
    prev = None if prev_noise is None else np.asarray(prev_noise, dtype=float)
    x, v, _ = _step_core(scheme, potential, state.x, state.v, _coefficients(scheme, params), xi, prev)
    return PhaseState(x, v)


def _coefficients(scheme: Scheme, params: StepParams) -> tuple[float, ...]:
    """The per-step constants of one (h, gamma) point, in the order the core reads them.

    Scalar ``math`` calls, so a batch of points stacked into (B, 1, 1)
    columns steps bit-identically to each point alone.  At gamma = inf every
    eta is 0: the constants of the high-friction limit.  A non-finite
    constant (kinetic_em's gamma h at gamma = inf) raises IntegratorError.
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
    elif scheme is Scheme.SES and math.isinf(g):  # the formulas below give 0/0; these are their limits
        coefs = 0.0, 0.0, 0.0, 0.0, 0.0, 1.0
    elif scheme is Scheme.SES:
        alpha = -math.expm1(-g * h) / g  # (1 - eta)/gamma without cancellation
        beta = (g * h + math.expm1(-g * h)) / g**2  # (gamma h + eta - 1)/gamma^2
        # the noise pair's lower-triangular Cholesky factor, position component first
        var_pos, var_vel, cov = ses_covariance(params)
        # var_pos ~ 2 (gamma h)^3 / (3 gamma^2) underflows to 0.0 at tiny gamma h: test before dividing
        schur = var_vel - cov * cov / var_pos if var_pos > 0.0 else 0.0
        if schur <= 0.0:
            raise IntegratorError(f"SES noise covariance not positive definite at h={h}, gamma={g}")
        l11 = math.sqrt(var_pos)
        coefs = alpha, beta, params.eta, l11, cov / l11, math.sqrt(schur)
    else:
        raise IntegratorError(f"unknown scheme {scheme!r}")
    if not all(map(math.isfinite, coefs)):
        raise IntegratorError(f"{scheme.value} has non-finite step constants at h={h}, gamma={g}")
    return tuple(coefs)


def _step_core(scheme, potential, x, v, coefs, xi, prev_noise=None, grad=None):
    """The array-level step from :func:`_coefficients`; returns (x, v, grad).

    Shared by :func:`step` and the coupling runner.  ``coefs`` entries are
    floats or (B, 1, 1) columns of a batch of points; ``xi[j]`` is the j-th
    draw, broadcast against x.  ``grad``, when given, is grad U(x): a
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
        return x - h * grad + s * xi[0], v, None
    if scheme is Scheme.LM:
        if prev_noise is None:
            raise IntegratorError("LM needs prev_noise (the previous step's draw)")
        h, s = coefs
        return x - h * grad + s * (0.5 * (xi[0] + prev_noise)), v, None
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


def _mode_map(
    scheme: Scheme, lam: float, params: StepParams, noise: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """(P, N) of the step core on a 1-d mode of curvature lam: z' = P z + N xi.

    The core runs on Python floats, from the basis states (1, 0) and (0, 1)
    at zero noise for the columns of P and, when ``noise``, from z = 0 with
    one unit draw for each column of N (else N is None).  So every mode
    matrix of a scheme is its step's own arithmetic, rounding included.
    LM's previous draw is 0.0.
    """
    coefs = _coefficients(scheme, params)
    mode = _Mode(float(lam))

    # the default zero noise covers every scheme: none draws more than two
    def image(x: float, v: float, xi=(0.0, 0.0)) -> tuple[float, float]:
        return _step_core(scheme, mode, x, v, coefs, xi, 0.0)[:2]

    (p00, p10), (p01, p11) = image(1.0, 0.0), image(0.0, 1.0)
    P = np.array([[p00, p01], [p10, p11]])
    if not noise:
        return P, None
    k = noise_requirements(scheme)
    return P, np.array([image(0.0, 0.0, [float(j == i) for j in range(k)]) for i in range(k)]).T


def affine_mode_map(scheme: Scheme, lam: float, params: StepParams) -> tuple[np.ndarray, np.ndarray]:
    """(P, N) of the exact one-step affine map z' = P z + N xi on a 1-d
    quadratic mode of curvature lam, read off the step core.

    Not defined for LM (carries cross-step noise state).
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.LM:
        raise IntegratorError("LM carries cached noise; no memoryless affine map")
    return _mode_map(scheme, lam, params, noise=True)


#: steps per block of :func:`simulate_mode_chain`
_CHAIN_BLOCK = 32


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
    P^B.  So long chains (10^6 steps) stay cheap.  The summation order
    differs from stepping, so positions are not bit-identical to
    :func:`step`: they agree with it to rounding.  Raises IntegratorError
    exactly when the final state z_n is non-finite; n = 0 gives [x0].
    """
    P, N = affine_mode_map(scheme, lam, params)
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2 or noise.shape[1] != N.shape[1]:
        raise IntegratorError(f"noise must have shape (n, {N.shape[1]}), got {noise.shape}")
    (n, k), B = noise.shape, _CHAIN_BLOCK
    R = max(1, -(-n // B))  # blocks; steps past n see zero noise and are dropped
    # a diverging chain overflows in the dropped tail or at its end: only z_n is judged
    with np.errstate(over="ignore", invalid="ignore"):
        # P^0 .. P^B, in extended precision where numpy has one: the carry repeats
        # the rounding of P^B n/B times, and one rounding of the exact power cuts that
        # drift 3-12x (10^5 steps at rho(P) = 1 - 2.5e-6, against an 80-bit loop)
        powers = [np.eye(2, dtype=np.longdouble)]
        for _ in range(B):
            powers.append(P.astype(np.longdouble) @ powers[-1])
        powers = np.array(powers, dtype=float)
        xi = np.zeros((R, B * k))
        xi.reshape(-1, k)[:n] = noise
        # T[(i, c), (j, d)] = (P^(j-i) N)[d, c] for i <= j, so Y[r, j] = sum_{i<=j} P^(j-i) N xi[rB + i]
        # is the state after j + 1 steps of block r from zero
        lag = np.arange(B)[None, :] - np.arange(B)[:, None]
        T = np.where((lag >= 0)[:, :, None, None], (powers[:B] @ N)[np.maximum(lag, 0)], 0.0)
        T = T.transpose(0, 3, 1, 2).reshape(B * k, B * 2)
        Y = np.empty((R, B * 2))
        # B rows a call keeps OpenBLAS on the calling thread: one threaded gemm over
        # all rows left its workers spinning and slowed the next 0.2 s of work by ~30%
        # (2-vCPU VM)
        for r in range(0, R, B):
            np.matmul(xi[r : r + B], T, out=Y[r : r + B])
        del xi
        Y = Y.reshape(R, B, 2)
        (a00, a01), (a10, a11) = powers[B].tolist()
        x, v = float(x0), float(v0)
        starts = [(x, v)]
        for ex, ev in Y[:-1, -1].tolist():
            x, v = a00 * x + a01 * v + ex, a10 * x + a11 * v + ev
            starts.append((x, v))
        starts = np.array(starts)  # z at steps 0, B, 2B, ...
        X = starts[:, :1] * powers[1:, 0, 0]  # x of P^(j+1) z_rB, elementwise for the same reason
        X += starts[:, 1:] * powers[1:, 0, 1]
        X += Y[:, :, 0]
        last = n - (R - 1) * B  # steps taken in the last block
        z_n = powers[last] @ starts[-1] + (Y[-1, last - 1] if last else 0.0)
    if not np.isfinite(z_n).all():
        raise IntegratorError("chain diverged to non-finite state")
    xs = np.empty(n + 1)
    xs[0] = x0
    xs[1:] = X.reshape(-1)[:n]
    return xs
