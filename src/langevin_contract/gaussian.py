"""Exact spectral analysis of the difference dynamics on Gaussian targets.

Diagonal quadratic targets decouple into scalar modes of curvature lam, so
the coupled difference process is governed by one 2x2 mode matrix per
mode (see :func:`mode_eigenvalues`).  This module computes mode
eigenvalues (closed forms for the kinetic Euler-Maruyama and BAO schemes,
direct eigensolves otherwise), monotone stability thresholds, the exact
BAO mode rate, grid scans and the stationary law of a mode's chain.

Two different decay notions are reported and never conflated: the spectral
radius governs the asymptotic decay of the mode, while the certified rate
c(h) bounds the weighted norm uniformly at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import CERTIFICATE_SCHEMES, search, step_matrix, transition_matrix_P
from .integrators import KINETIC_SCHEMES, Scheme, StepParams, affine_mode_map


class SpectralError(ValueError):
    """Invalid spectral query."""


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of one mode's difference map and its contraction flag."""

    scheme: Scheme
    lam: float
    h: float
    gamma: float
    eigenvalues: tuple[complex, complex]
    spectral_radius: float
    contractive: bool  # spectral radius < 1


def _eig_pair(trace: float, det: float) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 from trace and determinant, small root via
    det / big root so it never cancels to zero spuriously; infinite when
    the trace or determinant is not finite (an entry overflowed)."""
    if not (math.isfinite(trace) and math.isfinite(det)):
        return (complex(math.inf), complex(math.inf))
    disc = trace * trace - 4.0 * det
    if disc < 0.0:
        r = math.sqrt(-disc)
        return (complex(trace / 2.0, r / 2.0), complex(trace / 2.0, -r / 2.0))
    r = math.sqrt(disc)
    big = 0.5 * (trace + r) if trace >= 0.0 else 0.5 * (trace - r)
    if big == 0.0:
        return (0.0 + 0.0j, 0.0 + 0.0j)
    return (complex(big), complex(det / big))


def mode_eigenvalues(scheme: Scheme, lam: float, params: StepParams) -> tuple[complex, complex]:
    """Both eigenvalues of the mode transition matrix.

    Closed forms (evaluated in the cancellation-free trace/det form):
      kinetic_em:  (2 - gamma h +/- h sqrt(gamma^2 - 4 lam)) / 2
      bao:         (1 + eta - h^2 lam +/- sqrt((1 + eta - h^2 lam)^2 - 4 eta)) / 2
    Other schemes use the trace and determinant of the 2x2 mode matrix: a
    member of ``CERTIFICATE_SCHEMES`` its certificate block (same spectrum
    as the full step), :func:`~langevin_contract.certificates.transition_matrix_P`,
    and any other scheme the step core's own map, :func:`~langevin_contract.certificates.step_matrix`.
    """
    scheme = Scheme(scheme)
    if not lam > 0.0:  # NaN too
        raise SpectralError(f"lam must be positive, got {lam}")
    if scheme not in KINETIC_SCHEMES:
        raise SpectralError(f"{scheme.value} is overdamped: its mode contracts by 1 - h lam")
    h, g = params.h, params.gamma
    if scheme is Scheme.KINETIC_EM:
        return _eig_pair(2.0 - g * h, 1.0 - g * h + h * h * lam)
    if scheme is Scheme.BAO:
        return _eig_pair(1.0 + params.eta - h * h * lam, params.eta)
    matrix = transition_matrix_P if scheme in CERTIFICATE_SCHEMES else step_matrix
    (p00, p01), (p10, p11) = matrix(scheme, lam, params).tolist()  # Python floats overflow without a warning
    return _eig_pair(p00 + p11, p00 * p11 - p01 * p10)


def mode_report(scheme: Scheme, lam: float, params: StepParams) -> SpectralReport:
    eigs = mode_eigenvalues(scheme, lam, params)
    radius = max(abs(eigs[0]), abs(eigs[1]))
    return SpectralReport(
        scheme=Scheme(scheme),
        lam=lam,
        h=params.h,
        gamma=params.gamma,
        eigenvalues=eigs,
        spectral_radius=radius,
        contractive=bool(radius < 1.0),
    )


def _monotone_stable(scheme: Scheme, lam: float, gamma: float, h: float) -> bool:
    """Stability in the monotone-contraction sense: every eigenvalue has
    modulus < 1 and strictly positive real part.

    The positive-real-part requirement is what makes the threshold match
    the closed forms 2/(gamma + sqrt(gamma^2 - 4 lam)) (kinetic EM) and
    sqrt((1 + eta)/lam) (BAO); on the pure radius criterion both schemes
    stay stable somewhat beyond those points with oscillating modes.
    """
    eigs = mode_eigenvalues(scheme, lam, StepParams(h, gamma))
    return all(abs(e) < 1.0 and e.real > 0.0 for e in eigs)


#: largest stepsize :func:`stability_threshold` searches, and its bisection width
STABILITY_CAP = 1e6
STABILITY_TOL = 1e-10


def stability_threshold(scheme: Scheme, lam: float, gamma: float) -> float:
    """Largest monotonically stable h, located by bisection.

    :func:`~langevin_contract.certificates.search` starts at
    min(1/sqrt(lam), :data:`STABILITY_CAP`), doubles or halves to bracket
    the threshold, then bisects to :data:`STABILITY_TOL` or to adjacent
    floats.  Returns the cap when the cap is stable and 0.0 when no h that
    halving reaches is; an overdamped scheme raises, as does
    a lam that is not positive, before the start value 1/sqrt(lam).
    """
    scheme = Scheme(scheme)
    if not lam > 0.0:  # NaN too
        raise SpectralError(f"lam must be positive, got {lam}")

    def stable(h: float) -> bool:
        return _monotone_stable(scheme, lam, gamma, h)

    return search(stable, min(1.0 / math.sqrt(lam), STABILITY_CAP), STABILITY_CAP, 79, STABILITY_TOL)


def bao_exact_rate(m: float, h: float, gamma: float) -> float:
    """Exact squared-distance mode rate of BAO at curvature m.

    Real-eigenvalue branch:
        c_N = 1 - eta + h^2 m - sqrt((1 - eta + h^2 m)^2 - 4 h^2 m).
    When the discriminant is negative the eigenvalues form a conjugate
    pair of modulus sqrt(eta) and the modulus-based squared rate
    1 - eta is returned instead.
    """
    if m <= 0.0 or h <= 0.0 or gamma <= 0.0:
        raise SpectralError("m, h, gamma must be positive")
    eta = math.exp(-gamma * h)
    s0 = 1.0 - eta + h * h * m
    disc = s0 * s0 - 4.0 * h * h * m
    if disc < 0.0:
        return 1.0 - eta
    return s0 - math.sqrt(disc)


def stationary_covariance(scheme: Scheme, lam: float, params: StepParams) -> np.ndarray:
    """S = P S P^T + N N^T, solved on vec(S), for a mode's chain z' = P z + N xi
    (:func:`~langevin_contract.integrators.affine_mode_map`).  Raises unless
    |det P| < 1 and |tr P| < 1 + det P (Jury: both eigenvalues in the open unit
    disk), so rho(P) = 1, as at gamma = inf for oab, abo, boa and ses, fails exactly."""
    scheme = Scheme(scheme)
    P, N = affine_mode_map(scheme, lam, params)
    (p00, p01), (p10, p11) = P.tolist()
    trace, det = p00 + p11, p00 * p11 - p01 * p10
    if not (abs(det) < 1.0 and abs(trace) < 1.0 + det):
        raise SpectralError(f"{scheme.value}'s mode chain is not stable at lam={lam}, {params}")
    return np.linalg.solve(np.eye(4) - np.kron(P, P), (N @ N.T).ravel()).reshape(2, 2)


def gaussian_scan(scheme: Scheme, m: float, M: float, gamma: float, h_grid) -> list[SpectralReport]:
    """Spectral reports over an h grid at both extreme curvatures: for each h,
    the m-mode's report and then the M-mode's, two reports even when m = M."""
    h_grid = list(h_grid)
    if not h_grid:
        raise SpectralError("h grid must be non-empty")
    return [mode_report(scheme, lam, StepParams(h, gamma)) for h in h_grid for lam in (m, M)]
