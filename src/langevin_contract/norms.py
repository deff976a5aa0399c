"""Weighted phase-space norms and Wasserstein bookkeeping.

The workhorse is the quadratic form

    |z|_{a,b}^2 = |x|^2 + 2 b <x, v> + a |v|^2,   z = (x, v),

which is positive definite exactly when b^2 < a (minimum eigenvalue of the
2x2 structure matrix [[1, b], [b, a]] is positive).  The 1/2 and 3/2
equivalence constants against |z|_{a,0}^2 are guaranteed under the stronger
condition 2b <= sqrt(a), which is what the bounds here assume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NormError(ValueError):
    """Invalid norm weights or arguments."""


@dataclass(frozen=True)
class WeightedNorm:
    """The (a, b) pair of the weighted phase-space norm."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise NormError(f"a must be positive, got {self.a}")
        if self.b < 0.0:
            raise NormError(f"b must be non-negative, got {self.b}")
        if not self.b * self.b < self.a:
            raise NormError(f"need b^2 < a for an equivalent norm, got a={self.a}, b={self.b}")

    def matrix(self) -> np.ndarray:
        """2x2 structure matrix [[1, b], [b, a]] of the quadratic form."""
        return np.array([[1.0, self.b], [self.b, self.a]])

    def squared(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """|x|^2 + 2b <x, v> + a |v|^2, batched over leading axes."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return (
            np.sum(x * x, axis=-1)
            + 2.0 * self.b * np.sum(x * v, axis=-1)
            + self.a * np.sum(v * v, axis=-1)
        )

    def equivalence_bounds(self, x, v) -> tuple[float, float, float]:
        """(lower, value, upper) for the 1/2 - 3/2 sandwich against |z|_{a,0}^2.

        The chain lower <= value <= upper is guaranteed when 2b <= sqrt(a);
        for b^2 < a < 4b^2 the returned bounds may be violated and are
        reported as-is.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        base = np.sum(x * x, axis=-1) + self.a * np.sum(v * v, axis=-1)
        return 0.5 * base, self.squared(x, v), 1.5 * base


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
