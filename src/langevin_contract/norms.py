"""Weighted phase-space norms.

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
