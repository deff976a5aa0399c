"""Strongly convex target potentials with certified curvature bounds.

Every potential carries constants 0 < m <= M such that U is m-strongly
convex and grad U is M-Lipschitz; the spectrum of the Hessian (and of any
segment-averaged Hessian) then lies inside [m, M].  Evaluators accept
batched inputs of shape (..., dim).  Potentials are immutable after
construction; the only deferred work is the dense matrix of a diagonal
quadratic target, built on first use.
"""

from __future__ import annotations

import numpy as np


class PotentialError(ValueError):
    """Invalid potential parameters or evaluation request."""


class Potential:
    """Base class: a target U with gradient oracle and (m, M) certificates.

    Subclasses must implement ``value`` and ``gradient``; ``hessian`` is
    optional (required only by :func:`mean_value_hessian` on non-quadratic
    targets).
    """

    def __init__(self, dim: int, m: float, M: float):
        if dim < 1:
            raise PotentialError(f"dim must be a positive integer, got {dim}")
        if not (0.0 < m <= M):
            raise PotentialError(f"need 0 < m <= M, got m={m}, M={M}")
        self.dim = int(dim)
        self.m = float(m)
        self.M = float(M)

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x: np.ndarray) -> np.ndarray:
        raise PotentialError(f"{type(self).__name__} exposes no Hessian oracle")

    @property
    def has_hessian(self) -> bool:
        try:
            self.hessian(np.zeros(self.dim))
        except PotentialError:
            return False
        return True

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise PotentialError(
                f"dimension mismatch: expected last axis {self.dim}, got shape {x.shape}"
            )
        return x


def _finite_array(raw, name: str, ndim: int) -> np.ndarray:
    """``raw`` as a non-empty float array of ``ndim`` axes with finite entries."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as e:
        raise PotentialError(f"{name} must be an array of numbers: {e}")
    if arr.ndim != ndim or arr.size == 0:
        raise PotentialError(f"{name} must be a non-empty {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise PotentialError(f"{name} entries must be finite")
    return arr


class QuadraticPotential(Potential):
    """U(x) = 1/2 x^T Q x for a symmetric positive definite Q.

    m and M are the extreme eigenvalues of Q.  A diagonal Q is kept as its
    diagonal vector: m and M are its extremes, the gradient is an
    elementwise product, and the dense ``matrix`` is built only on first
    use.
    """

    def __init__(self, matrix: np.ndarray):
        Q = _finite_array(matrix, "matrix", 2)
        if Q.shape[0] != Q.shape[1]:
            raise PotentialError(f"matrix must be square, got shape {Q.shape}")
        if np.count_nonzero(Q) == np.count_nonzero(np.diagonal(Q)):  # diagonal Q
            self._init_diagonal(np.diagonal(Q).copy())
            return
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(Q).max())):
            raise PotentialError("matrix must be symmetric")
        eigs = np.linalg.eigvalsh(Q)
        if eigs[0] <= 0.0:
            raise PotentialError(f"matrix must be positive definite, min eig {eigs[0]}")
        super().__init__(Q.shape[0], eigs[0], eigs[-1])
        self._diag = None
        self._matrix = Q.copy()
        self._matrix.setflags(write=False)

    def _init_diagonal(self, diag: np.ndarray) -> None:
        # the eigenvalues of a diagonal matrix are its entries, exactly
        if diag.min() <= 0.0:
            raise PotentialError(f"matrix must be positive definite, min eig {diag.min()}")
        super().__init__(diag.size, diag.min(), diag.max())
        diag.setflags(write=False)
        self._diag = diag
        self._matrix = None

    @classmethod
    def diagonal(cls, diag) -> "QuadraticPotential":
        """The target Q = diag(diag), kept as the vector."""
        p = cls.__new__(cls)
        p._init_diagonal(np.array(_finite_array(diag, "diag", 1)))
        return p

    @classmethod
    def anisotropic_gaussian(cls, m: float, M: float) -> "QuadraticPotential":
        """The 2-d benchmark target U(x, y) = m x^2 / 2 + M y^2 / 2."""
        if not m <= M:
            raise PotentialError(f"need m <= M, got m={m}, M={M}")
        return cls.diagonal([m, M])

    @property
    def matrix(self) -> np.ndarray:
        """Q as a read-only dense (dim, dim) array."""
        if self._matrix is None:
            Q = np.diag(self._diag)
            Q.setflags(write=False)
            self._matrix = Q
        return self._matrix

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._value(self._check_dim(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradient(self._check_dim(x))

    # _value and _gradient take an x already checked by _check_dim
    def _value(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(x * self._gradient(x), axis=-1)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        if self._diag is not None:
            return self._diag * x
        return x @ self._matrix

    def hessian(self, x: np.ndarray) -> np.ndarray:
        self._check_dim(x)
        return self.matrix.copy()


class PerturbedQuadratic(Potential):
    """U(x) = 1/2 x^T Q x + eps * sum_i cos(x_i), a non-Gaussian smooth target.

    The cosine perturbation shifts the certified constants to
    (m_Q - eps, M_Q + eps); eps < m_Q is required so strong convexity
    survives.  ``matrix`` is Q itself or a :class:`QuadraticPotential`
    holding it.
    """

    def __init__(self, matrix, eps: float):
        base = matrix if isinstance(matrix, QuadraticPotential) else QuadraticPotential(matrix)
        if not 0.0 <= eps < base.m:
            raise PotentialError(f"need 0 <= eps < lambda_min(Q)={base.m}, got eps={eps}")
        super().__init__(base.dim, base.m - eps, base.M + eps)
        self._base = base
        self.eps = float(eps)

    @property
    def matrix(self) -> np.ndarray:
        """Q of the quadratic part, as :attr:`QuadraticPotential.matrix`."""
        return self._base.matrix

    def value(self, x: np.ndarray) -> np.ndarray:
        x = self._check_dim(x)
        return self._base._value(x) + self.eps * np.sum(np.cos(x), axis=-1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_dim(x)
        return self._base._gradient(x) - self.eps * np.sin(x)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = self._check_dim(x)
        if x.ndim != 1:
            raise PotentialError("hessian expects a single point of shape (dim,)")
        return self.matrix - self.eps * np.diag(np.cos(x))


# Gauss-Legendre order for the segment average of the Hessian; exact for
# quadratics by construction and ample for the smooth built-ins.
_GL_NODES = 16


def mean_value_hessian(p: Potential, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Average Hessian Q = int_0^1 hess U(x + t(y - x)) dt along the segment.

    Satisfies Q (y - x) = grad U(y) - grad U(x) with spectrum in [m, M].
    Quadratic targets return their matrix exactly; anything else is
    integrated by fixed-order Gauss-Legendre quadrature in t.
    """
    x = p._check_dim(np.asarray(x, dtype=float))
    y = p._check_dim(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise PotentialError("x and y must be single points of equal shape (dim,)")
    if isinstance(p, QuadraticPotential):
        return p.matrix.copy()
    if not p.has_hessian:
        raise PotentialError(f"{type(p).__name__} exposes no Hessian oracle")
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    ts = 0.5 * (nodes + 1.0)  # map [-1, 1] -> [0, 1]
    Q = np.zeros((p.dim, p.dim))
    for t, w in zip(ts, weights):
        Q += 0.5 * w * p.hessian(x + t * (y - x))
    return 0.5 * (Q + Q.T)


def make_potential(spec: dict) -> Potential:
    """Build a potential from a config mapping (CLI entry point).

    Recognized names: ``quadratic`` (keys: one of ``matrix`` | ``diag`` |
    ``m``/``M`` for the 2-d anisotropic Gaussian) and
    ``perturbed_quadratic`` (same keys plus ``eps``).
    """
    kind = spec.get("name")
    if kind not in ("quadratic", "perturbed_quadratic"):
        raise PotentialError(f"unknown potential name: {kind!r}")
    if "matrix" in spec:
        base = QuadraticPotential(spec["matrix"])
    elif "diag" in spec:
        base = QuadraticPotential.diagonal(spec["diag"])
    elif "m" in spec and "M" in spec:
        base = QuadraticPotential.anisotropic_gaussian(float(spec["m"]), float(spec["M"]))
    else:
        raise PotentialError("potential spec needs 'matrix', 'diag', or 'm' and 'M'")
    if kind == "quadratic":
        return base
    return PerturbedQuadratic(base, float(spec.get("eps", 0.0)))
