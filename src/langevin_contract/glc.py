"""High-friction (gamma -> infinity) limit maps and GLC classification.

Each kinetic scheme has a pointwise limit of its position update as the
friction grows.  A scheme is gamma-limit convergent (GLC) when that limit
is a consistent overdamped discretization with no potential rescaling and
a friction-independent stepsize restriction; of the schemes here only
baoab and obabo qualify:

    bao:    x - h^2 grad U(x) + h xi_k        (previous step's O-noise;
            an overdamped EM step for a rescaled potential -- not GLC)
    oab:    x + h xi                          (gradient drops out -- not GLC)
    baoab:  x - h^2/2 grad U(x) + h/2 (xi_k + xi_{k+1})
            == averaged-noise overdamped EM (LM) at stepsize h^2/2 -- GLC
    obabo:  x - h^2/2 grad U(x) + h xi        == overdamped EM at h^2/2 -- GLC
    ses:    x                                 (frozen -- not GLC)

kinetic_em has no finite limit map (the velocity update diverges for any
fixed h), and the remaining first-order permutations are reported as
underived.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .coupling import (
    CounterStreams,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_synchronous_coupling,
)
from .integrators import IntegratorError, PhaseState, Scheme, StepParams, noise_requirements, step
from .potentials import Potential


class LimitError(ValueError):
    """Scheme has no derived high-friction limit."""


@dataclass(frozen=True)
class _LimitMap:
    """High-friction limit of one scheme's position update.

    ``step(p, x, h, xi)`` is the limit position update, consuming
    ``noise_count`` standard-normal d-vectors stacked in ``xi``;
    ``matched_noise(p, x, v, h, raw)`` maps one full step's raw draws (and
    the incoming velocity) onto those limit-step draws.  ``step`` is None
    when the scheme has no finite limit map.
    """

    glc: bool
    noise_count: int = 0
    step: Callable | None = None
    matched_noise: Callable | None = None


# In the limit the velocity equals the previous refresh draw, so bao's
# lagged noise is v itself and baoab's pair is (v + h/2 grad U(x), xi).
_LIMIT_MAPS = {
    Scheme.BAO: _LimitMap(
        glc=False,
        noise_count=1,
        step=lambda p, x, h, xi: x - h * h * p.gradient(x) + h * xi[0],
        matched_noise=lambda p, x, v, h, raw: v[np.newaxis],
    ),
    Scheme.OAB: _LimitMap(
        glc=False,
        noise_count=1,
        step=lambda p, x, h, xi: x + h * xi[0],
        matched_noise=lambda p, x, v, h, raw: raw[:1],
    ),
    Scheme.BAOAB: _LimitMap(
        glc=True,
        noise_count=2,
        step=lambda p, x, h, xi: x - 0.5 * h * h * p.gradient(x) + 0.5 * h * (xi[0] + xi[1]),
        matched_noise=lambda p, x, v, h, raw: np.stack([v + 0.5 * h * p.gradient(x), raw[0]]),
    ),
    Scheme.OBABO: _LimitMap(
        glc=True,
        noise_count=1,
        step=lambda p, x, h, xi: x - 0.5 * h * h * p.gradient(x) + h * xi[0],
        matched_noise=lambda p, x, v, h, raw: raw[:1],
    ),
    Scheme.SES: _LimitMap(
        glc=False,
        noise_count=0,
        step=lambda p, x, h, xi: x.copy(),
        matched_noise=lambda p, x, v, h, raw: None,
    ),
    Scheme.KINETIC_EM: _LimitMap(glc=False),
}

#: standard-normal d-vectors consumed by one limit step
LIMIT_NOISE_COUNTS = {s: r.noise_count for s, r in _LIMIT_MAPS.items() if r.step is not None}


def classify_glc(scheme: Scheme) -> bool:
    """True iff the high-friction limit is a faithful overdamped scheme."""
    scheme = Scheme(scheme)
    if scheme in _LIMIT_MAPS:
        return _LIMIT_MAPS[scheme].glc
    raise LimitError(f"high-friction limit of {scheme.value} not derived")


def _limit_map(scheme: Scheme) -> _LimitMap:
    rec = _LIMIT_MAPS.get(scheme)
    if rec is None:
        raise LimitError(f"high-friction limit of {scheme.value} not derived")
    if rec.step is None:
        raise LimitError(f"{scheme.value} has no finite limit map (unstable for fixed h)")
    return rec


def limit_step(scheme: Scheme, p: Potential, x: np.ndarray, h: float, noise) -> np.ndarray:
    """One step of the scheme's high-friction position update.

    ``noise`` stacks LIMIT_NOISE_COUNTS[scheme] standard-normal d-vectors:
    for baoab the pair (previous, current); for bao the previous step's
    draw; for oab/obabo the current draw; ses takes none.  kinetic_em
    raises (no finite limit map).
    """
    rec = _limit_map(Scheme(scheme))
    x = np.asarray(x, dtype=float)
    need = rec.noise_count
    xi = np.asarray(noise, dtype=float).reshape(need, *x.shape) if need else None
    return rec.step(p, x, h, xi)


def glc_deviation(
    scheme: Scheme,
    p: Potential,
    x: np.ndarray,
    v: np.ndarray,
    h: float,
    gamma: float,
    seed: int,
) -> float:
    """Position gap between one full step and one matched limit step.

    Both consume the same underlying draws (mapped per scheme); the gap
    vanishes as gamma grows since the limit map is the pointwise limit of
    the position update.
    """
    scheme = Scheme(scheme)
    rec = _limit_map(scheme)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    params = StepParams(h, gamma)
    streams = CounterStreams(seed)
    d = x.shape[-1]
    raw = np.stack([streams.normals(j, 1, d)[0] for j in range(noise_requirements(scheme))])
    full = step(scheme, p, PhaseState(x, v), params, raw)
    limited = limit_step(scheme, p, x, h, rec.matched_noise(p, x, v, h, raw))
    return float(np.linalg.norm(full.x - limited))


DEFAULT_GAMMA_GRID = (1e1, 1e2, 1e3, 1e4, 1e6, 1e8)
#: deviation sweeps run at this fraction of the per-gamma stepsize threshold
THRESHOLD_FRACTION = 0.8


@dataclass(frozen=True)
class CollapseRow:
    """One gamma entry of a rate-collapse sweep."""

    scheme: Scheme
    gamma: float
    h: float
    c_theoretical: float
    c_empirical: float
    admissible: bool
    deviation: float  # nan when the scheme has no limit map


def rate_collapse_scan(
    scheme: Scheme,
    m: float,
    M: float,
    h: float | None,
    gamma_grid=DEFAULT_GAMMA_GRID,
    n_steps: int = 2000,
    seed: int = 0,
) -> list[CollapseRow]:
    """Certified and empirical rates along a friction sweep.

    ``h`` may be a fixed stepsize or None, which picks 80% of the scheme's
    certified threshold at each gamma.  Empirical rates come from a
    synchronously coupled pair on the diagonal quadratic target
    diag(m, M); inadmissible entries are flagged and fitted anyway (forced
    run) so the collapse is visible.
    """
    from .potentials import QuadraticPotential

    scheme = Scheme(scheme)
    pot = QuadraticPotential.diagonal([m, M])
    rows = []
    for gamma in gamma_grid:
        h_used = h if h is not None else THRESHOLD_FRACTION * certified_stepsize_threshold(scheme, m, M, gamma)
        if h_used <= 0.0:
            rows.append(CollapseRow(scheme, gamma, 0.0, 0.0, math.nan, False, math.nan))
            continue
        rate = certified_rate(scheme, m, M, gamma, h_used)
        z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
        z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))
        try:
            trace = run_synchronous_coupling(
                scheme, pot, z0, z1, StepParams(h_used, gamma), n_steps, seed, force=True
            )
            c_hat = empirical_rate(positive_prefix(trace))
        except (IntegratorError, ValueError):
            c_hat = math.nan
        if scheme in LIMIT_NOISE_COUNTS:
            dev = glc_deviation(
                scheme, pot, np.array([-1.0, -1.0]), np.zeros(2), h_used, gamma, seed
            )
        else:
            dev = math.nan
        rows.append(CollapseRow(scheme, gamma, h_used, rate.c, c_hat, rate.admissible, dev))
    return rows
