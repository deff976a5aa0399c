"""High-friction (gamma -> infinity) limits and GLC classification.

A kinetic scheme's high-friction limit is its own step at gamma = inf.  A
splitting's constants depend on gamma only through eta = exp(-gamma tau),
so its limit is the same step core at eta = 0, sqrt(1 - eta^2) = 1: each O
piece sets v to its draw.  SES's constants take their limits too (see
:func:`langevin_contract.integrators._coefficients`).  The limit exists
when every step constant is finite there; kinetic_em's gamma h and
sqrt(2 gamma h) are not, so it has none.

:func:`rate_collapse_scan` shows the classification in rates: it sweeps one
scheme's friction (by default up to gamma = 1e8) and runs the coupled pairs
of every (gamma, seed) point of the sweep as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import (
    CounterStreams,
    CouplingError,
    CouplingPoint,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_coupling_batch,
    run_synchronous_coupling,  # noqa: F401  (bench/child.py traces it here by name)
)
from .gaussian import SpectralError, stationary_covariance
from .integrators import (
    OVERDAMPED_SCHEMES,
    IntegratorError,
    PhaseState,
    Scheme,
    StepParams,
    _coefficients,
    noise_requirements,
    step,
)
from .potentials import Potential, QuadraticPotential


class LimitError(ValueError):
    """Scheme has no high-friction limit."""


#: h sqrt(lam) at which :func:`classify_glc` reads the limit chain's stationary law
GLC_STEPS = (1e-2, 1e-3)


def classify_glc(scheme: Scheme) -> bool:
    """True iff the scheme is gamma-limit convergent (GLC) in its limit half.

    A GLC scheme's limit is a consistent overdamped discretization with no
    potential rescaling, under a friction-independent stepsize restriction.
    This computes the first half: on the mode U(x) = x^2 / 2 the limit's mode
    chain must be stable, with a stationary Var(x) within h of 1 at each h in
    :data:`GLC_STEPS` (:func:`~langevin_contract.gaussian.stationary_covariance`).
    The stepsize half is ROADMAP item 6(ii)'s property test.  kinetic_em has
    no limit, so it is not GLC; an overdamped scheme raises LimitError."""
    scheme = Scheme(scheme)
    try:
        laws = [stationary_covariance(scheme, 1.0, _limit_params(scheme, h))[0, 0] for h in GLC_STEPS]
    except (LimitError, SpectralError):  # no limit (kinetic_em), or no stationary law
        if scheme in OVERDAMPED_SCHEMES:
            raise
        return False
    return all(abs(law - 1.0) <= h for h, law in zip(GLC_STEPS, laws))


def _limit_params(scheme: Scheme, h: float) -> StepParams:
    """StepParams(h, inf), where a kinetic scheme's step is its high-friction
    limit; raises LimitError, before any step is taken, if there is none."""
    params = StepParams(h, math.inf)
    if scheme in OVERDAMPED_SCHEMES:
        raise LimitError(f"{scheme.value} is overdamped: it has no friction to take to infinity")
    try:
        _coefficients(scheme, params)
    except IntegratorError:
        raise LimitError(f"{scheme.value} has no high-friction limit: its step constants diverge") from None
    return params


def limit_step(scheme: Scheme, p: Potential, state: PhaseState, h: float, noise) -> PhaseState:
    """One step of the scheme's high-friction limit: its :func:`step` at gamma = inf.

    Every O piece there has eta = 0, so it sets v to its draw.  ``noise``
    holds the scheme's own ``noise_requirements(scheme)`` draws; bao's
    drift reads the previous step's draw, which is just the incoming v.
    kinetic_em and the overdamped schemes raise LimitError.
    """
    scheme = Scheme(scheme)
    return step(scheme, p, state, _limit_params(scheme, h), noise)


def glc_deviation(
    scheme: Scheme,
    p: Potential,
    x: np.ndarray,
    v: np.ndarray,
    h: float,
    gamma: float,
    seed: int,
) -> float:
    """Position gap between one step at gamma and one limit step.

    Both start from (x, v) and consume the same draws, so the gap vanishes
    as gamma grows, the step's constants tending to the limit's.  A scheme
    without a limit (:func:`limit_step`) raises LimitError before any draw.
    """
    scheme = Scheme(scheme)
    limit = _limit_params(scheme, h)
    state = PhaseState(x, v)
    streams = CounterStreams(seed)
    xi = np.stack([streams.normals(j, 1, state.dim)[0] for j in range(noise_requirements(scheme))])
    limited = step(scheme, p, state, limit, xi)
    full = step(scheme, p, state, StepParams(h, gamma), xi)
    return float(np.linalg.norm(full.x - limited.x))


DEFAULT_GAMMA_GRID = (1e1, 1e2, 1e3, 1e4, 1e6, 1e8)
#: deviation sweeps run at this fraction of the per-gamma stepsize threshold
THRESHOLD_FRACTION = 0.8


@dataclass(frozen=True)
class CollapseRow:
    """One (seed, gamma) entry of a rate-collapse sweep."""

    scheme: Scheme
    gamma: float
    h: float
    c_theoretical: float
    c_empirical: float
    admissible: bool
    deviation: float  # nan without a high-friction limit or valid step constants


def rate_collapse_scan(
    scheme: Scheme,
    m: float,
    M: float,
    h: float | None,
    gamma_grid=DEFAULT_GAMMA_GRID,
    n_steps: int = 2000,
    seeds=(0,),
) -> list[CollapseRow]:
    """Certified and empirical rates along a friction sweep, one row per
    (seed, gamma) in that order.

    ``h`` may be a fixed stepsize or None, which picks 80% of the scheme's
    certified threshold at each gamma; below a friction floor (h = 0) the
    row is nan.  Empirical rates come from a synchronously coupled pair per
    (gamma, seed) on the diagonal quadratic target diag(m, M), all of them
    one :func:`run_coupling_batch`, each point on its seed's own streams.
    Inadmissible entries are flagged and fitted anyway (forced run) so the
    collapse is visible; each run is measured in its rate's
    :attr:`~langevin_contract.coupling.CertifiedRate.norm`, so a point whose
    certified norm is degenerate (b^2 >= a) is fitted as ``couple --force``
    fits it.  ``c_empirical`` is nan where no rate can be fitted: at a point
    whose step constants are invalid, which stays out of the batch and has
    no ``deviation`` either, and on a forced run that diverges or merges
    within 10 steps.
    """
    scheme = Scheme(scheme)
    pot = QuadraticPotential.diagonal([m, M])
    z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
    z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))
    sweep = []  # (gamma, h, rate) per gamma; no rate below the friction floor
    for gamma in gamma_grid:
        h_used = h if h is not None else THRESHOLD_FRACTION * certified_stepsize_threshold(scheme, m, M, gamma)
        sweep.append((gamma, h_used, None if h_used <= 0.0 else certified_rate(scheme, m, M, gamma, h_used)))
    rows, points, batched = [], [], []
    for seed in seeds:
        for gamma, h_used, rate in sweep:
            if rate is None:
                rows.append(CollapseRow(scheme, gamma, 0.0, 0.0, math.nan, False, math.nan))
                continue
            try:
                dev = glc_deviation(scheme, pot, z0.x, z0.v, h_used, gamma, seed)
            except (LimitError, IntegratorError):  # no limit, or invalid step constants
                dev = math.nan
            rows.append(CollapseRow(scheme, gamma, h_used, rate.c, math.nan, rate.admissible, dev))
            params = StepParams(h_used, gamma)
            try:
                _coefficients(scheme, params)  # in the batch, its error would stop every point
                points.append(CouplingPoint(params, seed, rate))
            except IntegratorError:
                continue  # no run: c_empirical stays nan
            batched.append(len(rows) - 1)
    for i, trace in zip(batched, run_coupling_batch(pot, z0, z1, points, n_steps)):
        try:
            rows[i] = replace(rows[i], c_empirical=empirical_rate(positive_prefix(trace)))
        except CouplingError:
            pass
    return rows
