"""Synchronously coupled chain pairs and certified contraction rates.

Two chains driven by the identical noise sequence have a difference process
whose weighted norm contracts geometrically under the admissibility
conditions checked here.  The module runs such pairs, records the
squared-norm distance trace, fits empirical rates, and evaluates each
scheme's certified (a, b, c(h)) triple with its hypotheses.

Noise contract: draws come from counter-based Philox streams keyed on
(seed, chain-pair id, sub-step index) with the step index as the counter
position, so both chains of a pair consume byte-identical noise and sweeps
are reproducible regardless of scheduling.  A run keeps one generator per
substream alive and draws its noise in blocks of rows; this gives the same
numbers as one draw of the whole run.  The chain differences are reduced
to distances block by block too, so a run's memory does not grow with its
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import (
    PhaseState,
    Scheme,
    StepParams,
    _step_arrays,
    noise_requirements,
)
from .norms import WeightedNorm
from .potentials import Potential, QuadraticPotential


#: bytes per block buffer of streamed noise or chain differences; a run's
#: working memory is a few such blocks, whatever its length
_BLOCK_BYTES = 2**19


class CouplingError(ValueError):
    """Invalid coupling run or rate query."""


class InadmissibleParameters(CouplingError):
    """Parameters violate the scheme's contraction hypotheses."""


class CounterStreams:
    """Counter-based standard-normal streams (Philox 4x64).

    Stream identity is (seed, pair_id, substream); within a stream, row k
    is the draw for step k.  Generation is vectorized per stream, and the
    same (seed, pair_id) always reproduces the same numbers.  The coupling
    runner keeps one :meth:`generator` per substream and draws blocks of
    rows from it, byte-identical to a single :meth:`normals` draw.
    """

    def __init__(self, seed: int, pair_id: int = 0):
        if seed < 0 or pair_id < 0:
            raise CouplingError("seed and pair_id must be non-negative")
        self.seed = int(seed)
        self.pair_id = int(pair_id)

    def generator(self, substream: int) -> np.random.Generator:
        """A fresh generator at step 0 of one substream.

        Successive draws of whole rows continue the stream, so drawing n
        rows in blocks gives the same numbers as one :meth:`normals` call.
        """
        bg = np.random.Philox(
            counter=[0, 0, 0, int(substream)],
            key=[np.uint64(self.seed), np.uint64(self.pair_id)],
        )
        return np.random.Generator(bg)

    def normals(self, substream: int, n: int, dim: int) -> np.ndarray:
        """(n, dim) standard normals for steps 0..n-1 of one substream."""
        return self.generator(substream).standard_normal((n, dim))


@dataclass(frozen=True)
class CertifiedRate:
    """A scheme's certified norm weights and per-step squared-distance rate.

    ``c`` is the rate in the squared-norm convention: admissible parameters
    guarantee d_k <= prefactor^2 (1 - c)^(k - shift) d_0 for the coupled
    squared distance d_k.  ``constraints`` lists every checked hypothesis
    with its outcome; ``admissible`` is their conjunction (plus b^2 < a and
    0 < c < 1).
    """

    scheme: Scheme
    a: float
    b: float
    c: float
    prefactor: float
    shift: int
    admissible: bool
    constraints: tuple[str, ...]

    @property
    def norm(self) -> WeightedNorm:
        return WeightedNorm(self.a, self.b)

    def violated(self) -> tuple[str, ...]:
        return tuple(s for s in self.constraints if s.endswith("(violated)"))

    def bound_sq(self, k, d0):
        """Certified squared-distance bound prefactor^2 (1 - c)^(k - shift) d0
        at step k (a scalar or an array of steps)."""
        return self.prefactor**2 * (1.0 - self.c) ** (k - self.shift) * d0


def _fmt(name: str, ok: bool) -> str:
    return f"{name} ({'ok' if ok else 'violated'})"


def certified_rate(scheme: Scheme, m: float, M: float, gamma: float, h: float) -> CertifiedRate:
    """Certified (a, b, c) and admissibility for one parameter set.

    Per scheme (eta = exp(-gamma h) throughout, including OBABO, whose
    certificate block uses the full-step damping even though the integrator
    applies exp(-gamma h / 2) twice):

    - kinetic_em: a=1/M, b=1/gamma, c = m h / (2 gamma),
      needs gamma^2 >= 4M and h < 1/(2 gamma)
    - bao:        a=1/M, b=h/(1-eta), c = h^2 m / (4(1-eta)),
      needs h < (1-eta)/sqrt(6M)
    - oab:        a=1/M, b=eta h/(1-eta), c = eta h^2 m / (4(1-eta)),
      needs h < min(1/(4 gamma), (1-eta)/sqrt(6M))
    - baoab:      as bao with prefactor 7, needs h <= (1-eta)/(2 sqrt(M))
    - obabo:      as bao with prefactor 7, needs h < (1-eta)/(2 sqrt(M))
    - ses:        a=1/M, b=1/gamma, c = m h / (4 gamma),
      needs gamma >= 5 sqrt(M) and h <= 1/(2 gamma)
    - abo, boa:   oab's triple with prefactor 27 (boundary-operator route)
    - oba, aob:   bao's triple with prefactor 27
    - overdamped_em, lm: a=1, b=0, c = h m (2 - h M), needs h <= 2/M
    """
    scheme = Scheme(scheme)
    if not (0.0 < m <= M):
        raise CouplingError(f"need 0 < m <= M, got m={m}, M={M}")
    if gamma <= 0.0 or h <= 0.0:
        raise CouplingError(f"need gamma > 0 and h > 0, got gamma={gamma}, h={h}")
    eta = math.exp(-gamma * h)
    one_minus_eta = -math.expm1(-gamma * h)  # cancellation-free 1 - eta
    rootM = math.sqrt(M)
    checks: list[str] = []
    prefactor, shift = 1.0, 0

    if scheme in (Scheme.OVERDAMPED_EM, Scheme.LM):
        a, b = 1.0, 0.0
        c = h * m * (2.0 - h * M)
        checks.append(_fmt(f"h <= 2/M: {h} <= {2.0 / M}", h <= 2.0 / M))
    elif scheme is Scheme.KINETIC_EM:
        a, b, c = 1.0 / M, 1.0 / gamma, m * h / (2.0 * gamma)
        checks.append(_fmt(f"gamma^2 >= 4M: {gamma**2} >= {4 * M}", gamma**2 >= 4.0 * M))
        checks.append(_fmt(f"h < 1/(2 gamma): {h} < {0.5 / gamma}", h < 0.5 / gamma))
    elif scheme is Scheme.SES:
        a, b, c = 1.0 / M, 1.0 / gamma, m * h / (4.0 * gamma)
        checks.append(_fmt(f"gamma >= 5 sqrt(M): {gamma} >= {5 * rootM}", gamma >= 5.0 * rootM))
        checks.append(_fmt(f"h <= 1/(2 gamma): {h} <= {0.5 / gamma}", h <= 0.5 / gamma))
    elif scheme in (Scheme.BAO, Scheme.OBA, Scheme.AOB):
        a, b = 1.0 / M, h / one_minus_eta
        c = h * h * m / (4.0 * one_minus_eta)
        lim = one_minus_eta / math.sqrt(6.0 * M)
        checks.append(_fmt(f"h < (1-eta)/sqrt(6M): {h} < {lim}", h < lim))
        if scheme is not Scheme.BAO:
            prefactor, shift = 27.0, 1
    elif scheme in (Scheme.OAB, Scheme.ABO, Scheme.BOA):
        a, b = 1.0 / M, eta * h / one_minus_eta
        c = eta * h * h * m / (4.0 * one_minus_eta)
        lim = one_minus_eta / math.sqrt(6.0 * M)
        checks.append(_fmt(f"h < 1/(4 gamma): {h} < {0.25 / gamma}", h < 0.25 / gamma))
        checks.append(_fmt(f"h < (1-eta)/sqrt(6M): {h} < {lim}", h < lim))
        if scheme is not Scheme.OAB:
            prefactor, shift = 27.0, 1
    elif scheme in (Scheme.BAOAB, Scheme.OBABO):
        a, b = 1.0 / M, h / one_minus_eta
        c = h * h * m / (4.0 * one_minus_eta)
        lim = one_minus_eta / (2.0 * rootM)
        if scheme is Scheme.BAOAB:
            checks.append(_fmt(f"h <= (1-eta)/(2 sqrt(M)): {h} <= {lim}", h <= lim))
        else:
            checks.append(_fmt(f"h < (1-eta)/(2 sqrt(M)): {h} < {lim}", h < lim))
        prefactor, shift = 7.0, 1
    else:  # pragma: no cover - enum is exhaustive
        raise CouplingError(f"unknown scheme {scheme!r}")

    checks.append(_fmt(f"0 < c < 1: c={c}", 0.0 < c < 1.0))
    checks.append(_fmt(f"b^2 < a: b={b}, a={a}", b * b < a))
    admissible = all(s.endswith("(ok)") for s in checks)
    return CertifiedRate(scheme, a, b, c, prefactor, shift, admissible, tuple(checks))


def certified_stepsize_threshold(scheme: Scheme, m: float, M: float, gamma: float) -> float:
    """Largest h allowed by the scheme's stepsize hypothesis.

    For eta-dependent restrictions this solves the fixed point
    h = (1 - exp(-gamma h)) / s by iteration; the positive solution exists
    only when gamma > s, which is the implicit lower bound on the friction
    (s = sqrt(6M) for bao/oab-type schemes, 2 sqrt(M) for baoab/obabo).
    Returns 0.0 when no positive stepsize is admissible.
    """
    scheme = Scheme(scheme)
    rootM = math.sqrt(M)
    if scheme in (Scheme.OVERDAMPED_EM, Scheme.LM):
        return 2.0 / M
    if scheme is Scheme.KINETIC_EM:
        return 0.5 / gamma if gamma * gamma >= 4.0 * M else 0.0
    if scheme is Scheme.SES:
        return 0.5 / gamma if gamma >= 5.0 * rootM else 0.0
    slope = math.sqrt(6.0 * M) if scheme in (Scheme.BAO, Scheme.OAB, Scheme.ABO, Scheme.BOA, Scheme.OBA, Scheme.AOB) else 2.0 * rootM
    if gamma <= slope:
        return 0.0
    h = 1.0 / slope
    for _ in range(200):
        h_next = -math.expm1(-gamma * h) / slope
        if abs(h_next - h) <= 1e-15 * h:
            h = h_next
            break
        h = h_next
    if scheme in (Scheme.OAB, Scheme.ABO, Scheme.BOA):
        return min(h, 0.25 / gamma)
    return h


@dataclass
class CouplingTrace:
    """Squared weighted-norm distance trace of one synchronously coupled pair."""

    scheme: Scheme
    params: StepParams
    norm: WeightedNorm
    distances: np.ndarray
    seed: int
    quadratic: bool
    diverged_at: int | None = None
    rate: CertifiedRate | None = None

    @property
    def n_steps(self) -> int:
        return len(self.distances) - 1

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


def _noise_rows(gens, n_steps: int, d: int, rows: int):
    """The (k, d) noise of steps 0..n_steps-1, one step at a time.

    Each block of ``rows`` steps is one draw per substream generator, so the
    numbers equal one ``CounterStreams.normals`` call per substream.
    """
    for start in range(0, n_steps, rows):
        n = min(rows, n_steps - start)
        yield from np.stack([gen.standard_normal((n, d)) for gen in gens], axis=1)


def run_synchronous_coupling(
    scheme: Scheme,
    potential: Potential,
    z0: PhaseState,
    z0_tilde: PhaseState,
    params: StepParams,
    n_steps: int,
    seed: int,
    force: bool = False,
    pair_id: int = 0,
    norm: WeightedNorm | None = None,
) -> CouplingTrace:
    """Run two chains on common noise and record the distance trace.

    Distances are measured in the scheme's certified norm unless ``norm``
    overrides it.  Inadmissible parameters raise unless ``force`` is set
    (divergence is then reported by truncating the trace at the first
    non-finite state).
    """
    scheme = Scheme(scheme)
    if n_steps < 0:
        raise CouplingError(f"n_steps must be non-negative, got {n_steps}")
    rate = certified_rate(scheme, potential.m, potential.M, params.gamma, params.h)
    if not rate.admissible and not force:
        raise InadmissibleParameters(
            f"{scheme.value} at h={params.h}, gamma={params.gamma}: " + "; ".join(rate.violated())
        )
    if norm is None:
        norm = rate.norm  # raises if b^2 >= a at forced parameters

    d = potential.dim
    rows = max(1, _BLOCK_BYTES // (8 * d))
    streams = CounterStreams(seed, pair_id)
    k = noise_requirements(scheme)
    gens = [streams.generator(j) for j in range(k)]
    prev = streams.normals(k, 1, d)[0] if scheme is Scheme.LM else None

    # both chains stacked along a leading axis; shared noise broadcasts
    x = np.stack([np.asarray(z0.x, dtype=float), np.asarray(z0_tilde.x, dtype=float)])
    v = np.stack([np.asarray(z0.v, dtype=float), np.asarray(z0_tilde.v, dtype=float)])
    # chain differences of steps t - s .. t, reduced to distances when full
    xbar = np.empty((rows, d))
    vbar = np.empty((rows, d))
    distances = np.empty(n_steps + 1)
    t = s = 0
    xbar[0] = x[0] - x[1]
    vbar[0] = v[0] - v[1]
    diverged_at = None
    # overflow on forced runs is an anticipated outcome, reported as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for t, xi in enumerate(_noise_rows(gens, n_steps, d, rows), 1):
            if s == rows - 1:
                distances[t - rows : t] = norm.squared(xbar, vbar)
            x, v = _step_arrays(scheme, potential, x, v, params, xi, prev)
            if scheme is Scheme.LM:
                prev = xi[0]
            s = t % rows
            xbar[s] = x[0] - x[1]
            vbar[s] = v[0] - v[1]
            if not (np.isfinite(x).all() and np.isfinite(v).all()):
                diverged_at = t
                break
        distances[t - s : t + 1] = norm.squared(xbar[: s + 1], vbar[: s + 1])
    return CouplingTrace(
        scheme=scheme,
        params=params,
        norm=norm,
        distances=distances[: t + 1],
        seed=seed,
        quadratic=isinstance(potential, QuadraticPotential),
        diverged_at=diverged_at,
        rate=rate,
    )


def positive_prefix(trace: CouplingTrace) -> CouplingTrace:
    """Trace restricted to the window before merging or divergence.

    Strong contractions drive synchronously coupled chains to bitwise-equal
    states, after which the distance is exactly zero; rate fits only make
    sense on the positive finite prefix.
    """
    import dataclasses

    d = trace.distances
    bad = np.nonzero(~(d > 0.0) | ~np.isfinite(d))[0]
    if bad.size == 0:
        return trace
    return dataclasses.replace(trace, distances=d[: int(bad[0])], diverged_at=None)


def empirical_rate(trace: CouplingTrace, burn_in: int | None = None) -> float:
    """Per-step squared-distance rate c-hat from a log-linear fit.

    Fits log d_k ~ k over k >= burn_in and returns 1 - exp(slope), so that
    d_k is approximately (1 - c-hat)^k.  Burn-in defaults to 0 for
    quadratic targets (exact geometric decay) and 10% of the trace
    otherwise.
    """
    if burn_in is None:
        burn_in = 0 if trace.quadratic else len(trace.distances) // 10
    d = trace.distances[burn_in:]
    if trace.diverged or not np.isfinite(d).all():
        raise CouplingError("trace diverged; no rate to fit")
    if (d <= 0.0).any():
        raise CouplingError("trace hit zero; rate fit undefined")
    if len(d) < 10:
        raise CouplingError(f"need at least burn_in + 10 entries, got {len(d)} after burn-in")
    ks = np.arange(len(d), dtype=float)
    slope = np.polyfit(ks, np.log(d), 1)[0]
    return float(-np.expm1(slope))


def verify_trace_bound(trace: CouplingTrace, rate: CertifiedRate) -> tuple[bool, int | None]:
    """Check d_k <= prefactor^2 (1 - c)^(k - shift) d_0 along the trace.

    Returns (True, None) when the bound holds everywhere, otherwise
    (False, first violating index).  Divergence counts as a violation at
    the truncation point.
    """
    if not rate.admissible:
        raise CouplingError("bound check requires admissible parameters")
    d = trace.distances
    ks = np.arange(len(d), dtype=float)
    bound = rate.bound_sq(ks, d[0])
    bad = np.nonzero(~(d <= bound))[0]
    if trace.diverged:
        return False, trace.diverged_at
    if bad.size:
        return False, int(bad[0])
    return True, None
