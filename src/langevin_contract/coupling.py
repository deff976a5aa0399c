"""Synchronously coupled chain pairs and certified contraction rates.

Two chains driven by the identical noise sequence have a difference process
whose weighted norm contracts geometrically under the admissibility
conditions checked here.  The module runs such pairs, records each
pair's squared-norm distance trace with the point it ran at (its (h,
gamma), seed and certified rate), fits empirical rates, and evaluates each
scheme's certified (a, b, c(h)) triple with its hypotheses.

Noise contract: draws come from counter-based Philox streams keyed on
(seed, chain-pair id, sub-step index) with the step index as the counter
position, so both chains of a pair consume byte-identical noise and sweeps
are reproducible regardless of scheduling.  A run goes in blocks of steps:
each block draws its rows of noise from one generator per substream, kept
alive through the run (the same numbers as one draw of the whole run),
steps, and reduces its states to distances, so a run's memory does not
grow with its length.  Runs of one scheme at several (h, gamma, seed)
points step together as one batch, each point on its own streams.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .integrators import (
    PhaseState,
    Scheme,
    StepParams,
    _coefficients,
    _step_core,
    noise_requirements,
)
from .norms import WeightedNorm
from .potentials import Potential, QuadraticPotential


#: bytes per block of streamed noise or of one chain's states; a run's
#: working memory is a few such blocks, whatever its length
_BLOCK_BYTES = 2**17


class CouplingError(ValueError):
    """Invalid coupling run or rate query."""


class InadmissibleParameters(CouplingError):
    """Parameters violate the scheme's contraction hypotheses."""


class CounterStreams:
    """Counter-based standard-normal streams (Philox 4x64).

    Stream identity is (seed, substream); within a stream, row k is the
    draw for step k.  Generation is vectorized per stream, and the same
    seed always reproduces the same numbers.  The coupling runner keeps one
    :meth:`generator` per substream and draws blocks of rows from it,
    byte-identical to a single :meth:`normals` draw.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= np.iinfo(np.uint64).max:
            raise CouplingError(f"seed must be in [0, 2**64) to key Philox, got {seed}")
        self.seed = int(seed)

    def generator(self, substream: int) -> np.random.Generator:
        """A fresh generator at step 0 of one substream.

        Successive draws of whole rows continue the stream, so drawing n
        rows in blocks gives the same numbers as one :meth:`normals` call.
        """
        bg = np.random.Philox(
            counter=[0, 0, 0, int(substream)],
            key=[np.uint64(self.seed), np.uint64(0)],
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
    0 < c <= 1).
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
        """The norm a run at these parameters is measured in: |x|^2 + 2b<x,v> +
        a|v|^2, or the cross-term-free |x|^2 + a|v|^2 where b^2 >= a (forced
        parameters, where the certified form is not a norm)."""
        return WeightedNorm(self.a, self.b if self.b * self.b < self.a else 0.0)

    def violated(self) -> tuple[str, ...]:
        return tuple(s for s in self.constraints if s.endswith("(violated)"))

    def bound_sq_steps(self, n_steps: int, d0: float) -> list[float]:
        """Certified squared-distance bounds prefactor^2 (1 - c)^(k - shift) d0 at steps
        k = 0..n_steps, a float power on each int k (numpy's vector power can round differently)."""
        return [self.prefactor**2 * (1.0 - self.c) ** (k - self.shift) * d0 for k in range(n_steps + 1)]


def _fmt(name: str, ok: bool) -> str:
    return f"{name} ({'ok' if ok else 'violated'})"


class _Hypothesis(NamedTuple):
    """A hypothesis whose check and root share the one expression ``f``.

    kind "floor": no h is admissible unless lhs >= rhs, (lhs, rhs) = f(M, gamma).
    kind "h": h op f(M, gamma).  kind "eta": h op (1 - eta)/s, s = f(M); its root
    exists only when gamma > s, and fixed-point iterates from 1/s stay above it.
    """

    kind: str
    label: str
    f: Callable
    op: str = "<"

    def check(self, M: float, gamma: float, h: float, one_minus_eta: float) -> str:
        if self.kind == "floor":
            lhs, rhs = self.f(M, gamma)
            return _fmt(f"{self.label}: {lhs} >= {rhs}", lhs >= rhs)
        lim = one_minus_eta / self.f(M) if self.kind == "eta" else self.f(M, gamma)
        return _fmt(f"h {self.op} {self.label}: {h} {self.op} {lim}", h < lim if self.op == "<" else h <= lim)

    def root(self, M: float, gamma: float) -> float:
        if self.kind == "floor":
            lhs, rhs = self.f(M, gamma)
            return math.inf if lhs >= rhs else 0.0
        if self.kind == "h":
            return self.f(M, gamma)
        s = self.f(M)
        if gamma <= s:
            return 0.0
        h = 1.0 / s
        for _ in range(200):
            h_next = -math.expm1(-gamma * h) / s
            if abs(h_next - h) <= 1e-15 * h:
                return h_next
            h = h_next
        return h


class _Record(NamedTuple):
    """A scheme's (a, b, c) = abc(m, M, gamma, h, eta, 1 - eta), bound shape and hypotheses."""

    abc: Callable[..., tuple[float, float, float]]
    hypotheses: tuple[_Hypothesis, ...]
    prefactor: float = 1.0
    shift: int = 0


_2_OVER_M = _Hypothesis("h", "2/M", lambda M, g: 2.0 / M, "<=")
_1_OVER_2_GAMMA = _Hypothesis("h", "1/(2 gamma)", lambda M, g: 0.5 / g)
_SQRT_6M = _Hypothesis("eta", "(1-eta)/sqrt(6M)", lambda M: math.sqrt(6.0 * M))
_2_SQRT_M = _Hypothesis("eta", "(1-eta)/(2 sqrt(M))", lambda M: 2.0 * math.sqrt(M), "<=")
_OVERDAMPED = _Record(lambda m, M, g, h, eta, ome: (1.0, 0.0, h * m * (2.0 - h * M)), (_2_OVER_M,))
_BAO = _Record(lambda m, M, g, h, eta, ome: (1.0 / M, h / ome, h * h * m / (4.0 * ome)), (_SQRT_6M,))
_OAB = _Record(
    lambda m, M, g, h, eta, ome: (1.0 / M, eta * h / ome, eta * h * h * m / (4.0 * ome)),
    (_Hypothesis("h", "1/(4 gamma)", lambda M, g: 0.25 / g), _SQRT_6M),
)

#: each scheme's record, read by certified_rate and certified_stepsize_threshold;
#: eta = exp(-gamma h) for every scheme, OBABO too: its certificate block uses the
#: full-step damping though its integrator applies exp(-gamma h / 2) twice
_RECORDS = {
    Scheme.OVERDAMPED_EM: _OVERDAMPED,
    Scheme.LM: _OVERDAMPED,
    Scheme.KINETIC_EM: _Record(
        lambda m, M, g, h, eta, ome: (1.0 / M, 1.0 / g, m * h / (2.0 * g)),
        (_Hypothesis("floor", "gamma^2 >= 4M", lambda M, g: (g**2, 4 * M)), _1_OVER_2_GAMMA),
    ),
    Scheme.SES: _Record(
        lambda m, M, g, h, eta, ome: (1.0 / M, 1.0 / g, m * h / (4.0 * g)),
        (_Hypothesis("floor", "gamma >= 5 sqrt(M)", lambda M, g: (g, 5 * math.sqrt(M))), _1_OVER_2_GAMMA._replace(op="<=")),
    ),
    Scheme.BAO: _BAO,
    Scheme.OAB: _OAB,
    # the permuted splittings reach oab's or bao's triple through a boundary operator
    **dict.fromkeys((Scheme.ABO, Scheme.BOA), _OAB._replace(prefactor=27.0, shift=1)),
    **dict.fromkeys((Scheme.OBA, Scheme.AOB), _BAO._replace(prefactor=27.0, shift=1)),
    Scheme.BAOAB: _BAO._replace(hypotheses=(_2_SQRT_M,), prefactor=7.0, shift=1),
    Scheme.OBABO: _BAO._replace(hypotheses=(_2_SQRT_M._replace(op="<"),), prefactor=7.0, shift=1),
}


def certified_rate(scheme: Scheme, m: float, M: float, gamma: float, h: float) -> CertifiedRate:
    """Certified (a, b, c) and admissibility: the scheme's record, then 0 < c <= 1 and b^2 < a."""
    scheme = Scheme(scheme)
    if not (0.0 < m <= M):
        raise CouplingError(f"need 0 < m <= M, got m={m}, M={M}")
    if gamma <= 0.0 or h <= 0.0:
        raise CouplingError(f"need gamma > 0 and h > 0, got gamma={gamma}, h={h}")
    eta = math.exp(-gamma * h)
    one_minus_eta = -math.expm1(-gamma * h)  # cancellation-free 1 - eta
    record = _RECORDS[scheme]
    a, b, c = record.abc(m, M, gamma, h, eta, one_minus_eta)
    checks = [hyp.check(M, gamma, h, one_minus_eta) for hyp in record.hypotheses]
    checks.append(_fmt(f"0 < c <= 1: c={c}", 0.0 < c <= 1.0))
    checks.append(_fmt(f"b^2 < a: b={b}, a={a}", b * b < a))
    admissible = all(s.endswith("(ok)") for s in checks)
    return CertifiedRate(scheme, a, b, c, record.prefactor, record.shift, admissible, tuple(checks))


def certified_stepsize_threshold(scheme: Scheme, m: float, M: float, gamma: float) -> float:
    """Supremum of the stepsizes the scheme's hypotheses admit (0.0 when a friction
    floor fails): every h below it is admissible, the threshold itself may not be."""
    return min(hyp.root(M, gamma) for hyp in _RECORDS[Scheme(scheme)].hypotheses)


class CouplingPoint(NamedTuple):
    """One (h, gamma, seed) point of a batched run and its certified rate, whose
    :attr:`CertifiedRate.norm` the point's distances are measured in."""

    params: StepParams
    seed: int
    rate: CertifiedRate


@dataclass
class CouplingTrace:
    """Squared weighted-norm distance trace of one synchronously coupled pair
    run at ``point``, in its rate's :attr:`CertifiedRate.norm`."""

    point: CouplingPoint
    distances: np.ndarray
    quadratic: bool
    diverged_at: int | None = None

    @property
    def n_steps(self) -> int:
        return len(self.distances) - 1

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


def run_synchronous_coupling(
    scheme: Scheme,
    potential: Potential,
    z0: PhaseState,
    z0_tilde: PhaseState,
    params: StepParams,
    n_steps: int,
    seed: int,
    force: bool = False,
) -> CouplingTrace:
    """Run two chains on common noise and record the distance trace.

    Distances are measured in the certified rate's :attr:`CertifiedRate.norm`.
    Inadmissible parameters raise unless ``force`` is set (divergence is then
    reported by truncating the trace at the first non-finite distance).  The
    one-point call of :func:`run_coupling_batch`.
    """
    scheme = Scheme(scheme)
    rate = certified_rate(scheme, potential.m, potential.M, params.gamma, params.h)
    if not rate.admissible and not force:
        raise InadmissibleParameters(
            f"{scheme.value} at h={params.h}, gamma={params.gamma}: " + "; ".join(rate.violated())
        )
    return run_coupling_batch(scheme, potential, z0, z0_tilde, [CouplingPoint(params, seed, rate)], n_steps)[0]


def run_coupling_batch(
    scheme: Scheme,
    potential: Potential,
    z0: PhaseState,
    z0_tilde: PhaseState,
    points: list[CouplingPoint],
    n_steps: int,
) -> list[CouplingTrace]:
    """One coupled pair per point, all stepped together; their traces in order.

    The chains carry a leading batch axis, (B, 2, d), so each step is one
    call of the step core for the whole batch, with each point's step
    constants as (B, 1, 1) columns.  Each point keeps its own noise streams
    ``CounterStreams(seed)``, LM primer, divergence step and norm, its
    rate's :attr:`CertifiedRate.norm`, so its trace equals its run alone.
    Admissibility is the caller's.  The run goes in blocks of steps: each
    block draws its noise, steps, and reduces its states to every point's
    distances.  A point diverges at its first non-finite distance: its trace
    ends there, the others run on, and the run stops early once every point
    has diverged (checked as each block is reduced).
    """
    scheme = Scheme(scheme)
    if n_steps < 0:
        raise CouplingError(f"n_steps must be non-negative, got {n_steps}")
    if not points:
        return []
    d = potential.dim
    B = len(points)
    rows = max(1, min(n_steps, _BLOCK_BYTES // (8 * d * B)))
    k = noise_requirements(scheme)
    streams = [CounterStreams(p.seed) for p in points]
    norms = [p.rate.norm for p in points]
    gens = [[st.generator(j) for j in range(k)] for st in streams]
    prev = np.stack([st.normals(k, 1, d) for st in streams]) if scheme is Scheme.LM else None
    coefs = [_coefficients(scheme, p.params) for p in points]
    coefs = tuple(np.array(col)[:, None, None] for col in zip(*coefs))

    x = np.repeat(np.stack([z0.x, z0_tilde.x])[None], B, axis=0)
    v = np.repeat(np.stack([z0.v, z0_tilde.v])[None], B, axis=0)
    grad = None
    xs = np.empty((rows, B, 2, d))  # the states of one block's steps
    vs = np.empty((rows, B, 2, d))
    distances = np.empty((B, n_steps + 1))
    distances[:, 0] = [norm.squared(z0.x - z0_tilde.x, z0.v - z0_tilde.v) for norm in norms]
    diverged_at = [None if math.isfinite(d0) else 0 for d0 in distances[:, 0]]
    # overflow on forced runs is an anticipated outcome, reported as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(0, n_steps, rows):
            if None not in diverged_at:
                break
            # steps t + 1 .. t + n, one draw of their noise per point and substream;
            # a fresh array each block, as LM's prev is a view into the last one
            n = min(rows, n_steps - t)
            noise = np.empty((n, k, B, 1, d))
            for b in range(B):
                for j in range(k):
                    noise[:, j, b, 0] = gens[b][j].standard_normal((n, d))
            for i, xi in enumerate(noise):
                x, v, grad = _step_core(scheme, potential, x, v, coefs, xi, prev, grad)
                if prev is not None:
                    prev = xi[0]
                xs[i] = x
                vs[i] = v
            for b, norm in enumerate(norms):
                xb, vb = xs[:n, b], vs[:n, b]
                block = norm.squared(xb[:, 0] - xb[:, 1], vb[:, 0] - vb[:, 1])
                distances[b, t + 1 : t + n + 1] = block
                if diverged_at[b] is None:
                    bad = np.flatnonzero(~np.isfinite(block))
                    if bad.size:
                        diverged_at[b] = t + 1 + int(bad[0])
    quadratic = isinstance(potential, QuadraticPotential)
    return [
        CouplingTrace(p, distances[b, : (n_steps if div is None else div) + 1], quadratic, div)
        for b, (p, div) in enumerate(zip(points, diverged_at))
    ]


def positive_prefix(trace: CouplingTrace) -> CouplingTrace:
    """Trace restricted to the window before merging or divergence.

    Strong contractions drive synchronously coupled chains to bitwise-equal
    states, after which the distance is exactly zero; rate fits only make
    sense on the positive finite prefix.
    """
    d = trace.distances
    bad = np.nonzero(~(d > 0.0) | ~np.isfinite(d))[0]
    if bad.size == 0:
        return trace
    return replace(trace, distances=d[: int(bad[0])], diverged_at=None)


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


def verify_trace_bound(trace: CouplingTrace, bound=None) -> tuple[bool, int | None]:
    """Check d_k <= prefactor^2 (1 - c)^(k - shift) d_0 along the trace, at
    its point's rate.

    ``bound`` is the bound at every step of the trace, by default
    ``rate.bound_sq_steps(trace.n_steps, d_0)``; pass those values to check
    against exactly the numbers written beside the trace.  Returns (True,
    None) when the bound holds everywhere, otherwise (False, first
    violating index).  Divergence counts as a violation at the truncation
    point.
    """
    rate = trace.point.rate
    if not rate.admissible:
        raise CouplingError("bound check requires admissible parameters")
    d = trace.distances
    if bound is None:
        bound = rate.bound_sq_steps(trace.n_steps, d[0])
    bad = np.nonzero(~(d <= np.asarray(bound)))[0]
    if trace.diverged:
        return False, trace.diverged_at
    if bad.size:
        return False, int(bad[0])
    return True, None
