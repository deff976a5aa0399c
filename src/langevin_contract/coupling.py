"""Synchronously coupled chain pairs and certified contraction rates.

Two chains driven by the identical noise sequence have a difference process
whose weighted norm contracts geometrically under the admissibility
conditions checked here.  The module runs such pairs, records each
pair's squared-norm distance trace with the point it ran at (its (h,
gamma), seed and certified rate), fits empirical rates, and evaluates each
scheme's certified (a, b, c(h)) triple with its hypotheses.

Noise contract: draws come from counter-based Philox streams keyed on
(seed, substream), the substream being the draw's index within a step, with
the step index as the counter position, so both chains of a pair consume
byte-identical noise and sweeps are reproducible regardless of scheduling.
One run holds any mix of (scheme, h, gamma, seed) points; the points of
each scheme step together as one batch.  The run goes in blocks of steps:
each block draws the rows of each distinct (seed, substream) once, in place,
from one generator kept alive through the run (the same numbers as one draw
of the whole run), and every point at that seed reads those rows; then each
batch steps and reduces its states to distances, so a run's memory does not
grow with its length.  Every batch's step constants are formed before any
chain steps, so a broken one raises before the run starts.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .integrators import (
    IntegratorError,
    PhaseState,
    Scheme,
    StepParams,
    _coefficients,
    _square,
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
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise CouplingError(f"seed must be an integer, got {seed!r}")
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
    squared distance d_k.  ``violated`` holds each failing hypothesis with its
    numbers, 0 < c <= 1 and b^2 < a among them; admissible means none fails.
    """

    scheme: Scheme
    a: float
    b: float
    c: float
    prefactor: float
    shift: int
    violated: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        return not self.violated

    @property
    def norm_valid(self) -> bool:  # b^2 < a: the certified form is a norm
        return self.b * self.b < self.a

    @property
    def norm(self) -> WeightedNorm:
        """The norm a run at these parameters is measured in: |x|^2 + 2b<x,v> +
        a|v|^2, or the cross-term-free |x|^2 + a|v|^2 where b^2 >= a (forced
        parameters, where the certified form is not a norm)."""
        return WeightedNorm(self.a, self.b if self.norm_valid else 0.0)

    def bound_sq_steps(self, n_steps: int, d0: float) -> np.ndarray:
        """Certified squared-distance bounds prefactor^2 (1 - c)^(k - shift) d0 at steps
        k = 0..n_steps, a float power on each int k (numpy's vector power can round
        differently), then the two products left to right, as Python floats would."""
        powers = map(pow, repeat(1.0 - self.c), range(-self.shift, n_steps + 1 - self.shift))
        with np.errstate(over="ignore", invalid="ignore"):  # a float product overflows to inf silently
            return self.prefactor**2 * np.fromiter(powers, float, n_steps + 1) * d0


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

    def check(self, M: float, gamma: float, h: float, one_minus_eta: float) -> str | None:
        """None where the hypothesis holds at h, else its text with its numbers."""
        if self.kind == "floor":
            lhs, rhs = self.f(M, gamma)
            return None if lhs >= rhs else f"{self.label}: {lhs} >= {rhs}"
        lim = one_minus_eta / self.f(M) if self.kind == "eta" else self.f(M, gamma)
        holds = h < lim if self.op == "<" else h <= lim
        return None if holds else f"h {self.op} {self.label}: {h} {self.op} {lim}"

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

#: each scheme's record, read by certified_rate and certified_stepsize_threshold
#: through _record, which checks their shared arguments;
#: eta = exp(-gamma h) for every scheme, OBABO too: its certificate block uses the
#: full-step damping though its integrator applies exp(-gamma h / 2) twice
_RECORDS = {
    Scheme.OVERDAMPED_EM: _OVERDAMPED,
    Scheme.LM: _OVERDAMPED,
    Scheme.KINETIC_EM: _Record(
        lambda m, M, g, h, eta, ome: (1.0 / M, 1.0 / g, m * h / (2.0 * g)),
        (_Hypothesis("floor", "gamma^2 >= 4M", lambda M, g: (_square(g), 4 * M)), _1_OVER_2_GAMMA),
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


def _record(scheme: Scheme, m: float, M: float, gamma: float) -> _Record:
    """The scheme's record, once 0 < m <= M and gamma > 0 hold."""
    if not (0.0 < m <= M):
        raise CouplingError(f"need 0 < m <= M, got m={m}, M={M}")
    if not gamma > 0.0:  # NaN too
        raise CouplingError(f"need gamma > 0, got gamma={gamma}")
    return _RECORDS[scheme]


def certified_rate(scheme: Scheme, m: float, M: float, gamma: float, h: float) -> CertifiedRate:
    """Certified (a, b, c) and admissibility: the scheme's record, then 0 < c <= 1 and b^2 < a."""
    scheme = Scheme(scheme)
    record = _record(scheme, m, M, gamma)
    if not h > 0.0:  # NaN too
        raise CouplingError(f"need h > 0, got h={h}")
    eta = math.exp(-gamma * h)
    one_minus_eta = -math.expm1(-gamma * h)  # cancellation-free 1 - eta
    try:
        a, b, c = record.abc(m, M, gamma, h, eta, one_minus_eta)
    except ZeroDivisionError:  # bao's and oab's records divide by 1 - eta, which gamma h can round to 0
        raise IntegratorError(f"{scheme.value}: 1 - exp(-gamma h) is 0 at h={h}, gamma={gamma}") from None
    fields = (scheme, a, b, c, record.prefactor, record.shift)
    rate = CertifiedRate(*fields, ())
    failing = [v for hyp in record.hypotheses if (v := hyp.check(M, gamma, h, one_minus_eta)) is not None]
    if not 0.0 < c <= 1.0:
        failing.append(f"0 < c <= 1: c={c}")
    if not rate.norm_valid:
        failing.append(f"b^2 < a: b={b}, a={a}")
    return CertifiedRate(*fields, tuple(failing)) if failing else rate


def certified_stepsize_threshold(scheme: Scheme, m: float, M: float, gamma: float) -> float:
    """Supremum of the stepsizes the scheme's hypotheses admit (0.0 when a friction
    floor fails): every h below it is admissible, the threshold itself may not be."""
    return min(hyp.root(M, gamma) for hyp in _record(Scheme(scheme), m, M, gamma).hypotheses)


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
            f"{scheme.value} at h={params.h}, gamma={params.gamma}: " + "; ".join(rate.violated)
        )
    return run_coupling_batch(potential, z0, z0_tilde, [CouplingPoint(params, seed, rate)], n_steps)[0]


def _constant(col: tuple[float, ...], shape: tuple[int, int, int]) -> float | np.ndarray:
    """One step constant of a batch, ``col`` its value at each point: a float when
    every point has it bit for bit (0.0 and -0.0 differ), else one C-contiguous
    array of the states' shape, so each step multiplies operands of equal shape
    rather than broadcasting a column."""
    if len({float(c).hex() for c in col}) == 1:
        return float(col[0])
    return np.broadcast_to(np.array(col)[:, None, None], shape).copy()


class _Batch:
    """The points of one scheme in a run: their step constants, noise slots and chain states."""

    def __init__(self, scheme, index, pts, z0, z0_tilde, slots):
        self.scheme = scheme
        self.index = index  # the points' positions in the run
        d = z0.dim
        cols = zip(*(_coefficients(scheme, p.params) for p in pts))
        self.coefs = tuple(_constant(col, (len(pts), 2, d)) for col in cols)
        k = noise_requirements(scheme)
        # (k, B): the noise buffer row of each point's j-th draw, one per distinct (seed, substream)
        self.slots = np.array([[slots.setdefault((p.seed, j), len(slots)) for p in pts] for j in range(k)])
        self.x = np.repeat(np.stack([z0.x, z0_tilde.x])[None], len(pts), axis=0)
        if scheme is Scheme.LM:  # both chains' v is the primer, the draw before step 0
            self.v = np.stack([CounterStreams(p.seed).normals(k, 1, d) for p in pts])
        else:
            self.v = np.repeat(np.stack([z0.v, z0_tilde.v])[None], len(pts), axis=0)
        self.grad = None

    def step(self, potential, noise, xs, vs):
        """Step once per row of ``noise``, (slots, n, d), and store the states of
        step i in xs[i] and vs[i]."""
        block = noise[self.slots].transpose(2, 0, 1, 3)[..., None, :]  # (n, k, B, 1, d)
        B = len(self.index)
        xs, vs = xs[:, :B], vs[:, :B]
        scheme, coefs = self.scheme, self.coefs
        x, v, grad = self.x, self.v, self.grad
        for i, xi in enumerate(block):
            x, v, grad = _step_core(scheme, potential, x, v, coefs, xi, grad)
            xs[i] = x
            vs[i] = v
        # an overdamped v is a view into this block's noise: a copy lets the block go
        self.x, self.v, self.grad = x, v.copy() if np.may_share_memory(v, block) else v, grad


def run_coupling_batch(
    potential: Potential,
    z0: PhaseState,
    z0_tilde: PhaseState,
    points: list[CouplingPoint],
    n_steps: int,
) -> list[CouplingTrace]:
    """One coupled pair per point, all run together; their traces in order.

    Each point runs its rate's scheme, ``point.rate.scheme``.  The points of
    one scheme form one batch whose chains carry a leading batch axis, (B,
    2, d), so each step is one call of the step core for the whole batch.
    Each step constant is a float where every point of the batch shares it
    bit for bit, otherwise one (B, 2, d) array of the states' shape: a
    constant that varies across a batch costs one state-sized array, and no
    step broadcasts it.  Both states must have the potential's shape (d,),
    checked before any draw.  Every batch's constants are formed before any
    chain steps, so a broken one raises first.  Each point keeps its own
    noise streams ``CounterStreams(seed)``, LM primer, divergence step and
    norm, its rate's :attr:`CertifiedRate.norm`, so its trace equals its run
    alone.  Admissibility is the caller's.  The run goes in blocks of steps, the
    batches in lockstep: each block draws the rows of each distinct (seed,
    substream) once, for every point that reads that stream, then steps each
    batch and reduces its states to its points' distances.  A point diverges
    at its first non-finite distance: its trace ends there and the others
    run on.  A batch stops once all its points have diverged, and the run
    once every point has (checked as each block is reduced).
    """
    if n_steps < 0:
        raise CouplingError(f"n_steps must be non-negative, got {n_steps}")
    d = potential.dim
    if z0.x.shape != (d,) or z0_tilde.x.shape != (d,):
        raise CouplingError(
            f"both states must have the potential's shape ({d},), got {z0.x.shape} and {z0_tilde.x.shape}"
        )
    if not points:
        return []
    schemes = [p.rate.scheme for p in points]
    slots: dict[tuple[int, int], int] = {}
    batches = []
    for s in dict.fromkeys(schemes):
        index = [i for i, si in enumerate(schemes) if si is s]
        batches.append(_Batch(s, index, [points[i] for i in index], z0, z0_tilde, slots))
    B = max(len(b.index) for b in batches)
    rows = max(1, min(n_steps, _BLOCK_BYTES // (8 * d * B)))
    gens = [CounterStreams(seed).generator(j) for seed, j in slots]
    noise = np.empty((len(slots), rows, d))  # one block of every stream, drawn in place
    xs = np.empty((rows, B, 2, d))  # the states of one batch's block of steps
    vs = np.empty((rows, B, 2, d))
    norms = [p.rate.norm for p in points]
    distances = np.empty((len(points), n_steps + 1))
    # overflow on forced runs, or from far-apart starts, is an anticipated
    # outcome, reported as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        distances[:, 0] = [norm.squared(z0.x - z0_tilde.x, z0.v - z0_tilde.v) for norm in norms]
        diverged_at = [None if math.isfinite(d0) else 0 for d0 in distances[:, 0]]
        for t in range(0, n_steps, rows):
            live = [b for b in batches if any(diverged_at[i] is None for i in b.index)]
            if not live:
                break
            # steps t + 1 .. t + n, one draw of their noise per stream that a live batch reads
            n = min(rows, n_steps - t)
            for j in {j for b in live for j in b.slots.flat}:
                gens[j].standard_normal(out=noise[j, :n])
            for b in live:
                b.step(potential, noise[:, :n], xs, vs)
                for col, i in enumerate(b.index):
                    xb, vb = xs[:n, col], vs[:n, col]
                    block = norms[i].squared(xb[:, 0] - xb[:, 1], vb[:, 0] - vb[:, 1])
                    distances[i, t + 1 : t + n + 1] = block
                    if diverged_at[i] is None:
                        bad = np.flatnonzero(~np.isfinite(block))
                        if bad.size:
                            diverged_at[i] = t + 1 + int(bad[0])
    quadratic = isinstance(potential, QuadraticPotential)
    return [
        CouplingTrace(p, distances[i, : (n_steps if div is None else div) + 1], quadratic, div)
        for i, (p, div) in enumerate(zip(points, diverged_at))
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
