"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 4 asserts the exact-rate sandwich in its
stated form; see the assertion message for the measured counterexamples.
"""

import math
import time

import numpy as np

from langevin_contract.certificates import (
    check_certificate,
    composition_bound,
    step_matrix,
)
from langevin_contract.coupling import (
    CounterStreams,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_synchronous_coupling,
    verify_trace_bound,
)
from langevin_contract.gaussian import bao_exact_rate, mode_report, stability_threshold
from langevin_contract.integrators import (
    PhaseState,
    Scheme,
    StepParams,
    noise_requirements,
    simulate_mode_chain,
    step,
)
from langevin_contract.potentials import QuadraticPotential

RATE_SCHEMES = (Scheme.KINETIC_EM, Scheme.BAO, Scheme.OAB, Scheme.BAOAB, Scheme.OBABO, Scheme.SES)

# friction chosen so the scheme's own floor sits at 80% of it (kinetic_em,
# ses) or at the moderate multiple where every splitting admits a stepsize
GAMMA_FACTOR = {
    Scheme.KINETIC_EM: 2.5,
    Scheme.SES: 6.25,
    Scheme.BAO: 4.0,
    Scheme.OAB: 4.0,
    Scheme.BAOAB: 4.0,
    Scheme.OBABO: 4.0,
}


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_criterion_1_certified_trace_bounds():
    """Coupled traces obey prefactor^2 (1-c)^(k-s) on both benchmark targets."""
    t0 = time.perf_counter()
    z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
    z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))
    n = 10_000
    failures = []
    for M in (4.0, 100.0):
        pot = QuadraticPotential.anisotropic_gaussian(1.0, M)
        for scheme in RATE_SCHEMES:
            gamma = GAMMA_FACTOR[scheme] * math.sqrt(M)
            h = 0.8 * certified_stepsize_threshold(scheme, 1.0, M, gamma)
            rate = certified_rate(scheme, 1.0, M, gamma, h)
            assert h > 0 and rate.admissible, (scheme, M)
            trace = run_synchronous_coupling(scheme, pot, z0, z1, StepParams(h, gamma), n, seed=0)
            ok, first_bad = verify_trace_bound(trace)
            if not ok:
                failures.append((scheme.value, M, first_bad))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report("1 certified trace bounds", ok, f"12 runs x 10^4 steps, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_certificate_suite():
    """10^3 random admissible draws per scheme pass with sign-agreeing routes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    floors = {
        Scheme.KINETIC_EM: lambda M: 2 * math.sqrt(M),
        Scheme.SES: lambda M: 5 * math.sqrt(M),
        Scheme.BAO: lambda M: math.sqrt(6 * M),
        Scheme.OAB: lambda M: math.sqrt(6 * M),
        Scheme.BAOAB: lambda M: 2 * math.sqrt(M),
        Scheme.OBABO: lambda M: 2 * math.sqrt(M),
    }
    bad = []
    for scheme in RATE_SCHEMES:
        done = 0
        while done < 1000:
            m = 10 ** rng.uniform(-1, 0.5)
            M = m * 10 ** rng.uniform(0, 2)
            gamma = floors[scheme](M) * 10 ** rng.uniform(0.05, 1)
            hmax = certified_stepsize_threshold(scheme, m, M, gamma)
            if hmax <= 0:
                continue
            h = rng.uniform(0.05, 0.999) * hmax
            rep = check_certificate(scheme, m, M, gamma, h)
            if not (rep.passed and rep.oracle_agrees and rep.oracle_min_eig > 0):
                bad.append((scheme.value, m, M, gamma, h))
            done += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    report("2 certificate suite", ok, f"6000 draws, {elapsed:.1f}s")
    assert not bad, bad[:5]
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_3_em_stability_threshold():
    """Bisected threshold equals 2/(gamma + sqrt(gamma^2 - 4m)) to 1e-6."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = 10 ** rng.uniform(-1, 1)
        gamma = 2.0 * math.sqrt(m) * 10 ** rng.uniform(0.0, 1.0)
        got = stability_threshold(Scheme.KINETIC_EM, m, gamma)
        want = 2.0 / (gamma + math.sqrt(gamma * gamma - 4.0 * m))
        worst = max(worst, abs(got - want))
    spot = stability_threshold(Scheme.KINETIC_EM, 1.0, 4.0)
    ok = worst <= 1e-6 and abs(spot - 0.2679491924311227) <= 1e-6
    report("3 EM stability threshold", ok, f"max |bisect - closed form| = {worst:.2e}")
    assert ok, worst


def test_criterion_4_bao_exact_rate_sandwich():
    """4 c(h) > c_N on random draws with h < 1/sqrt(22), gamma >= 4, m = 1.

    The closed form satisfies c_N = 2 h^2 m / (1 - lam_min) with
    lam_min > eta, while 4 c(h) = h^2 m / (1 - eta), so the stated
    inequality reverses on the whole region; the assertion documents the
    measured gap rather than hiding it.
    """
    rng = np.random.default_rng(4)
    m = 1.0
    fails = []
    ratios = []
    for _ in range(100):
        h = rng.uniform(1e-3, 1.0 / math.sqrt(22.0) - 1e-9)
        gamma = rng.uniform(4.0, 40.0)
        c4 = 4.0 * certified_rate(Scheme.BAO, m, m, gamma, h).c
        cN = bao_exact_rate(m, h, gamma)
        ratios.append(c4 / cN)
        if not c4 > cN:
            fails.append((h, gamma, c4, cN))
    ok = not fails
    report(
        "4 BAO exact-rate sandwich",
        ok,
        f"{len(fails)}/100 draws violate 4c > c_N; 4c/c_N in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )
    assert ok, (
        f"4 c(h) > c_N failed on {len(fails)}/100 draws; "
        f"measured 4c/c_N in [{min(ratios):.3f}, {max(ratios):.3f}] "
        f"(identity: c_N = 2 h^2 m/(1 - lam_min) >= 2 h^2 m/(1 - eta) = 8 c(h)); "
        f"first counterexample (h, gamma, 4c, c_N) = {fails[0] if fails else None}"
    )


def test_criterion_5_glc_limit_equivalence():
    """High-friction runs match their overdamped identifications."""
    gamma = 1e8
    h = 0.2
    n = 1000
    pot = QuadraticPotential.anisotropic_gaussian(1.0, 4.0)
    params = StepParams(h, gamma)
    checks = {}

    # baoab against the averaged-noise overdamped scheme at h^2/2
    xi = CounterStreams(50).normals(0, n + 1, 2)
    z = PhaseState(np.array([0.4, -0.6]), np.array([0.3, 0.1]))
    lm = PhaseState(z.x, z.v + 0.5 * h * pot.gradient(z.x))  # LM's v is its previous draw
    delta = StepParams(h * h / 2.0, 1.0)
    worst = 0.0
    for k in range(1, n + 1):
        z = step(Scheme.BAOAB, pot, z, params, xi[k][np.newaxis])
        lm = step(Scheme.LM, pot, lm, delta, xi[k][np.newaxis])
        worst = max(worst, np.abs(z.x - lm.x).max())
    checks["baoab=lm(h^2/2)"] = worst

    # obabo against overdamped EM at h^2/2 on the first refresh draw
    xi1 = CounterStreams(51).normals(0, n, 2)
    xi2 = CounterStreams(51).normals(1, n, 2)
    z = PhaseState(np.array([0.4, -0.6]), np.array([0.3, 0.1]))
    x_em = z.x.copy()
    worst = 0.0
    for k in range(n):
        z = step(Scheme.OBABO, pot, z, params, np.stack([xi1[k], xi2[k]]))
        em = step(Scheme.OVERDAMPED_EM, pot, PhaseState(x_em, np.zeros(2)), delta, xi1[k][np.newaxis])
        x_em = em.x
        worst = max(worst, np.abs(z.x - x_em).max())
    checks["obabo=em(h^2/2)"] = worst

    # ses position freezes at its admissible stepsize
    h_ses = 0.8 * certified_stepsize_threshold(Scheme.SES, 1.0, 4.0, gamma)
    z = PhaseState(np.array([0.4, -0.6]), np.array([0.3, 0.1]))
    zn = step(Scheme.SES, pot, z, StepParams(h_ses, gamma), CounterStreams(52).normals(0, 2, 2))
    checks["ses position increment"] = float(np.linalg.norm(zn.x - z.x))

    # oab position update never sees the gradient
    other = QuadraticPotential.anisotropic_gaussian(3.0, 50.0)
    xi = CounterStreams(53).normals(0, 1, 2)
    za = step(Scheme.OAB, pot, z, params, xi)
    zb = step(Scheme.OAB, other, z, params, xi)
    checks["oab gradient-free position"] = float(np.abs(za.x - zb.x).max())

    ok = all(v <= 1e-6 for v in checks.values())
    report("5 GLC limit equivalence", ok, ", ".join(f"{k}: {v:.2e}" for k, v in checks.items()))
    assert ok, checks


def test_criterion_6_rate_collapse_reproduction():
    """Standard 2-d Gaussian, h = 0.25, gamma in {1, 4, 100}."""
    m = M = 1.0
    h = 0.25
    fig_schemes = (Scheme.KINETIC_EM, Scheme.BAO, Scheme.BAOAB, Scheme.OBABO, Scheme.SES)
    radii = {
        (s.value, g): mode_report(s, 1.0, StepParams(h, g)).spectral_radius
        for s in (*fig_schemes, Scheme.OAB)
        for g in (1.0, 4.0, 100.0)
    }
    pot = QuadraticPotential.diagonal([1.0, 1.0])
    z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
    z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))

    def c_hat(scheme, gamma):
        tr = run_synchronous_coupling(
            scheme, pot, z0, z1, StepParams(h, gamma), 600, seed=0, force=True
        )
        return empirical_rate(positive_prefix(tr), burn_in=50)

    # moderate friction: every scheme contracts, spectrally and on traces
    all_contract = all(radii[(s.value, 4.0)] < 1.0 for s in fig_schemes)
    all_contract &= all(c_hat(s, 4.0) > 0.0 for s in fig_schemes)

    # high friction: GLC schemes keep a rate >= 10x that of ses and oab,
    # measured on coupled traces (burn-in past the fast transient mode)
    rates = {s.value: c_hat(s, 100.0) for s in (Scheme.BAOAB, Scheme.OBABO, Scheme.SES, Scheme.OAB)}
    ratio_ok = all(
        rates[glc] >= 10.0 * rates[slow]
        for glc in ("baoab", "obabo")
        for slow in ("ses", "oab")
    )
    # spectral cross-check of the same claim
    spectral_ok = all(
        (1 - radii[(glc, 100.0)] ** 2) >= 10.0 * (1 - radii[(slow, 100.0)] ** 2)
        for glc in ("baoab", "obabo")
        for slow in ("ses", "oab")
    )

    # kinetic EM is unstable at gamma = 100 (h far above 1/(2 gamma))
    em_spectral = radii[("kinetic_em", 100.0)] > 1.0
    em_trace = run_synchronous_coupling(
        Scheme.KINETIC_EM, pot, z0, z1, StepParams(h, 100.0), 600, seed=0, force=True
    )
    em_diverges = em_spectral and em_trace.diverged

    ok = all_contract and ratio_ok and spectral_ok and em_diverges
    report(
        "6 rate-collapse reproduction",
        ok,
        f"gamma=4 all contract: {all_contract}; gamma=100 c-hat {rates['baoab']:.3f}/"
        f"{rates['ses']:.4f} (baoab/ses); EM diverges: {em_diverges}",
    )
    assert ok, (all_contract, rates, em_diverges)


def test_criterion_7_norm_property_suites():
    """Vectorized norm properties, matrix agreement, composition constants."""
    rng = np.random.default_rng(7)
    n = 100_000

    # positivity for b^2 < a
    a = 10 ** rng.uniform(-3, 3, n)
    b = np.sqrt(a) * rng.uniform(0.0, 0.999, n)
    x = rng.standard_normal(n)
    v = rng.standard_normal(n)
    vals = x * x + 2 * b * x * v + a * v * v
    positivity_ok = bool((vals > 0).all())

    # 1/2 - 3/2 equivalence for 2b <= sqrt(a)
    b2 = 0.5 * np.sqrt(a) * rng.uniform(0.0, 1.0, n)
    vals2 = x * x + 2 * b2 * x * v + a * v * v
    base = x * x + a * v * v
    equivalence_ok = bool(((vals2 >= 0.5 * base - 1e-12 * base) & (vals2 <= 1.5 * base + 1e-12 * base)).all())

    # integrator difference equals the one-step matrix on 1-d quadratics
    lam = 2.7
    pot = QuadraticPotential(np.array([[lam]]))
    params = StepParams(0.17, 1.9)
    agree_ok = True
    for scheme in Scheme:
        xi = rng.standard_normal((noise_requirements(scheme), 1))
        za = PhaseState(np.array([0.4]), np.array([-0.3]))
        zb = PhaseState(np.array([-1.1]), np.array([0.9]))
        fa = step(scheme, pot, za, params, xi)
        fb = step(scheme, pot, zb, params, xi)
        got = np.array([fa.x[0] - fb.x[0], fa.v[0] - fb.v[0]])
        want = step_matrix(scheme, lam, params) @ np.array([1.5, -1.2])
        agree_ok &= bool(np.abs(got - want).max() <= 1e-12)

    # boundary-operator amplification stays below the reference constants
    M = 4.0
    h = 0.5 / math.sqrt(M)
    comp = {
        "AB": (composition_bound("AB", 1 / M, h, M), 7.0),
        "BAO": (composition_bound("BAO", 1 / M, h, M), 7.0),
        "ABO": (composition_bound("ABO", 1 / M, h, M), 8.0),
        "OB": (composition_bound("OB", 1 / M, h, M), 6.0),
        "AB,O": (composition_bound(["AB", "O"], 1 / M, h, M), 27.0),
    }
    comp_ok = all(got <= ref for got, ref in comp.values())

    ok = positivity_ok and equivalence_ok and agree_ok and comp_ok
    report(
        "7 norm/property suites",
        ok,
        f"positivity {positivity_ok}, equivalence {equivalence_ok}, "
        f"P-matrix {agree_ok}, composition {comp_ok}",
    )
    assert ok, (positivity_ok, equivalence_ok, agree_ok, comp)


def test_criterion_8_stationary_variance():
    """BAOAB on the 1-d standard Gaussian holds unit variance over 10^6 steps."""
    t0 = time.perf_counter()
    params = StepParams(0.05, 2.0)
    n = 1_000_000
    noise = CounterStreams(8).normals(0, n, 1)
    xs = simulate_mode_chain(Scheme.BAOAB, 1.0, params, 0.0, 0.0, noise)
    var = float(np.var(xs[10_000:]))
    elapsed = time.perf_counter() - t0
    ok = 0.95 <= var <= 1.05 and elapsed < 10.0
    report("8 stationary variance", ok, f"var = {var:.4f}, {elapsed:.2f}s")
    assert 0.95 <= var <= 1.05, var
    assert elapsed < 10.0, elapsed
