import math
import warnings

import numpy as np
import pytest
import sympy as sp

from langevin_contract import glc
from langevin_contract.coupling import (
    CounterStreams,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_synchronous_coupling,
)
from langevin_contract.gaussian import SpectralError, stationary_covariance
from langevin_contract.glc import (
    GLC_STEPS,
    CollapseRow,
    LimitError,
    classify_glc,
    glc_deviation,
    limit_step,
    rate_collapse_scan,
)
from langevin_contract.integrators import (
    KINETIC_SCHEMES,
    SPLITTING_WORDS,
    IntegratorError,
    PhaseState,
    Scheme,
    StepParams,
    _coefficients,
    noise_requirements,
    step,
)
from langevin_contract.potentials import PerturbedQuadratic, QuadraticPotential
from oracles import symbolic_limit_law

POT = PerturbedQuadratic(np.diag([2.0, 3.0]), 0.5)
FIRST_ORDER_PERMUTATIONS = (Scheme.ABO, Scheme.BOA, Scheme.OBA, Scheme.AOB)


def test_limit_step_ses_is_identity():
    z = PhaseState(np.array([0.3, -0.8]), np.array([1.1, 0.4]))
    xi = np.array([[0.5, 1.5], [-0.7, 0.2]])
    got = limit_step(Scheme.SES, POT, z, 0.1, xi)
    assert np.array_equal(got.x, z.x)
    assert np.array_equal(got.v, xi[1])  # the velocity is a fresh draw


def test_limit_step_oab_ignores_gradient():
    z = PhaseState(np.array([0.3, -0.8]), np.array([1.1, 0.4]))
    xi = np.array([[0.5, 1.5]])
    other = QuadraticPotential.diagonal([7.0, 11.0])
    a = limit_step(Scheme.OAB, POT, z, 0.1, xi)
    b = limit_step(Scheme.OAB, other, z, 0.1, xi)
    assert np.array_equal(a.x, b.x)
    assert np.allclose(a.x, z.x + 0.1 * xi[0])


def test_limit_step_baoab_zero_noise_is_gradient_descent():
    # v0 = xi_0 - (h/2) grad U(x0) with xi_0 = 0: the start of the LM chain
    h, x = 0.2, np.array([0.3, -0.8])
    got = limit_step(Scheme.BAOAB, POT, PhaseState(x, -0.5 * h * POT.gradient(x)), h, np.zeros((1, 2)))
    assert np.allclose(got.x, x - 0.5 * h * h * POT.gradient(x))


def _assert_no_limit(scheme):
    # checked before any step, so no inf * 0 warning fires
    z = PhaseState(np.zeros(2), np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LimitError):
            limit_step(scheme, POT, z, 0.1, np.ones((1, 2)))
        with pytest.raises(LimitError):
            glc_deviation(scheme, POT, z.x, z.v, 0.1, 1e8, seed=3)


def test_limit_step_kinetic_em_has_no_limit():
    _assert_no_limit(Scheme.KINETIC_EM)  # its gamma h and sqrt(2 gamma h) diverge


def test_limit_step_overdamped_schemes_have_no_limit():
    for scheme in (Scheme.OVERDAMPED_EM, Scheme.LM):
        _assert_no_limit(scheme)


def test_first_order_permutations_have_limits():
    x, v = np.array([0.7, -0.2]), np.array([-0.4, 0.9])
    for scheme in FIRST_ORDER_PERMUTATIONS:
        z = limit_step(scheme, POT, PhaseState(x, v), 0.1, np.ones((1, 2)))
        assert np.isfinite(z.x).all() and np.isfinite(z.v).all(), scheme
        assert glc_deviation(scheme, POT, x, v, 0.1, 1e8, seed=3) <= 1e-6, scheme
        (row,) = rate_collapse_scan(scheme, 1.0, 1.0, 0.1, [1e2], n_steps=20)
        assert math.isfinite(row.deviation), scheme
        assert classify_glc(scheme) is False  # a limit, but not a faithful one


def test_ses_limit_constants_are_the_large_friction_limits():
    # the SES formulas give 0/0 at gamma = inf; the constants returned there
    # are what they tend to, and finite frictions keep the formulas
    limit = _coefficients(Scheme.SES, StepParams(0.1, math.inf))
    assert limit == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    near = _coefficients(Scheme.SES, StepParams(0.1, 1e12))
    assert np.allclose(near, limit, rtol=0.0, atol=1e-5)
    assert near != limit


def test_limit_step_consumes_the_scheme_noise():
    z = PhaseState(np.array([0.3, -0.8]), np.array([1.1, 0.4]))
    for scheme in (Scheme.BAO, Scheme.OAB, Scheme.BAOAB, Scheme.OBABO, Scheme.SES, *FIRST_ORDER_PERMUTATIONS):
        k = noise_requirements(scheme)
        limit_step(scheme, POT, z, 0.1, np.ones((k, 2)))
        with pytest.raises(IntegratorError):
            limit_step(scheme, POT, z, 0.1, np.ones((k + 1, 2)))


def test_classify_glc_table():
    assert classify_glc(Scheme.BAOAB) is True
    assert classify_glc(Scheme.OBABO) is True
    for scheme in (Scheme.BAO, Scheme.OAB, Scheme.SES, Scheme.KINETIC_EM, *FIRST_ORDER_PERMUTATIONS):
        assert classify_glc(scheme) is False
    for scheme in (Scheme.OVERDAMPED_EM, Scheme.LM):
        with pytest.raises(LimitError):
            classify_glc(scheme)


def test_glc_deviation_vanishes_at_extreme_friction():
    x, v = np.array([0.7, -0.2]), np.array([-0.4, 0.9])
    for scheme in (Scheme.BAO, Scheme.OAB, Scheme.BAOAB, Scheme.OBABO):
        assert glc_deviation(scheme, POT, x, v, 0.1, 1e8, seed=3) <= 1e-6, scheme


def test_glc_deviation_monotone_in_gamma():
    x, v = np.array([0.7, -0.2]), np.array([-0.4, 0.9])
    grid = [1e2, 1e3, 1e4, 1e6]
    for scheme in (Scheme.OAB, Scheme.BAOAB, Scheme.OBABO):
        devs = [glc_deviation(scheme, POT, x, v, 0.1, g, seed=3) for g in grid]
        assert all(b <= a + 1e-15 for a, b in zip(devs, devs[1:])), (scheme, devs)


def test_glc_deviation_bao_position_exact():
    # bao's position update involves neither noise nor eta, so the matched
    # limit step reproduces it up to operation reordering at every friction
    x, v = np.array([0.7, -0.2]), np.array([-0.4, 0.9])
    for gamma in (1.0, 10.0, 1e4):
        assert glc_deviation(Scheme.BAO, POT, x, v, 0.1, gamma, seed=3) <= 1e-15


def test_glc_deviation_ses_vanishes_at_admissible_stepsize():
    # at h = 0.8/(2 gamma) both the drift and the noise scale move like
    # 1/gamma, so the single-step position increment shrinks with friction
    x, v = np.array([0.7, -0.2]), np.array([-0.4, 0.9])
    for gamma in (1e6, 1e8):
        h = 0.8 * certified_stepsize_threshold(Scheme.SES, POT.m, POT.M, gamma)
        assert glc_deviation(Scheme.SES, POT, x, v, h, gamma, seed=3) <= 1e-6


def test_baoab_limit_chain_equals_averaged_noise_overdamped():
    # iterate the baoab limit from v0 = xi_0 - (h/2) grad U(x0) and the
    # overdamped LM step at h^2/2 on shared draws for 1000 steps
    h = 0.2
    n = 1000
    delta = h * h / 2.0
    xi = CounterStreams(9).normals(0, n + 1, 2)
    x_lm = np.array([0.4, -0.6])
    z = PhaseState(x_lm, xi[0] - 0.5 * h * POT.gradient(x_lm))
    prev = xi[0]
    for k in range(1, n + 1):
        z = limit_step(Scheme.BAOAB, POT, z, h, xi[k][np.newaxis])
        x_lm = step(
            Scheme.LM,
            POT,
            PhaseState(x_lm, np.zeros(2)),
            StepParams(delta, 1.0),
            xi[k][np.newaxis],
            prev_noise=prev,
        ).x
        prev = xi[k]
        assert np.abs(z.x - x_lm).max() <= 1e-12


def test_obabo_limit_chain_equals_overdamped_em():
    # from any v0: the first O piece of each limit step discards v
    h = 0.2
    n = 1000
    delta = h * h / 2.0
    xi = CounterStreams(10).normals(0, n, 2)
    xi2 = CounterStreams(10).normals(1, n, 2)
    x_em = np.array([0.4, -0.6])
    z = PhaseState(x_em, np.array([5.0, -3.0]))
    for k in range(n):
        z = limit_step(Scheme.OBABO, POT, z, h, np.stack([xi[k], xi2[k]]))
        x_em = step(
            Scheme.OVERDAMPED_EM,
            POT,
            PhaseState(x_em, np.zeros(2)),
            StepParams(delta, 1.0),
            xi[k][np.newaxis],
        ).x
        assert np.abs(z.x - x_em).max() <= 1e-12


@pytest.mark.parametrize("scheme", KINETIC_SCHEMES)
def test_glc_table_derived_from_the_limit_mode_chain(scheme):
    # GLC: the limit chain's stationary lam Var(x) tends to 1 as h -> 0, here
    # in closed form from the splitting word, against the library's solve at
    # h sqrt(lam) in GLC_STEPS and at a coarse step
    lam, h = sp.symbols("lam h", positive=True)
    law = symbolic_limit_law(scheme, lam, h) if scheme in SPLITTING_WORDS else None
    assert classify_glc(scheme) is (law is not None and sp.limit(law, h, 0) == 1)
    for scaled in (*GLC_STEPS, 0.5):
        at = {lam: 2.0, h: scaled / math.sqrt(2.0)}
        params = StepParams(at[h], math.inf)
        if law is None:
            # no stationary law: rho(P) = 1 exactly, or, for kinetic_em, no limit
            with pytest.raises(IntegratorError if scheme is Scheme.KINETIC_EM else SpectralError):
                stationary_covariance(scheme, at[lam], params)
        else:
            # the solve loses a factor of about 1/(h^2 lam), the chain's 1 - rho(P)^2
            tol = 10 * np.finfo(float).eps / scaled**2
            got = at[lam] * stationary_covariance(scheme, at[lam], params)[0, 0]
            assert got == pytest.approx(float(law.subs(at)), rel=0.0, abs=tol), scaled


def test_limit_position_laws_in_closed_form():
    # the rescaled-potential class, Leimkuhler-Matthews' exact baoab limit, and
    # obabo's overdamped EM at h^2/2
    lam, h = sp.symbols("lam h", positive=True)
    want = {
        Scheme.BAO: 1 / (2 - h**2 * lam),
        Scheme.OBA: 1 / (2 - h**2 * lam),
        Scheme.AOB: 1 / (2 - h**2 * lam),
        Scheme.BAOAB: sp.Integer(1),
        Scheme.OBABO: 1 / (1 - h**2 * lam / 4),
    }
    for scheme in SPLITTING_WORDS:
        law = symbolic_limit_law(scheme, lam, h)
        if scheme in want:
            assert sp.simplify(law - want[scheme]) == 0, scheme
        else:
            assert law is None, scheme


def test_rate_collapse_baoab_approaches_quarter_h2m():
    rows = rate_collapse_scan(Scheme.BAOAB, 1.0, 1.0, 0.1, [10.0, 100.0, 1000.0], n_steps=600)
    cs = [r.c_theoretical for r in rows]
    # h^2 m / (4 (1 - eta)) -> h^2 m / 4 = 0.0025
    assert cs[0] == pytest.approx(0.01 / (4 * (1 - math.exp(-1.0))))
    assert cs[-1] == pytest.approx(0.0025, rel=1e-6)
    assert abs(cs[2] - 0.0025) < abs(cs[0] - 0.0025)
    assert all(r.admissible for r in rows)
    # empirical rates stay positive (no collapse) for the GLC scheme
    assert all(r.c_empirical > 0.5 * r.c_theoretical for r in rows)


def test_rate_collapse_ses_tenfold_per_decade():
    h = 1.0 / 2000.0  # admissible for every gamma in the grid
    rows = rate_collapse_scan(Scheme.SES, 1.0, 1.0, h, [100.0, 1000.0], n_steps=400)
    assert rows[0].c_theoretical == pytest.approx(10 * rows[1].c_theoretical, rel=1e-12)
    assert all(r.admissible for r in rows)


def test_rate_collapse_flags_inadmissible():
    rows = rate_collapse_scan(Scheme.KINETIC_EM, 1.0, 1.0, 0.25, [100.0], n_steps=50)
    assert not rows[0].admissible
    assert math.isnan(rows[0].deviation)  # no limit map for kinetic_em


def _scan_point_by_point(scheme, m, M, h, gamma_grid, n_steps, seeds):
    """rate_collapse_scan's rows from one coupled run per (seed, gamma) point."""
    pot = QuadraticPotential.diagonal([m, M])
    z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
    z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))
    rows = []
    for seed in seeds:
        for gamma in gamma_grid:
            h_used = h if h is not None else 0.8 * certified_stepsize_threshold(scheme, m, M, gamma)
            if h_used <= 0.0:
                rows.append(CollapseRow(scheme, gamma, 0.0, 0.0, math.nan, False, math.nan))
                continue
            rate = certified_rate(scheme, m, M, gamma, h_used)
            try:
                trace = run_synchronous_coupling(
                    scheme, pot, z0, z1, StepParams(h_used, gamma), n_steps, seed, force=True
                )
                c_hat = empirical_rate(positive_prefix(trace))
            except ValueError:
                c_hat = math.nan
            try:
                dev = glc_deviation(scheme, pot, z0.x, z0.v, h_used, gamma, seed)
            except LimitError:
                dev = math.nan
            rows.append(CollapseRow(scheme, gamma, h_used, rate.c, c_hat, rate.admissible, dev))
    return rows


@pytest.fixture
def batch_calls(monkeypatch):
    """(scheme, number of points) of each run_coupling_batch call rate_collapse_scan makes."""
    calls = []
    run_coupling_batch = glc.run_coupling_batch

    def counting(potential, z0, z0_tilde, points, n_steps):
        calls.append((points[0].rate.scheme, len(points)))
        return run_coupling_batch(potential, z0, z0_tilde, points, n_steps)

    monkeypatch.setattr(glc, "run_coupling_batch", counting)
    return calls


@pytest.mark.parametrize(
    "scheme",
    [Scheme.BAO, Scheme.OAB, Scheme.BAOAB, Scheme.OBABO, Scheme.SES, Scheme.KINETIC_EM, Scheme.LM],
)
def test_rate_collapse_scan_batch_equals_point_by_point(scheme, batch_calls):
    # the grid has rows below a friction floor (h = 0), rows whose certified
    # norm is degenerate (b^2 >= a) and forced rows that diverge
    gammas, seeds = [1.0, 3.0, 10.0, 100.0, 1e8], [0, 7]
    for h in (1.0, 0.3, None):
        want = _scan_point_by_point(scheme, 1.0, 4.0, h, gammas, 200, seeds)
        got = rate_collapse_scan(scheme, 1.0, 4.0, h, gammas, n_steps=200, seeds=seeds)
        assert repr(got) == repr(want), h
    # one batch per sweep, never one run per point
    assert [s for s, _ in batch_calls] == [scheme] * 3


def test_rate_collapse_scan_leaves_invalid_constants_out_of_the_batch(batch_calls):
    # kinetic_em's gamma h overflows at gamma = 1e150, h = 1e160: that point
    # gets a nan rate without stopping the gamma = 10 point's run
    args = (Scheme.KINETIC_EM, 1.0, 4.0, 1e160, [10.0, 1e150])
    want = _scan_point_by_point(*args, 50, [0])
    got = rate_collapse_scan(*args, n_steps=50)
    assert repr(got) == repr(want)
    assert math.isnan(got[1].c_empirical)
    assert batch_calls == [(Scheme.KINETIC_EM, 1)]
