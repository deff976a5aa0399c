import json
import math

import numpy as np
import pytest

from langevin_contract import coupling
from langevin_contract.cli import main
from langevin_contract.coupling import (
    _BLOCK_BYTES,
    CertifiedRate,
    CouplingError,
    CouplingPoint,
    CounterStreams,
    InadmissibleParameters,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_coupling_batch,
    run_synchronous_coupling,
    verify_trace_bound,
)
from langevin_contract.integrators import (
    PhaseState,
    Scheme,
    StepParams,
    _coefficients,
    affine_mode_map,
    noise_requirements,
    step,
)
from langevin_contract.norms import WeightedNorm
from langevin_contract.potentials import PerturbedQuadratic, Potential, QuadraticPotential
from oracles import FIRST_ORDER_SPLITTINGS, REFERENCE_BOUND_CONSTANTS, mp_eta_root, zero_noise_difference

ANISO = QuadraticPotential.anisotropic_gaussian(1.0, 4.0)
Z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
Z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))


def test_counter_streams_reproducible_and_independent():
    a = CounterStreams(3).normals(0, 5, 2)
    b = CounterStreams(3).normals(0, 5, 2)
    assert np.array_equal(a, b)
    c = CounterStreams(3).normals(1, 5, 2)
    d = CounterStreams(4).normals(0, 5, 2)
    assert not np.array_equal(a, c) and not np.array_equal(a, d)
    with pytest.raises(CouplingError):
        CounterStreams(-1)
    # the seed is the uint64 Philox key: 2**64 - 1 is the largest that fits
    assert CounterStreams(2**64 - 1).normals(0, 1, 2).shape == (1, 2)
    with pytest.raises(CouplingError, match=r"2\*\*64"):
        CounterStreams(2**64)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(1.0), "1"])
def test_counter_streams_reject_a_non_integral_seed(seed):
    # a float would key Philox with its truncation, so 1.5 would draw seed 1's numbers
    with pytest.raises(CouplingError, match="seed must be an integer"):
        CounterStreams(seed)


def test_counter_streams_take_numpy_integers():
    want = CounterStreams(7).normals(0, 3, 2)
    for seed in (np.int64(7), np.uint64(7), np.int32(7)):
        assert CounterStreams(seed).seed == 7 and type(CounterStreams(seed).seed) is int
        assert np.array_equal(CounterStreams(seed).normals(0, 3, 2), want)
    with pytest.raises(CouplingError, match=r"2\*\*64"):
        CounterStreams(np.int64(-1))


def test_coupled_chains_with_equal_starts_stay_equal():
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z0, StepParams(0.1, 4.0), 50, seed=0
    )
    assert np.array_equal(tr.distances, np.zeros(51))


def test_quadratic_trace_is_seed_independent():
    # no draw reaches a quadratic trace: every scheme, admissible and forced to
    # diverge, gives one trace bit for bit at seeds as far apart as Philox keys go
    gamma = 8.0
    h = 0.8 * certified_stepsize_threshold(Scheme.BAOAB, 1.0, 4.0, gamma)
    for scheme in Scheme:
        for p in (StepParams(h, gamma), StepParams(1.0, 1.0)):
            traces = [run_synchronous_coupling(scheme, ANISO, Z0, Z1, p, 300, s, force=True) for s in (0, 999, 2**64 - 1)]
            for tr in traces[1:]:
                assert np.array_equal(tr.distances, traces[0].distances, equal_nan=True)
                assert tr.diverged_at == traces[0].diverged_at


def test_kinetic_em_trace_bound_example():
    # m=1, M=4, gamma=4, h=0.1: certified rate c = m h / (2 gamma) = 0.0125
    rate = certified_rate(Scheme.KINETIC_EM, 1.0, 4.0, 4.0, 0.1)
    assert rate.admissible and rate.c == pytest.approx(0.0125)
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.1, 4.0), 1000, seed=1
    )
    ks = np.arange(1001)
    assert (tr.distances <= (1 - 0.0125) ** ks * tr.distances[0] * (1 + 1e-12)).all()
    assert tr.point.rate == rate
    ok, bad = verify_trace_bound(tr)
    assert ok and bad is None


def test_empirical_rate_exact_geometric():
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.1, 4.0), 50, seed=0
    )
    tr.distances = 0.99 ** np.arange(200)
    tr.quadratic = True
    assert empirical_rate(tr) == pytest.approx(0.01, abs=1e-12)


def test_empirical_rate_beats_certified_rate():
    # window kept short of the step where the coupled chains merge to
    # bitwise-equal states (exact zero distance)
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.1, 4.0), 800, seed=0
    )
    assert empirical_rate(tr) >= 0.0125


def test_empirical_rate_dominates_certified_rate_all_schemes():
    # the certified squared rate is a lower bound on the fitted decay for
    # quadratic targets at admissible parameters
    gamma_factor = {"kinetic_em": 2.5, "ses": 6.25}
    for scheme in (Scheme.KINETIC_EM, Scheme.BAO, Scheme.OAB, Scheme.BAOAB, Scheme.OBABO, Scheme.SES):
        gamma = gamma_factor.get(scheme.value, 4.0) * 2.0  # sqrt(M) = 2
        h = 0.8 * certified_stepsize_threshold(scheme, 1.0, 4.0, gamma)
        rate = certified_rate(scheme, 1.0, 4.0, gamma, h)
        assert rate.admissible
        tr = run_synchronous_coupling(scheme, ANISO, Z0, Z1, StepParams(h, gamma), 500, seed=0)
        assert empirical_rate(tr, burn_in=20) >= rate.c, scheme


def test_empirical_rate_collapses_for_oab_at_high_friction():
    gamma = 1e4
    h = 0.8 * certified_stepsize_threshold(Scheme.OAB, 1.0, 1.0, gamma)
    pot = QuadraticPotential.diagonal([1.0, 1.0])
    tr = run_synchronous_coupling(Scheme.OAB, pot, Z0, Z1, StepParams(h, gamma), 2000, seed=0)
    assert abs(empirical_rate(tr)) <= 1e-6


def test_empirical_rate_guards():
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z0, StepParams(0.1, 4.0), 50, seed=0
    )
    with pytest.raises(CouplingError):
        empirical_rate(tr)  # all-zero trace
    tr2 = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.1, 4.0), 5, seed=0
    )
    with pytest.raises(CouplingError):
        empirical_rate(tr2)  # too short


def test_certified_rate_kinetic_em_example():
    r = certified_rate(Scheme.KINETIC_EM, 1.0, 4.0, 4.0, 0.1)
    # gamma^2 = 16 >= 16, h = 0.1 < 0.125
    assert r.admissible
    assert (r.a, r.b) == (0.25, 0.25)
    assert r.c == pytest.approx(0.0125)
    assert r.prefactor == 1.0 and r.shift == 0


def test_certified_rate_bao_example():
    r = certified_rate(Scheme.BAO, 1.0, 1.0, 5.0, 0.1)
    eta = math.exp(-0.5)
    assert r.admissible  # 0.1 < (1 - eta)/sqrt(6) ~ 0.1606
    assert r.b == pytest.approx(0.1 / (1 - eta))
    assert r.c == pytest.approx(0.01 / (4 * (1 - eta)))
    assert r.c == pytest.approx(6.35373e-3, rel=1e-4)
    assert r.norm == WeightedNorm(r.a, r.b)
    # forced: at h = 1, gamma = 1 the certified b = 1/(1 - 1/e) has b^2 >= a = 1/M,
    # so a run there is measured without the cross term
    forced = certified_rate(Scheme.BAO, 1.0, 4.0, 1.0, 1.0)
    assert not forced.admissible and "b^2 < a" in forced.violated[-1]
    assert forced.norm == WeightedNorm(0.25, 0.0)


def test_certified_rate_ses_gamma_floor():
    r = certified_rate(Scheme.SES, 1.0, 4.0, 9.0, 0.05)
    assert r.c == pytest.approx(0.05 / 36.0)
    assert not r.admissible  # gamma = 9 < 5 sqrt(M) = 10
    assert any("5 sqrt(M)" in v for v in r.violated)


def test_certified_rate_overdamped():
    r = certified_rate(Scheme.OVERDAMPED_EM, 1.0, 4.0, 1.0, 0.25)
    assert r.admissible and r.c == pytest.approx(0.25 * (2 - 1.0))
    r_bad = certified_rate(Scheme.LM, 1.0, 4.0, 1.0, 0.6)
    assert not r_bad.admissible  # h > 2/M


def test_a_rate_keeps_only_its_failing_hypotheses_with_their_numbers():
    # admissible exactly when nothing fails, on a grid around each scheme's
    # threshold, below its friction floor and far past it; nan is outside the domain
    seen = {True: 0, False: 0}
    for scheme in Scheme:
        for M in (1.0, 4.0):
            for gamma in (0.5, 3.0, 11.0, 1e3):
                h_max = certified_stepsize_threshold(scheme, 1.0, M, gamma)
                with pytest.raises(CouplingError, match="need h > 0"):
                    certified_rate(scheme, 1.0, M, gamma, math.nan)
                hs = [0.01, 0.3, 1.0, 1e3] + [t * h_max for t in (0.5, 0.999, 1.0, 1.5) if h_max > 0.0]
                for h in hs:
                    r = certified_rate(scheme, 1.0, M, gamma, h)
                    assert type(r.violated) is tuple and all(type(v) is str for v in r.violated)
                    assert r.admissible == (not r.violated) == (r.violated == ()), (scheme, M, gamma, h, r)
                    assert r.norm_valid == (r.b * r.b < r.a)
                    assert ("b^2 < a: b=" in " ".join(r.violated)) != r.norm_valid
                    seen[r.admissible] += 1
    assert min(seen.values()) > 0, seen
    # kinetic_em below its floor gamma^2 >= 4M: gamma^2 = 9 against 4M = 16
    below = certified_rate(Scheme.KINETIC_EM, 1.0, 4.0, 3.0, 0.01)
    assert below.violated == ("gamma^2 >= 4M: 9.0 >= 16.0",)
    # bao at h = 1, gamma = 1: b = 1/(1 - 1/e) with b^2 >= a = 1/M
    forced = certified_rate(Scheme.BAO, 1.0, 4.0, 1.0, 1.0)
    assert f"b^2 < a: b={forced.b}, a={forced.a}" in forced.violated
    assert not forced.admissible and not forced.norm_valid


def test_exact_one_step_contraction_is_admissible():
    # m = M = 1, h = 1: c = h m (2 - h M) = 1, and one step maps both chains
    # to the same point
    for scheme in (Scheme.OVERDAMPED_EM, Scheme.LM):
        r = certified_rate(scheme, 1.0, 1.0, 1.0, 1.0)
        assert r.admissible and r.c == 1.0, r.violated
        assert r.bound_sq_steps(1, 3.0)[1] == 0.0
    pot = QuadraticPotential.anisotropic_gaussian(1.0, 1.0)
    tr = run_synchronous_coupling(Scheme.LM, pot, Z0, Z1, StepParams(1.0, 1.0), 20, seed=0)
    assert verify_trace_bound(tr) == (True, None)


def _generator_bounds(rate, n_steps, d0):
    """The bounds as one Python float expression per step, or the error type and text."""
    try:
        terms = (rate.prefactor**2 * (1.0 - rate.c) ** (k - rate.shift) * d0 for k in range(n_steps + 1))
        return [x.hex() if x == x else "nan" for x in terms]
    except Exception as exc:
        return type(exc), str(exc)


def test_bound_sq_steps_is_the_float_expression_bit_for_bit():
    rng = np.random.default_rng(35)
    cs = [1e-300, 5e-324, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2**-53, 1.0]
    seen = set()
    for i in range(400):
        c = cs[i % len(cs)] if i % 2 else float(rng.uniform(0.0, 1.0))
        d0 = [0.0, math.inf, 1e-300, 1e300][i % 4] if i % 3 == 0 else float(10 ** rng.uniform(-20.0, 20.0))
        prefactor, shift, n = float(rng.choice([1.0, 7.0, 27.0])), int(rng.integers(0, 2)), int(rng.integers(0, 300))
        rate = CertifiedRate(Scheme.BAO, 0.25, 0.5, c, prefactor, shift, ())
        want = _generator_bounds(rate, n, d0)
        try:
            got = [x.hex() if x == x else "nan" for x in rate.bound_sq_steps(n, d0).tolist()]
        except Exception as exc:
            got = type(exc), str(exc)
        assert got == want, (c, prefactor, shift, d0, n)
        seen.add(want[0].__name__ if isinstance(want, tuple) else "nan" if "nan" in want else "float")
    assert seen == {"float", "nan", "ZeroDivisionError"}, seen


def test_threshold_and_rate_read_the_same_friction_floor():
    # gamma^2 >= 4M holds here in one rounding of gamma^2 and fails in another
    m, M, gamma = 1.0, 233.79025282939912, 30.580402406076942
    h_max = certified_stepsize_threshold(Scheme.KINETIC_EM, m, M, gamma)
    r = certified_rate(Scheme.KINETIC_EM, m, M, gamma, 0.5 * (h_max or 0.5 / gamma))
    assert r.admissible == (h_max > 0.0), (h_max, r.violated)


def test_certified_rate_prefactors_for_permutations():
    for s, pref in [
        (Scheme.ABO, 27.0),
        (Scheme.BOA, 27.0),
        (Scheme.OBA, 27.0),
        (Scheme.AOB, 27.0),
        (Scheme.BAOAB, 7.0),
        (Scheme.OBABO, 7.0),
    ]:
        r = certified_rate(s, 1.0, 1.0, 8.0, 0.05)
        assert (r.prefactor, r.shift) == (pref, 1)
    # abo/boa inherit oab's triple; oba/aob inherit bao's
    eta = math.exp(-8.0 * 0.05)
    assert certified_rate(Scheme.ABO, 1, 1, 8.0, 0.05).b == pytest.approx(eta * 0.05 / (1 - eta))
    assert certified_rate(Scheme.OBA, 1, 1, 8.0, 0.05).b == pytest.approx(0.05 / (1 - eta))


def test_record_prefactors_are_the_oracle_constants():
    # the records are the library's one statement of 7 and 27; each equals the
    # boundary-operator constant that the oracle states for its decomposition
    for s in (Scheme.BAOAB, Scheme.OBABO):
        assert coupling._RECORDS[s].prefactor == REFERENCE_BOUND_CONSTANTS["AB"] == REFERENCE_BOUND_CONSTANTS["BAO"]
    for s in FIRST_ORDER_SPLITTINGS[2:]:  # abo, boa, oba, aob
        assert coupling._RECORDS[s].prefactor == REFERENCE_BOUND_CONSTANTS["AB,O"]


#: the friction each scheme's hypotheses are scaled by: a floor on gamma, or
#: the s of a restriction h < (1 - eta)/s; overdamped schemes have neither
FRICTION_SCALE = {
    **{s: lambda M: math.sqrt(6 * M) for s in FIRST_ORDER_SPLITTINGS},
    Scheme.OVERDAMPED_EM: lambda M: 1.0,
    Scheme.LM: lambda M: 1.0,
    Scheme.KINETIC_EM: lambda M: 2 * math.sqrt(M),
    Scheme.SES: lambda M: 5 * math.sqrt(M),
    Scheme.BAOAB: lambda M: 2 * math.sqrt(M),
    Scheme.OBABO: lambda M: 2 * math.sqrt(M),
}


def _random_draws(rng):
    for scheme, scale in FRICTION_SCALE.items():
        for i in range(1000):
            m = 10 ** rng.uniform(-1, 0.5)
            M = m if i % 5 == 0 else m * 10 ** rng.uniform(0, 2)
            gamma = scale(M) * 10 ** rng.uniform(0.05, 8)
            theta = 0.999999 if i % 7 == 0 else rng.uniform(0.05, 0.999999)
            yield scheme, m, M, gamma, theta


def _near_eta_floor_draws(rng):
    for scheme in (Scheme.BAO, Scheme.OAB, Scheme.BAOAB, Scheme.OBABO):
        for rel in (1e-3, 1e-4):
            M = 10 ** rng.uniform(0, 2)
            yield scheme, 1.0, M, FRICTION_SCALE[scheme](M) * (1 + rel), 0.8


@pytest.mark.parametrize(
    "draws",
    [
        pytest.param(_random_draws, id="random"),
        pytest.param(
            _near_eta_floor_draws,
            id="near-eta-floor",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 4(b): this close to gamma = s, 200 fixed-point steps "
                "stop above the root of h = (1 - eta)/s",
            ),
        ),
    ],
)
def test_certified_norm_weights_always_equivalent(draws):
    # every theta * threshold, theta < 1, is admissible, with b^2 < a and 2b <= sqrt(a)
    rng = np.random.default_rng(8)
    for scheme, m, M, gamma, theta in draws(rng):
        hmax = certified_stepsize_threshold(scheme, m, M, gamma)
        assert hmax > 0, (scheme, m, M, gamma)  # every draw clears its friction floor
        r = certified_rate(scheme, m, M, gamma, theta * hmax)
        assert r.admissible, (scheme, theta, r.violated)
        assert r.b**2 < r.a and r.norm == WeightedNorm(r.a, r.b)
        assert 2 * r.b <= math.sqrt(r.a) * (1 + 1e-12)


def test_stepsize_threshold_fixed_point():
    # bao: h* solves h = (1 - exp(-gamma h)) / sqrt(6 M)
    h = certified_stepsize_threshold(Scheme.BAO, 1.0, 1.0, 5.0)
    assert h == pytest.approx((1 - math.exp(-5 * h)) / math.sqrt(6), rel=1e-12)
    # below the friction floor no stepsize is admissible
    assert certified_stepsize_threshold(Scheme.BAO, 1.0, 1.0, 2.0) == 0.0
    # oab also caps at 1/(4 gamma)
    g = 100.0
    assert certified_stepsize_threshold(Scheme.OAB, 1.0, 1.0, g) == pytest.approx(1 / (4 * g))


_STALLS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4(b): the 200-step fixed point stalls above the root as gamma -> s+"
)


@pytest.mark.parametrize("excess", [0.5, 2.0, 10.0] + [pytest.param(x, marks=_STALLS) for x in (1e-4, 1e-3, 0.05)])
def test_eta_threshold_is_the_root_of_its_hypothesis(excess):
    # bao's threshold at gamma = s (1 + excess), s = sqrt(6 M), solves h = (1 - exp(-gamma h))/s
    s = math.sqrt(6.0 * 4.0)
    gamma = s * (1.0 + excess)
    got = certified_stepsize_threshold(Scheme.BAO, 1.0, 4.0, gamma)
    assert got == pytest.approx(mp_eta_root(gamma, s), rel=1e-12)


@pytest.mark.parametrize(
    "scheme, m, M, gamma, problem",
    [
        (Scheme.KINETIC_EM, 1.0, 4.0, -3.0, "need gamma > 0, got gamma=-3.0"),
        (Scheme.KINETIC_EM, 1.0, 4.0, 0.0, "need gamma > 0, got gamma=0.0"),
        (Scheme.BAO, 0.0, 4.0, 5.0, "need 0 < m <= M, got m=0.0, M=4.0"),
        (Scheme.KINETIC_EM, 4.0, 1.0, 5.0, "need 0 < m <= M, got m=4.0, M=1.0"),
    ],
    ids=["gamma_negative", "gamma_zero", "m_zero", "m_above_M"],
)
def test_stepsize_threshold_checks_what_certified_rate_checks(scheme, m, M, gamma, problem):
    # a negative threshold, a ZeroDivisionError or a threshold for an
    # impossible target would each be read as a stepsize
    with pytest.raises(CouplingError) as threshold_err:
        certified_stepsize_threshold(scheme, m, M, gamma)
    with pytest.raises(CouplingError) as rate_err:
        certified_rate(scheme, m, M, gamma, 0.1)
    assert str(threshold_err.value) == str(rate_err.value) == problem


def test_certified_rate_needs_a_positive_h():
    with pytest.raises(CouplingError, match=r"need h > 0, got h=0.0"):
        certified_rate(Scheme.BAO, 1.0, 4.0, 5.0, 0.0)


#: each record's (a, b, c) as float expressions with float constants
_FLOAT_ABC = {
    Scheme.OVERDAMPED_EM: lambda m, M, g, h, eta, ome: (1.0, 0.0, h * m * (2.0 - h * M)),
    Scheme.KINETIC_EM: lambda m, M, g, h, eta, ome: (1.0 / M, 1.0 / g, m * h / (2.0 * g)),
    Scheme.SES: lambda m, M, g, h, eta, ome: (1.0 / M, 1.0 / g, m * h / (4.0 * g)),
    Scheme.BAO: lambda m, M, g, h, eta, ome: (1.0 / M, h / ome, h * h * m / (4.0 * ome)),
    Scheme.OAB: lambda m, M, g, h, eta, ome: (1.0 / M, eta * h / ome, eta * h * h * m / (4.0 * ome)),
}
_FLOAT_ABC[Scheme.LM] = _FLOAT_ABC[Scheme.OVERDAMPED_EM]
_FLOAT_ABC.update(dict.fromkeys((Scheme.ABO, Scheme.BOA), _FLOAT_ABC[Scheme.OAB]))
_FLOAT_ABC.update(dict.fromkeys((Scheme.OBA, Scheme.AOB, Scheme.BAOAB, Scheme.OBABO), _FLOAT_ABC[Scheme.BAO]))


def test_a_rate_where_nothing_overflows_is_the_float_expression(monkeypatch):
    def no_wide(*args):
        raise AssertionError("re-evaluated a record where no float product overflows")

    monkeypatch.setattr(coupling, "_wide_abc", no_wide)
    rng = np.random.default_rng(36)
    for _ in range(3000):
        scheme = list(Scheme)[rng.integers(len(Scheme))]
        m, M = sorted(np.exp(rng.uniform(-7.0, 7.0, 2)).tolist())
        gamma, h = math.exp(rng.uniform(-7.0, 20.0)), math.exp(rng.uniform(-14.0, 3.0))
        rate = certified_rate(scheme, m, M, gamma, h)
        want = _FLOAT_ABC[scheme](m, M, gamma, h, math.exp(-gamma * h), -math.expm1(-gamma * h))
        assert [f.hex() for f in (rate.a, rate.b, rate.c)] == [float(f).hex() for f in want]
        assert [type(f) for f in (rate.a, rate.b, rate.c)] == [float] * 3


def test_a_rate_whose_float_products_overflow_keeps_its_value():
    # ses at m = M = 4, gamma = h = 1e308: m h and 4 gamma overflow, and c = inf/inf was nan
    assert certified_rate(Scheme.SES, 4.0, 4.0, 1e308, 1e308).c == 1.0
    # kinetic_em at gamma = inf, m h = inf: the limit 0, not inf/inf
    assert certified_rate(Scheme.KINETIC_EM, 1e300, 1e300, math.inf, 1e10).c == 0.0
    # a c of 0.0 under a 4 gamma that overflowed: 1e300 / 4e308
    assert certified_rate(Scheme.SES, 1e300, 1e300, 1e308, 1.0).c == 2.5e-9
    # h M overflows where h m (2 - h M) does not: -h^2 m M = -1e300, to rounding
    assert certified_rate(Scheme.OVERDAMPED_EM, 1e-300, 1e200, 1.0, 1e200).c == pytest.approx(-1e300, rel=1e-15)
    # h^2 overflows where h^2 m / 4 does not; b = h / (1 - eta) = 1e200
    bao = certified_rate(Scheme.BAO, 1e-300, 1e200, 1.0, 1e200)
    assert (bao.b, bao.c) == (1e200, 2.5e99)
    # a field beyond the float range is inf
    assert certified_rate(Scheme.BAO, 1.0, 4.0, 1.0, 1e300).c == math.inf


@pytest.mark.parametrize(
    "args, match",
    [
        ((Scheme.OVERDAMPED_EM, 0.05, math.inf, 1.0, 5e-324), "need a finite M"),
        ((Scheme.LM, 1.0, math.inf, 1.0, 0.1), "need a finite M"),
        ((Scheme.BAO, math.inf, math.inf, 1.0, 0.1), "need a finite M"),
        ((Scheme.OAB, 1.0, 4.0, 1.0, math.inf), "need a finite h"),
    ],
)
def test_a_rate_needs_finite_m_M_and_h(args, match):
    # each gave a nan field: 0 * inf, or eta h = 0 * inf
    with pytest.raises(CouplingError, match=match):
        certified_rate(*args)
    if args[-1] < math.inf:
        with pytest.raises(CouplingError, match=match):
            certified_stepsize_threshold(*args[:-1])
    assert not math.isnan(certified_rate(args[0], 1.0, 4.0, math.inf, 0.1).c)  # gamma = inf stays allowed


def test_inadmissible_requires_force():
    with pytest.raises(InadmissibleParameters):
        run_synchronous_coupling(
            Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.25, 100.0), 10, seed=0
        )
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.25, 100.0), 400, seed=0, force=True
    )
    assert tr.diverged and tr.diverged_at is not None


def test_divergence_marked_at_first_non_finite_distance():
    # kinetic_em far above its stepsize bound overflows the squared distance
    # (k = 113) long before a state (k = 224); baoab at h = 1.5, where its
    # certified b^2 >= a and so its norm has no cross term, gets nan
    # distances from 0 * inf while its states stay finite
    iso = QuadraticPotential.anisotropic_gaussian(1.0, 1.0)
    runs = [
        (Scheme.KINETIC_EM, iso, StepParams(0.25, 100.0), 600, 113),
        (Scheme.BAOAB, ANISO, StepParams(1.5, 4.0), 400, 283),
    ]
    for scheme, pot, params, n, first_bad in runs:
        tr = run_synchronous_coupling(scheme, pot, Z0, Z1, params, n, seed=0, force=True)
        assert tr.diverged_at == first_bad
        assert len(tr.distances) == first_bad + 1
        assert np.isfinite(tr.distances[:first_bad]).all() and not np.isfinite(tr.distances[first_bad])
        assert len(positive_prefix(tr).distances) == first_bad
    assert tr.point.rate.norm == WeightedNorm(0.25, 0.0)


def test_verify_trace_bound_violation_injection():
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.1, 4.0), 50, seed=0
    )
    tr.distances = tr.distances.copy()
    tr.distances[5] = tr.distances[0] * 2.0
    ok, bad = verify_trace_bound(tr)
    assert not ok and bad == 5


def test_verify_trace_bound_baoab_prefactor():
    m, M, gamma = 1.0, 4.0, 8.0
    h = 0.8 * certified_stepsize_threshold(Scheme.BAOAB, m, M, gamma)
    rate = certified_rate(Scheme.BAOAB, m, M, gamma, h)
    assert rate.prefactor == 7.0
    tr = run_synchronous_coupling(Scheme.BAOAB, ANISO, Z0, Z1, StepParams(h, gamma), 2000, seed=0)
    ok, _ = verify_trace_bound(tr)
    assert ok
    # the squared-norm bound carries prefactor 49 and exponent k - 1
    ks = np.arange(len(tr.distances))
    bound = 49.0 * (1 - rate.c) ** (ks - 1) * tr.distances[0]
    assert (tr.distances <= bound).all()


def test_lm_coupling_contracts():
    pot = PerturbedQuadratic(np.diag([2.0, 3.0]), 0.5)
    h = 0.8 * 2.0 / pot.M
    tr = run_synchronous_coupling(Scheme.LM, pot, Z0, Z1, StepParams(h, 1.0), 300, seed=3)
    ok, bad = verify_trace_bound(tr)
    assert ok, bad


@pytest.mark.parametrize("scheme", [Scheme.OVERDAMPED_EM, Scheme.LM], ids=lambda s: s.value)
def test_an_overdamped_velocity_gap_closes_in_one_step(scheme):
    # an overdamped step sets v to the shared draw, so a start velocity gap
    # counts in d_0 only; it once stalled the a = 1 distance at |vbar_0|^2 = 1
    # and broke the bound at k = 56
    pot = PerturbedQuadratic(np.diag([1.0, 1.1, 1.5, 2.3]), 0.25)
    z0 = PhaseState(np.ones(4), np.zeros(4))
    z1 = PhaseState(-np.ones(4), np.full(4, 0.5))
    tr = run_synchronous_coupling(scheme, pot, z0, z1, StepParams(0.03, 11.0), 200, seed=1)
    assert tr.distances[0] == 16.0 + 1.0
    assert verify_trace_bound(tr) == (True, None)
    assert tr.distances[-1] < 1e-3


def test_trace_csv_export(tmp_path):
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": ["kinetic_em"],
        "params": {"h": [0.1], "gamma": [4.0], "n_steps": 10, "seeds": [0]},
        "coupling": {"z0": [[-1.0, -1.0], [0.0, 0.0]], "z0_tilde": [[1.0, 1.0], [0.0, 0.0]]},
        "output": {"dir": str(tmp_path / "out")},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["couple", "--config", str(tmp_path / "cfg.json")]) == 0
    tr = run_synchronous_coupling(
        Scheme.KINETIC_EM, ANISO, Z0, Z1, StepParams(0.1, 4.0), 10, seed=0
    )
    path = tmp_path / "out" / "couple_kinetic_em_h0.10000000000000001_g4_s0.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scheme,h,gamma,seed,k,distance_sq,bound_sq"
    assert len(lines) == 12
    *_, k, d, b = lines[1].split(",")
    assert (int(k), float(d)) == (0, tr.distances[0])
    assert float(b) >= float(d)


def _reference_coupling(scheme, pot, z0, z1, params, n_steps, seed, norm):
    """The runner written as one pre-drawn (n, k, d) noise buffer, stepped
    row by row, with a single distance reduction at the end and the trace
    cut at its first non-finite distance."""
    d = pot.dim
    streams = CounterStreams(seed)
    k = noise_requirements(scheme)
    noise = np.stack([streams.normals(j, n_steps, d) for j in range(k)], axis=1)
    x, v = np.stack([z0.x, z1.x]), np.stack([z0.v, z1.v])
    xbar, vbar = [x[0] - x[1]], [v[0] - v[1]]
    if scheme is Scheme.LM:  # both chains' v is the primer, the draw before step 0
        v = np.repeat(streams.normals(k, 1, d), 2, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            z = step(scheme, pot, PhaseState(x, v), params, noise[i])
            x, v = z.x, z.v
            xbar.append(x[0] - x[1])
            vbar.append(v[0] - v[1])
        d = norm.squared(np.array(xbar), np.array(vbar))
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        return d[: bad[0] + 1], int(bad[0])
    return d, None


HIGHD = 2048
HIGHD_TARGET = QuadraticPotential.diagonal(np.linspace(1.0, 100.0, HIGHD))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_block_streamed_runner_matches_one_draw(scheme):
    rows = _BLOCK_BYTES // (8 * HIGHD)
    assert 100 > 2 * rows and 100 % rows  # n = 100 ends inside a third block
    rng = np.random.default_rng(9)
    z0 = PhaseState(rng.standard_normal(HIGHD), rng.standard_normal(HIGHD))
    z1 = PhaseState(rng.standard_normal(HIGHD), rng.standard_normal(HIGHD))
    perturbed = PerturbedQuadratic(HIGHD_TARGET, 0.5)
    # short runs on both targets, empty runs, and a forced run that
    # overflows several blocks in; the pair runs on the perturbed target, and
    # the quadratic target's runs are the difference's, on no draws
    runs = [(pot, 0.005, 30.0, n) for pot in (HIGHD_TARGET, perturbed) for n in (100, 0)]
    runs.append((HIGHD_TARGET, 1.0, 1.0, 400))
    for pot, h, gamma, n in runs:
        params = StepParams(h, gamma)
        rate = certified_rate(scheme, pot.m, pot.M, gamma, h)
        tr = run_synchronous_coupling(scheme, pot, z0, z1, params, n, seed=4, force=True)
        if pot is HIGHD_TARGET:
            ref, ref_div = zero_noise_difference(scheme, pot, z0, z1, params, n, rate.norm)
        else:
            ref, ref_div = _reference_coupling(scheme, pot, z0, z1, params, n, 4, rate.norm)
        assert np.array_equal(tr.distances, ref, equal_nan=True)
        assert tr.diverged_at == ref_div
        if h == 1.0:
            assert ref_div is not None and ref_div > 2 * rows


_rng = np.random.default_rng(5)
_ROTATION = np.linalg.qr(_rng.standard_normal((6, 6)))[0]
#: one spectrum, kept as a diagonal and rotated into a dense matrix
QUADRATIC_TARGETS = {
    "diagonal": QuadraticPotential.diagonal(np.linspace(1.0, 4.0, 6)),
    "dense": QuadraticPotential((_ROTATION * np.linspace(1.0, 4.0, 6)) @ _ROTATION.T),
}


@pytest.mark.parametrize("target", QUADRATIC_TARGETS)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_the_difference_follows_the_pair_above_its_rounding_floor(scheme, target):
    # the pair path stays tested on quadratic targets: its trace and the
    # difference's agree to ~1e-12 relative while the pair's distance is above
    # 1e-6 d_0, far above the floor its O(1) states' rounding puts under it
    pot = QUADRATIC_TARGETS[target]
    assert (pot._diag is None) == (target == "dense")
    rng = np.random.default_rng(3)
    z0 = PhaseState(rng.standard_normal(6), rng.standard_normal(6))
    z1 = PhaseState(rng.standard_normal(6), rng.standard_normal(6))
    params = StepParams(0.05, 10.0)
    point = CouplingPoint(params, 3, certified_rate(scheme, pot.m, pot.M, 10.0, 0.05))
    diff = run_coupling_batch(pot, z0, z1, [point], 400)[0].distances
    pair = run_coupling_batch(pot, z0, z1, [point], 400, pair=True)[0].distances
    assert diff[0] == pair[0]
    above = pair >= 1e-6 * pair[0]
    assert above.sum() > 100
    assert (np.abs(diff[above] - pair[above]) <= 2e-12 * pair[above]).all()


def _exact_mode_rate(scheme, lams, params):
    """1 - max_i rho(P(lam_i))^2: the squared-distance rate at which the difference
    of a coupled pair decays on the target's modes of curvature lam_i."""
    rho = max(np.abs(np.linalg.eigvals(affine_mode_map(scheme, lam, params)[0])).max() for lam in lams)
    return 1.0 - rho**2


def test_a_quadratic_rate_fit_finds_the_exact_mode_rate():
    # fig1's points: m = M = 1, h = 0.25, 600 steps.  Where the exact rate is
    # at least 1e-3 the fit is within 5e-4 of it (complex eigenvalues make the
    # trace oscillate about its decay); below, oab at gamma = 100 has a rate of
    # 1.7e-12, a 1e-9 decay over the run that its fast mode's transient swamps
    iso = QuadraticPotential.anisotropic_gaussian(1.0, 1.0)
    checked = 0
    for scheme in (Scheme.KINETIC_EM, Scheme.BAO, Scheme.OAB, Scheme.BAOAB, Scheme.OBABO, Scheme.SES):
        for gamma in (1.0, 4.0, 100.0):
            params = StepParams(0.25, gamma)
            exact = _exact_mode_rate(scheme, [1.0], params)
            tr = run_synchronous_coupling(scheme, iso, Z0, Z1, params, 600, seed=0, force=True)
            if tr.diverged or exact < 1e-3:
                continue
            assert abs(empirical_rate(positive_prefix(tr)) - exact) <= 5e-4 * exact, (scheme, gamma)
            checked += 1
    assert checked == 16  # all but oab and the diverging kinetic_em at gamma = 100
    # bao at gamma = 100, where P ~ [[1 - h^2, h], [0, 0]]: the difference follows
    # the exact rate, ~1 - (1 - h^2)^2, to rounding, where the pair's fit sits on its floor
    params = StepParams(0.25, 100.0)
    exact = _exact_mode_rate(Scheme.BAO, [1.0], params)
    assert exact == pytest.approx(1.0 - (1.0 - 0.25**2) ** 2, rel=1e-10)
    point = CouplingPoint(params, 0, certified_rate(Scheme.BAO, 1.0, 1.0, 100.0, 0.25))
    diff, pair = (run_coupling_batch(iso, Z0, Z1, [point], 600, pair=p)[0] for p in (False, True))
    assert abs(empirical_rate(positive_prefix(diff)) - exact) <= 1e-12 * exact
    assert abs(empirical_rate(positive_prefix(pair)) - exact) > 1e-3 * exact


def test_coupling_memory_does_not_grow_with_run_length(traced_peak):
    d = 512
    pot = QuadraticPotential.diagonal(np.linspace(1.0, 4.0, d))
    z0 = PhaseState(np.ones(d), np.zeros(d))
    z1 = PhaseState(-np.ones(d), np.zeros(d))
    tr, peak = traced_peak(run_synchronous_coupling, Scheme.SES, pot, z0, z1, StepParams(0.05, 10.0), 2000, 0)
    assert len(tr.distances) == 2001 and not tr.diverged
    assert peak < 8_000_000  # the whole run's noise alone is 16 MB


BATCH_D = 256
BATCH_TARGET = QuadraticPotential.diagonal(np.linspace(1.0, 100.0, BATCH_D))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_batched_runner_equals_one_point_runs(scheme):
    rows = _BLOCK_BYTES // (8 * BATCH_D * 4)
    assert 410 > 2 * rows and 410 % rows  # n = 410 ends inside a block
    rng = np.random.default_rng(9)
    z0 = PhaseState(rng.standard_normal(BATCH_D), rng.standard_normal(BATCH_D))
    z1 = PhaseState(rng.standard_normal(BATCH_D), rng.standard_normal(BATCH_D))
    # mixed h, gamma and seeds (lm primes each point from its own seed), so
    # mixed rate norms; the forced (h, gamma) = (1, 1) point overflows mid-block
    grid = [
        (StepParams(0.005, 30.0), 4),
        (StepParams(1.0, 1.0), 4),
        (StepParams(0.004, 20.0), 7),
        (StepParams(0.003, 40.0), 11),
    ]
    for pot in (BATCH_TARGET, PerturbedQuadratic(BATCH_TARGET, 0.5)):
        points = [CouplingPoint(p, seed, certified_rate(scheme, pot.m, pot.M, p.gamma, p.h)) for p, seed in grid]
        for n in (410, 0):
            traces = run_coupling_batch(pot, z0, z1, points, n)
            for p, tr in zip(points, traces):
                one = run_synchronous_coupling(scheme, pot, z0, z1, p.params, n, p.seed, force=True)
                assert np.array_equal(tr.distances, one.distances, equal_nan=True)
                assert tr.diverged_at == one.diverged_at
            div = traces[1].diverged_at
            if n:
                assert div is not None and div % rows  # diverged inside a block ...
                assert [tr.diverged_at for tr in traces] == [None, div, None, None]
                assert [len(tr.distances) for tr in traces] == [n + 1, div + 1, n + 1, n + 1]  # ... the others ran on


def _assert_constant_layout(points, z0, z1) -> dict[Scheme, set[type]]:
    """Check each batch's step constants: a float where the batch's points share it
    bit for bit, else a C-contiguous array of the states' shape (B, 2, d) holding
    each point's value.  Returns the kinds of constant each scheme's batch holds."""
    kinds = {}
    for scheme in dict.fromkeys(p.rate.scheme for p in points):
        pts = [p for p in points if p.rate.scheme is scheme]
        batch = coupling._Batch(scheme, range(len(pts)), pts, z0, z1, {})
        cols = list(zip(*(_coefficients(scheme, p.params) for p in pts)))
        assert len(batch.coefs) == len(cols)
        for const, col in zip(batch.coefs, cols):
            if len({c.hex() for c in col}) == 1:
                assert type(const) is float and const.hex() == col[0].hex()
            else:
                assert const.shape == (len(pts), 2, z0.dim) and const.flags.c_contiguous
                assert np.array_equal(const, np.broadcast_to(np.array(col)[:, None, None], const.shape))
        kinds[scheme] = {type(c) for c in batch.coefs}
    return kinds


def test_mixed_scheme_run_equals_one_point_runs():
    rows = _BLOCK_BYTES // (8 * BATCH_D * 4)  # from the largest batch, 4 points
    assert 410 > 2 * rows and 410 % rows  # n = 410 ends inside a block
    rng = np.random.default_rng(9)
    z0 = PhaseState(rng.standard_normal(BATCH_D), rng.standard_normal(BATCH_D))
    z1 = PhaseState(rng.standard_normal(BATCH_D), rng.standard_normal(BATCH_D))
    # every scheme but ses and baoab reads seeds 4 and 7 at four h values, and has one
    # seed of its own (lm primes each point from its seed): every step constant varies,
    # so each is an array; the forced (1, 1) point overflows mid-block.  ses's batch is
    # two seeds at the forced (1, 1), on streams no other point reads, so every constant
    # is a float and the batch stops while the rest run on.  baoab's batch is one h at
    # two gammas: its drift and kick constants are floats, its O constants arrays
    shared = [(StepParams(0.005, 30.0), 4), (StepParams(1.0, 1.0), 4), (StepParams(0.004, 20.0), 7)]
    for pot in (BATCH_TARGET, PerturbedQuadratic(BATCH_TARGET, 0.5)):
        points = []
        for i, scheme in enumerate(Scheme):
            grid = {
                Scheme.SES: [(StepParams(1.0, 1.0), 99), (StepParams(1.0, 1.0), 98)],
                Scheme.BAOAB: [(StepParams(0.005, 30.0), 4), (StepParams(0.005, 40.0), 100 + i)],
            }.get(scheme, shared + [(StepParams(0.003, 40.0), 100 + i)])
            points += [CouplingPoint(p, seed, certified_rate(scheme, pot.m, pot.M, p.gamma, p.h)) for p, seed in grid]
        points = [points[j] for j in rng.permutation(len(points))]  # the batches interleave
        kinds = _assert_constant_layout(points, z0, z1)
        assert kinds.pop(Scheme.SES) == {float} and kinds.pop(Scheme.BAOAB) == {float, np.ndarray}
        assert all(k == {np.ndarray} for k in kinds.values())
        for n in (410, 0):
            traces = run_coupling_batch(pot, z0, z1, points, n)
            for p, tr in zip(points, traces):
                one = run_synchronous_coupling(p.rate.scheme, pot, z0, z1, p.params, n, p.seed, force=True)
                assert tr.point is p
                assert np.array_equal(tr.distances, one.distances, equal_nan=True)
                assert tr.diverged_at == one.diverged_at
            if n:
                forced = [tr for tr in traces if tr.point.params.h == 1.0]
                assert len(forced) == len(Scheme) and all(tr.diverged_at % rows for tr in forced)
                assert all(len(tr.distances) == n + 1 for tr in traces if tr.point.params.h < 1.0)


def test_signed_zeros_are_different_step_constants():
    # 0.0 == -0.0, but a step could keep the sign: only bit-equal values make one float
    assert coupling._constant((0.0, 0.0), (2, 2, 3)) == 0.0
    assert coupling._constant((0.0, -0.0), (2, 2, 3)).shape == (2, 2, 3)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_a_state_of_another_dimension_is_a_coupling_error(monkeypatch, scheme):
    def no_draw(*args):
        raise AssertionError("drew noise before checking the states")

    monkeypatch.setattr(CounterStreams, "generator", no_draw)
    monkeypatch.setattr(CounterStreams, "normals", no_draw)
    pot = PerturbedQuadratic(QuadraticPotential.diagonal([1.0, 2.0, 3.0, 4.0]), 0.2)
    z4, z3 = PhaseState(np.ones(4), np.zeros(4)), PhaseState(np.ones(3), np.zeros(3))
    stacked = PhaseState(np.ones((2, 4)), np.zeros((2, 4)))  # a batch of states is not one state
    for a, b in ((z3, z3), (z4, z3), (z3, z4), (stacked, stacked)):
        with pytest.raises(CouplingError, match=r"potential's shape \(4,\)"):
            run_synchronous_coupling(scheme, pot, a, b, StepParams(0.01, 20.0), 5, seed=0, force=True)


def test_a_run_makes_one_generator_per_stream(monkeypatch):
    made, primed = [], []
    generator, normals = CounterStreams.generator, CounterStreams.normals

    def counting_generator(self, substream):
        made.append((self.seed, substream))
        return generator(self, substream)

    def counting_normals(self, substream, n, dim):
        primed.append((self.seed, substream, n))
        return normals(self, substream, n, dim)

    monkeypatch.setattr(CounterStreams, "generator", counting_generator)
    monkeypatch.setattr(CounterStreams, "normals", counting_normals)
    # one and two draws per step, at seeds 3 (two points) and 8, on a perturbed
    # target: the pair path, the one that draws
    pot = PerturbedQuadratic(ANISO, 0.25)
    grid = [(StepParams(0.01, 30.0), 3), (StepParams(0.02, 30.0), 3), (StepParams(0.01, 20.0), 8)]
    schemes = (Scheme.KINETIC_EM, Scheme.OBABO, Scheme.SES, Scheme.LM)
    points = [CouplingPoint(p, seed, certified_rate(s, pot.m, pot.M, p.gamma, p.h)) for s in schemes for p, seed in grid]
    traces = run_coupling_batch(pot, Z0, Z1, points, 3 * _BLOCK_BYTES // (8 * pot.dim * 3) + 5)
    assert all(not tr.diverged for tr in traces)
    # lm primes each point from row 0 of substream 1, through normals and its own generator
    assert primed == [(3, 1, 1), (3, 1, 1), (8, 1, 1)]
    assert sorted(made) == sorted([(3, 0), (3, 1), (8, 0), (8, 1)] + [(3, 1), (3, 1), (8, 1)])


def test_an_all_quadratic_run_draws_nothing(monkeypatch):
    # every scheme, lm's primer included: no generator, so no noise buffer to fill
    made = []
    generator = CounterStreams.generator

    def counting_generator(self, substream):
        made.append((self.seed, substream))
        return generator(self, substream)

    monkeypatch.setattr(CounterStreams, "generator", counting_generator)
    points = [
        CouplingPoint(StepParams(0.01, 30.0), seed, certified_rate(s, ANISO.m, ANISO.M, 30.0, 0.01))
        for s in Scheme
        for seed in (3, 8)
    ]
    traces = run_coupling_batch(ANISO, Z0, Z1, points, 3 * _BLOCK_BYTES // (8 * ANISO.dim * 2) + 5)
    assert all(not tr.diverged for tr in traces) and made == []
    run_coupling_batch(PerturbedQuadratic(ANISO, 0.25), Z0, Z1, points[:1], 5)
    assert made == [(3, 0)]  # the counting reaches the pair path's one stream


#: bad arguments of a coupled run: each raises the same error, whatever the target
BAD_RUNS = {
    "seed -1": dict(seed=-1),
    "seed True": dict(seed=True),
    "seed 2**64": dict(seed=2**64),
    "seed 1.5": dict(seed=1.5),
    "n_steps -1": dict(n_steps=-1),
    "x of another shape": dict(z0=PhaseState(np.zeros(3), np.zeros(3))),
    "a batch of states": dict(z0_tilde=PhaseState(np.zeros((2, 2)), np.zeros((2, 2)))),
}


@pytest.mark.parametrize("bad", BAD_RUNS)
@pytest.mark.parametrize("scheme", [Scheme.KINETIC_EM, Scheme.LM, Scheme.OBABO], ids=lambda s: s.value)
def test_a_bad_run_raises_the_same_error_on_both_paths(monkeypatch, scheme, bad):
    # the difference path draws nothing, but checks each seed as the pair path does
    def no_draw(*args):
        raise AssertionError("drew noise before checking the arguments")

    monkeypatch.setattr(CounterStreams, "generator", no_draw)
    errors = []
    for pot in (ANISO, PerturbedQuadratic(ANISO, 0.25)):
        kwargs = dict(z0=Z0, z0_tilde=Z1, params=StepParams(0.05, 10.0), n_steps=10, seed=0) | BAD_RUNS[bad]
        with pytest.raises(CouplingError) as info:
            run_synchronous_coupling(scheme, pot, force=True, **kwargs)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_a_mixed_run_keeps_one_set_of_block_buffers(traced_peak):
    d = 512
    pot = QuadraticPotential.diagonal(np.linspace(1.0, 4.0, d))
    z0 = PhaseState(np.ones(d), np.zeros(d))
    z1 = PhaseState(-np.ones(d), np.zeros(d))
    schemes = (Scheme.KINETIC_EM, Scheme.BAO, Scheme.BAOAB, Scheme.OBABO, Scheme.SES, Scheme.LM)
    points = [CouplingPoint(StepParams(0.05, 10.0), 0, certified_rate(s, pot.m, pot.M, 10.0, 0.05)) for s in schemes]

    def peak(pts):
        return traced_peak(run_coupling_batch, pot, z0, z1, pts, 200)[1]

    run_coupling_batch(pot, z0, z1, points, 10)  # numpy's first-call allocations stay out of the peaks
    # the batches share the noise buffer and the block's state buffers, sized for the largest batch
    assert peak(points) <= 1.25 * max(peak([p]) for p in points)


def test_batched_runner_stops_once_every_point_diverged(monkeypatch):
    iso = QuadraticPotential.anisotropic_gaussian(1.0, 1.0)
    scheme = Scheme.KINETIC_EM
    grid = [(StepParams(0.25, 100.0), 0), (StepParams(0.3, 100.0), 1), (StepParams(0.25, 100.0), 5)]
    points = [CouplingPoint(p, seed, certified_rate(scheme, iso.m, iso.M, p.gamma, p.h)) for p, seed in grid]
    rows = _BLOCK_BYTES // (8 * iso.dim * len(points))
    calls = []
    step_core = coupling._step_core

    def counting_step_core(*args):
        calls.append(1)
        return step_core(*args)

    monkeypatch.setattr(coupling, "_step_core", counting_step_core)
    traces = run_coupling_batch(iso, Z0, Z1, points, 10 * rows)
    assert len(calls) <= rows  # the first block, not the 10 * rows asked for
    for p, tr in zip(points, traces):
        assert tr.point is p
        assert tr.diverged_at is not None and tr.diverged_at < rows
        assert len(tr.distances) == tr.diverged_at + 1 and not np.isfinite(tr.distances[-1])
    assert len({tr.diverged_at for tr in traces}) > 1


class CountingTarget(Potential):
    """diag(1, 4) quadratic counting its gradient evaluations."""

    def __init__(self):
        super().__init__(2, 1.0, 4.0)
        self.calls = 0

    def value(self, x):
        return 0.5 * np.sum(x * self.gradient(x), axis=-1)

    def gradient(self, x):
        self.calls += 1
        return np.array([1.0, 4.0]) * x


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_symmetric_splittings_reuse_the_end_of_step_gradient(scheme):
    kicks = 2 if scheme in (Scheme.BAOAB, Scheme.OBABO) else 1
    params, n = StepParams(0.1, 4.0), 25
    pot = CountingTarget()
    run_synchronous_coupling(scheme, pot, Z0, Z1, params, n, seed=0, force=True)
    assert pot.calls == (n + 1 if kicks == 2 else n)
    # a batch of points makes one gradient call per step for all of them
    pot.calls = 0
    rate = certified_rate(scheme, pot.m, pot.M, params.gamma, params.h)
    points = [CouplingPoint(params, seed, rate) for seed in (0, 1, 2)]
    run_coupling_batch(pot, Z0, Z1, points, n)
    assert pot.calls == (n + 1 if kicks == 2 else n)
    # step() carries nothing from one call to the next: each call kicks afresh
    pot.calls = 0
    xi = np.ones((noise_requirements(scheme), 2))
    a = step(scheme, pot, Z0, params, xi)
    b = step(scheme, pot, Z0, params, xi)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    assert pot.calls == 2 * kicks
