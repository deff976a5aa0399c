import math
from types import SimpleNamespace

import numpy as np
import pytest

from langevin_contract.certificates import step_matrix, transition_matrix_P
from langevin_contract.coupling import CounterStreams
from langevin_contract.integrators import (
    _CHAIN_BLOCK,
    _CHAIN_CHUNK,
    KINETIC_SCHEMES,
    SPLITTING_WORDS,
    IntegratorError,
    PhaseState,
    Scheme,
    StepParams,
    affine_mode_map,
    noise_requirements,
    ses_covariance,
    simulate_mode_chain,
    step,
)
from langevin_contract.potentials import Potential, QuadraticPotential
from oracles import FIRST_ORDER_SPLITTINGS, symbolic_word_P, whole_array_mode_chain


class ZeroForce(Potential):
    """grad U == 0 stand-in for free-dynamics checks."""

    def __init__(self, dim=2):
        super().__init__(dim, 1.0, 1.0)

    def value(self, x):
        return np.zeros(np.asarray(x).shape[:-1])

    def gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def params():
    return StepParams(0.1, 4.0)


def state(x=(1.0, -2.0), v=(0.5, 0.25)):
    return PhaseState(np.array(x, dtype=float), np.array(v, dtype=float))


def zero_noise(scheme, dim=2):
    return np.zeros((noise_requirements(scheme), dim))


def test_noise_requirements():
    assert noise_requirements(Scheme.BAOAB) == 1
    assert noise_requirements(Scheme.OBABO) == 2
    # one correlated (zeta, omega) pair is built from two raw draws
    assert noise_requirements(Scheme.SES) == 2
    for s in (Scheme.OVERDAMPED_EM, Scheme.LM, Scheme.KINETIC_EM, *FIRST_ORDER_SPLITTINGS):
        assert noise_requirements(s) == 1


def test_sub_steps_identities():
    # zero force and zero noise: B pieces are identities, A pieces leave x
    # alone at zero velocity, and the O pieces of every splitting damp v by
    # exp(-gamma h) in total
    p = params()
    for scheme in SPLITTING_WORDS:
        still = step(scheme, ZeroForce(), state(v=(0.0, 0.0)), p, zero_noise(scheme))
        assert np.array_equal(still.x, state().x) and np.array_equal(still.v, np.zeros(2))
        moving = step(scheme, ZeroForce(), state(), p, zero_noise(scheme))
        assert np.allclose(moving.v, p.eta * state().v, rtol=1e-14, atol=0.0), scheme


def test_step_params_validation():
    for h, gamma in ((0.0, 1.0), (-0.1, 1.0), (0.1, 0.0)):
        with pytest.raises(IntegratorError):
            StepParams(h, gamma)


def test_kinetic_em_free_dynamics():
    z = step(Scheme.KINETIC_EM, ZeroForce(), state(), params(), zero_noise(Scheme.KINETIC_EM))
    assert np.allclose(z.x, state().x + 0.1 * state().v)
    assert np.allclose(z.v, (1 - 4.0 * 0.1) * state().v)


def test_baoab_matches_merged_update():
    # merged one-step form of B(h/2) A(h/2) O(h) A(h/2) B(h/2)
    pot = QuadraticPotential.diagonal([1.0, 3.0])
    p = params()
    eta = p.eta
    z0 = state()
    xi = np.array([[0.3, -1.2]])
    z1 = step(Scheme.BAOAB, pot, z0, p, xi)
    h = p.h
    x1 = (
        z0.x
        + 0.5 * h * (1 + eta) * z0.v
        - 0.25 * h * h * (1 + eta) * pot.gradient(z0.x)
        + 0.5 * h * math.sqrt(1 - eta * eta) * xi[0]
    )
    v1 = (
        eta * (z0.v - 0.5 * h * pot.gradient(z0.x))
        + math.sqrt(1 - eta * eta) * xi[0]
        - 0.5 * h * pot.gradient(x1)
    )
    assert np.allclose(z1.x, x1, atol=1e-14)
    assert np.allclose(z1.v, v1, atol=1e-14)


def test_obabo_matches_merged_update():
    pot = QuadraticPotential.diagonal([1.0, 3.0])
    p = params()
    eta = math.exp(-p.gamma * p.h / 2.0)
    z0 = state()
    xi = np.array([[0.3, -1.2], [0.9, 0.1]])
    z1 = step(Scheme.OBABO, pot, z0, p, xi)
    h = p.h
    s = math.sqrt(1 - eta * eta)
    x1 = z0.x + h * eta * z0.v + h * s * xi[0] - 0.5 * h * h * pot.gradient(z0.x)
    v1 = (
        eta * (eta * z0.v + s * xi[0] - 0.5 * h * pot.gradient(z0.x) - 0.5 * h * pot.gradient(x1))
        + s * xi[1]
    )
    assert np.allclose(z1.x, x1, atol=1e-14)
    assert np.allclose(z1.v, v1, atol=1e-14)


def test_ses_zero_force_zero_noise():
    p = params()
    z = step(Scheme.SES, ZeroForce(), state(), p, zero_noise(Scheme.SES))
    eta = p.eta
    assert np.allclose(z.x, state().x + (1 - eta) / p.gamma * state().v)
    assert np.allclose(z.v, eta * state().v)


def test_lm_requires_and_uses_prev_noise():
    pot = QuadraticPotential.diagonal([1.0, 2.0])
    with pytest.raises(IntegratorError):
        step(Scheme.LM, pot, state(), params(), zero_noise(Scheme.LM))
    xi = np.array([[1.0, 0.0]])
    prev = np.array([0.5, -0.5])
    z = step(Scheme.LM, pot, state(), params(), xi, prev_noise=prev)
    expected = (
        state().x
        - 0.1 * pot.gradient(state().x)
        + math.sqrt(0.2) * 0.5 * (xi[0] + prev)
    )
    assert np.allclose(z.x, expected, atol=1e-15)
    assert np.array_equal(z.v, state().v)


def test_wrong_noise_arity_rejected():
    pot = QuadraticPotential.diagonal([1.0, 2.0])
    with pytest.raises(IntegratorError):
        step(Scheme.OBABO, pot, state(), params(), np.zeros((1, 2)))
    with pytest.raises(IntegratorError):
        step(Scheme.BAO, pot, state(), params(), np.zeros((2, 2)))
    with pytest.raises(IntegratorError):
        step(Scheme.BAO, pot, state(), params(), np.zeros((1, 3)))


def test_determinism():
    pot = QuadraticPotential.diagonal([1.0, 2.0])
    xi = np.array([[0.3, -0.7]])
    a = step(Scheme.BAOAB, pot, state(), params(), xi)
    b = step(Scheme.BAOAB, pot, state(), params(), xi)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)


@pytest.mark.parametrize("scheme", [s for s in Scheme if s is not Scheme.LM])
def test_noise_cancellation_under_shared_draws(scheme):
    # the difference of two states stepped on common noise does not depend
    # on the noise values: the synchronous-coupling cornerstone
    pot = QuadraticPotential.diagonal([1.0, 2.0])
    rng = np.random.default_rng(0)
    za, zb = state(), state(x=(0.0, 1.0), v=(-1.0, 0.2))
    diffs = []
    for _ in range(2):
        xi = rng.standard_normal((noise_requirements(scheme), 2))
        fa = step(scheme, pot, za, params(), xi)
        fb = step(scheme, pot, zb, params(), xi)
        diffs.append(np.concatenate([fa.x - fb.x, fa.v - fb.v]))
    assert np.allclose(diffs[0], diffs[1], atol=1e-12)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_difference_process_matches_step_matrix(scheme):
    # 1-d quadratic with curvature lam: the coupled difference evolves by
    # the exact 2x2 one-step matrix, cross-checked to 1e-12
    lam = 2.7
    pot = QuadraticPotential(np.array([[lam]]))
    p = StepParams(0.17, 1.9)
    rng = np.random.default_rng(1)
    xi = rng.standard_normal((noise_requirements(scheme), 1))
    prev = rng.standard_normal(1) if scheme is Scheme.LM else None
    za = PhaseState(np.array([0.4]), np.array([-0.3]))
    zb = PhaseState(np.array([-1.1]), np.array([0.9]))
    fa = step(scheme, pot, za, p, xi, prev_noise=prev)
    fb = step(scheme, pot, zb, p, xi, prev_noise=prev)
    got = np.array([fa.x[0] - fb.x[0], fa.v[0] - fb.v[0]])
    want = step_matrix(scheme, lam, p) @ np.array([za.x[0] - zb.x[0], za.v[0] - zb.v[0]])
    assert np.abs(got - want).max() <= 1e-12


# references for the mode matrices read off the step core, typed
# independently of it: the paper's hand blocks of the single-kick schemes
# and the product of the 2x2 piece matrices of a splitting's word


def _hand_block(scheme, lam, p):
    h, g, eta = p.h, p.gamma, p.eta
    if scheme is Scheme.KINETIC_EM:
        return np.array([[1.0, h], [-h * lam, 1.0 - g * h]])
    if scheme is Scheme.BAO:
        return np.array([[1.0 - h * h * lam, h], [-h * eta * lam, eta]])
    if scheme is Scheme.OAB:
        return np.array([[1.0, h * eta], [-h * lam, eta - h * h * eta * lam]])
    assert scheme is Scheme.SES
    al = -math.expm1(-g * h) / g
    be = (g * h + math.expm1(-g * h)) / g**2
    return np.array([[1.0 - be * lam, al], [-al * lam, eta]])


def _word_composition(scheme, lam, p):
    out = np.eye(2)
    for piece, frac in SPLITTING_WORDS[scheme]:
        tau = frac * p.h
        if piece == "B":
            op = np.array([[1.0, 0.0], [-tau * lam, 1.0]])
        elif piece == "A":
            op = np.array([[1.0, tau], [0.0, 1.0]])
        else:
            op = np.array([[1.0, 0.0], [0.0, math.exp(-p.gamma * tau)]])
        out = op @ out  # operators apply left to right
    return out


def _mode_draws(seed):
    rng = np.random.default_rng(seed)
    for _ in range(500):
        lam = 10 ** rng.uniform(-2, 3)
        yield lam, StepParams(10 ** rng.uniform(-4, 0.5), 10 ** rng.uniform(-1, 4))


def _assert_close_to_reference(got, want):
    # rtol 1e-13, with a floor at 1e-13 of the largest entry for the entries
    # that cancel (1 - h^2 lam near h^2 lam = 1)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("scheme", list(SPLITTING_WORDS), ids=lambda s: s.value)
def test_step_matrix_matches_word_composition(scheme):
    for lam, p in _mode_draws(5):
        want = _word_composition(scheme, lam, p)
        _assert_close_to_reference(step_matrix(scheme, lam, p), want)
        _assert_close_to_reference(affine_mode_map(scheme, lam, p)[0], want)


@pytest.mark.parametrize(
    "scheme", [Scheme.KINETIC_EM, Scheme.BAO, Scheme.OAB, Scheme.SES], ids=lambda s: s.value
)
def test_mode_matrices_match_hand_blocks(scheme):
    # kinetic_em and ses round exactly as their hand blocks; the bao and oab
    # blocks multiply h * h first where the step kicks, then drifts
    for lam, p in _mode_draws(6):
        want = _hand_block(scheme, lam, p)
        P, _ = affine_mode_map(scheme, lam, p)
        for got in (transition_matrix_P(scheme, lam, p), step_matrix(scheme, lam, p), P):
            if scheme in (Scheme.KINETIC_EM, Scheme.SES):
                assert np.array_equal(got, want), (lam, p)
            else:
                _assert_close_to_reference(got, want)


def test_certificate_block_shares_spectrum_with_composition():
    # baoab/obabo blocks are cyclic rearrangements of the full step
    p = StepParams(0.13, 2.5)
    for scheme in (Scheme.BAOAB, Scheme.OBABO):
        a = np.sort_complex(np.linalg.eigvals(transition_matrix_P(scheme, 1.7, p)))
        b = np.sort_complex(np.linalg.eigvals(step_matrix(scheme, 1.7, p)))
        assert np.allclose(a, b, atol=1e-13)


def test_symbolic_splitting_words():
    # every word damps the phase volume by exactly exp(-gamma h), and the six
    # first-order words kick once, so their P is affine in lam; baoab and obabo
    # kick twice, which is why their certificate blocks are conjugate words
    import sympy as sp
    lam, h, g = sp.symbols("lam h gamma", positive=True)
    for word in SPLITTING_WORDS:
        P = symbolic_word_P(word, lam, h, g)
        assert sp.simplify(P.det() - sp.exp(-g * h)) == 0, word
        degree = max(sp.degree(sp.expand(p), lam) for p in P)
        assert degree == (1 if word in FIRST_ORDER_SPLITTINGS else 2), word


def test_hand_blocks_equal_rotated_words(monkeypatch):
    # transition_matrix_P's baoab and obabo blocks are the rotated words
    # A(1/2) B(1) A(1/2) O(1) and A(1) B(1/2) O(1) B(1/2), exactly
    import sympy as sp
    lam, h, g = sp.symbols("lam h gamma", positive=True)
    rotated = {
        Scheme.BAOAB: (("A", 0.5), ("B", 1.0), ("A", 0.5), ("O", 1.0)),
        Scheme.OBABO: (("A", 1.0), ("B", 0.5), ("O", 1.0), ("B", 0.5)),
    }
    symbolic = SimpleNamespace(h=h, eta=sp.exp(-g * h))  # StepParams takes floats only
    for scheme, word in rotated.items():
        monkeypatch.setitem(SPLITTING_WORDS, f"rotated_{scheme.value}", word)
        want = symbolic_word_P(f"rotated_{scheme.value}", lam, h, g)
        hand = sp.nsimplify(sp.Matrix(transition_matrix_P(scheme, lam, symbolic).tolist()), rational=True)
        assert sp.simplify(hand - want) == sp.zeros(2, 2), scheme


def _ses_draw(p, xi):
    """The correlated SES (zeta, omega) draw of the raw pair ``xi`` (shape
    (2, d)): one SES step from the origin of a quadratic target, where the
    drift and the kick vanish."""
    d = xi.shape[-1]
    origin = PhaseState(np.zeros(d), np.zeros(d))
    z = step(Scheme.SES, QuadraticPotential.diagonal(np.ones(d)), origin, p, xi)
    return z.x, z.v


def test_ses_noise_zero_draw():
    z, w = _ses_draw(params(), np.zeros((2, 3)))
    assert np.array_equal(z, np.zeros(3)) and np.array_equal(w, np.zeros(3))


def test_infinite_friction_without_finite_constants_raises():
    # gamma = inf is only meaningful where every step constant has a finite
    # limit; elsewhere it must not come back as nan
    p = StepParams(0.1, math.inf)
    with pytest.raises(IntegratorError):
        ses_covariance(p)
    with pytest.raises(IntegratorError):
        step_matrix(Scheme.KINETIC_EM, 1.0, p)
    with pytest.raises(IntegratorError):
        step(Scheme.KINETIC_EM, QuadraticPotential.diagonal([1.0, 2.0]), state(), p, np.ones((1, 2)))
    # bao's limit constants are finite: its gamma = inf map is x' = x + h v, v' = 0
    assert np.array_equal(step_matrix(Scheme.BAO, 1.0, p), [[1.0 - 0.1 * 0.1, 0.1], [0.0, 0.0]])


def test_ses_covariance_small_gamma_h_limits():
    # leading order: var_vel -> 2 gamma h, cov -> gamma h^2
    g, h = 2.0, 1e-4
    var_pos, var_vel, cov = ses_covariance(StepParams(h, g))
    assert var_vel == pytest.approx(2 * g * h, rel=2 * g * h)
    assert cov == pytest.approx(g * h * h, rel=2 * g * h)
    # var_pos leading order 2 gamma h^3 / 3
    assert var_pos == pytest.approx(2 * g * h**3 / 3, rel=1e-3)


def test_ses_covariance_series_matches_quadrature():
    # independent oracle: Ito-isometry integrals by numerical quadrature
    for g, h in [(2.0, 0.1), (9.0, 0.05), (1.0, 1e-3)]:
        var_pos, var_vel, cov = ses_covariance(StepParams(h, g))
        s = np.linspace(0.0, h, 20001)
        kv = np.exp(-g * (h - s)) * math.sqrt(2 * g)
        kx = (1 - np.exp(-g * (h - s))) / g * math.sqrt(2 * g)
        assert var_vel == pytest.approx(np.trapezoid(kv * kv, s), rel=1e-6)
        assert var_pos == pytest.approx(np.trapezoid(kx * kx, s), rel=1e-6)
        assert cov == pytest.approx(np.trapezoid(kx * kv, s), rel=1e-6)


def test_ses_noise_monte_carlo_covariance():
    # 1e6 pairs at gamma=2, h=0.1: sample moments within 3 standard errors
    g, h = 2.0, 0.1
    p = StepParams(h, g)
    var_pos, var_vel, cov = ses_covariance(p)
    n = 1_000_000
    rng = np.random.default_rng(42)
    z, w = _ses_draw(p, rng.standard_normal((2, n)))
    se_pos = var_pos * math.sqrt(2.0 / n)
    se_vel = var_vel * math.sqrt(2.0 / n)
    se_cov = math.sqrt((var_pos * var_vel + cov * cov) / n)
    assert abs(np.var(z) - var_pos) <= 3 * se_pos
    assert abs(np.var(w) - var_vel) <= 3 * se_vel
    assert abs(np.mean(z * w) - cov) <= 3 * se_cov


#: every scheme with a memoryless affine mode map
CHAIN_SCHEMES = (*KINETIC_SCHEMES, Scheme.OVERDAMPED_EM)


def _reference_simulate_mode_chain(scheme, lam, params, x0, v0, noise):
    """The scalar loop that :func:`simulate_mode_chain` replaced: one step of
    the affine map at a time, on Python floats."""
    P, N = affine_mode_map(scheme, lam, params)
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2 or noise.shape[1] != N.shape[1]:
        raise IntegratorError(f"noise must have shape (n, {N.shape[1]}), got {noise.shape}")
    p00, p01 = float(P[0, 0]), float(P[0, 1])
    p10, p11 = float(P[1, 0]), float(P[1, 1])
    ncols = [[float(N[0, j]), float(N[1, j])] for j in range(N.shape[1])]
    xs = np.empty(noise.shape[0] + 1)
    x, v = float(x0), float(v0)
    xs[0] = x
    rows = noise.tolist()
    for i, row in enumerate(rows):
        nx = p00 * x + p01 * v
        nv = p10 * x + p11 * v
        for (n0, n1), w in zip(ncols, row):
            nx += n0 * w
            nv += n1 * w
        x, v = nx, nv
        xs[i + 1] = x
    if not math.isfinite(x) or not math.isfinite(v):
        raise IntegratorError("chain diverged to non-finite state")
    return xs


def _spectral_radius(scheme, P):
    # overdamped_em carries v unchanged, so the eigenvalue 1 of its P says nothing
    if scheme is Scheme.OVERDAMPED_EM:
        return abs(P[0, 0])
    return max(abs(np.linalg.eigvals(P)))


@pytest.mark.parametrize("scheme", CHAIN_SCHEMES, ids=lambda s: s.value)
def test_simulate_mode_chain_matches_the_loop_reference(scheme):
    # blocked and looped arithmetic round differently: agreement to 1e-12 of
    # the chain's scale, at every block-edge length and near rho(P) = 1, where
    # the carry by P^B repeats its rounding n/B times
    rng = np.random.default_rng(CHAIN_SCHEMES.index(scheme))
    k = noise_requirements(scheme)
    lam = rng.uniform(0.5, 4.0)
    near_unit = StepParams(5e-4 / lam, 0.01)
    P, _ = affine_mode_map(scheme, lam, near_unit)
    assert 1.0 - 1e-3 <= _spectral_radius(scheme, P) < 1.0
    # h lam <= 0.1 < gamma keeps kinetic_em and overdamped_em stable too
    damped = StepParams(rng.uniform(0.01, 0.1) / lam, rng.uniform(0.5, 5.0))
    B = _CHAIN_BLOCK
    for p in (near_unit, damped):
        for n in (0, 1, B - 1, B, B + 1, 1000, 100_003):
            x0, v0 = rng.normal(size=2)
            noise = rng.standard_normal((n, k))
            xs = simulate_mode_chain(scheme, lam, p, x0, v0, noise)
            ref = _reference_simulate_mode_chain(scheme, lam, p, x0, v0, noise)
            assert xs.shape == ref.shape == (n + 1,)
            assert np.max(np.abs(xs - ref)) <= 1e-12 * np.max(np.abs(ref)), (p, n)


@pytest.mark.parametrize("scheme", CHAIN_SCHEMES, ids=lambda s: s.value)
def test_simulate_mode_chain_equals_the_whole_array_chain(scheme):
    # walking the blocks in chunks changes no arithmetic: bit-identical at
    # both sides of every block edge and chunk edge, near rho(P) = 1 and damped
    rng = np.random.default_rng(100 + CHAIN_SCHEMES.index(scheme))
    k = noise_requirements(scheme)
    lam = rng.uniform(0.5, 4.0)
    B, C = _CHAIN_BLOCK, _CHAIN_CHUNK * _CHAIN_BLOCK
    for p in (StepParams(5e-4 / lam, 0.01), StepParams(rng.uniform(0.01, 0.1) / lam, rng.uniform(0.5, 5.0))):
        for n in (0, 1, B - 1, B, B + 1, C - 1, C, C + 1, 2 * C + 1, 100_003):
            x0, v0 = rng.normal(size=2)
            noise = rng.standard_normal((n, k))
            xs = simulate_mode_chain(scheme, lam, p, x0, v0, noise)
            assert np.array_equal(xs, whole_array_mode_chain(scheme, lam, p, x0, v0, noise)), (p, n)


def test_simulate_mode_chain_raises_where_it_diverges():
    # BAOAB is unstable at h = 2.5 on a unit mode; the overflow warns nowhere
    noise = CounterStreams(13).normals(0, 100_000, 1)
    with pytest.raises(IntegratorError, match="non-finite"):
        simulate_mode_chain(Scheme.BAOAB, 1.0, StepParams(2.5, 2.0), 0.3, -0.2, noise)


def test_simulate_mode_chain_finite_end_before_an_overflowing_tail():
    # kinetic_em at h = 1e6 grows ~1e6-fold a step: z_40 is finite, though
    # continuing to the end of its block of steps would overflow
    p = StepParams(1e6, 0.01)
    noise = CounterStreams(13).normals(0, 40, 1)
    xs = simulate_mode_chain(Scheme.KINETIC_EM, 1.0, p, 0.3, -0.2, noise)
    ref = _reference_simulate_mode_chain(Scheme.KINETIC_EM, 1.0, p, 0.3, -0.2, noise)
    assert np.isfinite(xs).all() and abs(xs[-1]) > 1e200
    assert np.max(np.abs(xs - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_simulate_mode_chain_start_and_non_finite_start():
    xs = simulate_mode_chain(Scheme.BAOAB, 1.0, params(), 0.3, -0.2, np.zeros((0, 1)))
    assert xs.tolist() == [0.3]
    for x0, v0 in ((math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)):
        for n in (0, 5, 40):
            with pytest.raises(IntegratorError, match="non-finite"):
                simulate_mode_chain(Scheme.BAOAB, 1.0, params(), x0, v0, np.zeros((n, 1)))


def test_simulate_mode_chain_peak_memory_per_step(traced_peak):
    # the output's 8 (n + 1) bytes and one chunk's buffers (about 0.6 MB at
    # any n); the whole-array chain held ~25 bytes a step more, 2.7 MB at n = 10^5
    for n in (100_000, 1_000_000):
        noise = CounterStreams(7).normals(0, n, 2)
        _, peak = traced_peak(simulate_mode_chain, Scheme.OBABO, 1.0, StepParams(0.1, 2.0), 0.0, 0.0, noise)
        assert peak <= 8 * (n + 1) + 2**20, n


def test_simulate_mode_chain_matches_stepping():
    pot = QuadraticPotential(np.array([[1.3]]))
    p = StepParams(0.05, 2.0)
    n = 300
    for scheme in CHAIN_SCHEMES:
        noise = CounterStreams(11).normals(0, n, noise_requirements(scheme))
        xs = simulate_mode_chain(scheme, 1.3, p, 0.3, -0.2, noise)
        z = PhaseState(np.array([0.3]), np.array([-0.2]))
        for i in range(n):
            z = step(scheme, pot, z, p, noise[i][:, None])
            assert xs[i + 1] == pytest.approx(z.x[0], abs=1e-12)


def test_stationary_variance_short_run():
    # scaled-down stationarity check; the full-length run lives in the
    # acceptance suite
    p = StepParams(0.05, 2.0)
    noise = CounterStreams(5).normals(0, 100_000, 1)
    xs = simulate_mode_chain(Scheme.BAOAB, 1.0, p, 0.0, 0.0, noise)
    assert np.var(xs[1000:]) == pytest.approx(1.0, abs=0.05)


def _stationary_cov(P, N):
    # solve S = P S P^T + N N^T for the symmetric 2x2 stationary covariance
    import numpy as np

    Q = N @ N.T
    idx = [(0, 0), (0, 1), (1, 1)]
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for r, (i, j) in enumerate(idx):
        for c, (k, l) in enumerate(idx):
            coeff = P[i, k] * P[j, l]
            if k != l:
                coeff += P[i, l] * P[j, k]
            A[r, c] = (1.0 if (i, j) == (k, l) else 0.0) - coeff
        b[r] = Q[i, j]
    s = np.linalg.solve(A, b)
    return np.array([[s[0], s[1]], [s[1], s[2]]])


KINETIC_FOR_VARIANCE = [
    Scheme.KINETIC_EM,
    Scheme.BAO,
    Scheme.OAB,
    Scheme.ABO,
    Scheme.BOA,
    Scheme.OBA,
    Scheme.AOB,
    Scheme.BAOAB,
    Scheme.OBABO,
    Scheme.SES,
]


@pytest.mark.parametrize("scheme", KINETIC_FOR_VARIANCE)
def test_stationary_covariance_consistent_with_unit_gaussian(scheme):
    # independent oracle on every noise amplitude: the exact stationary
    # covariance of the affine one-step map must approach the identity as
    # h -> 0 (position and velocity marginals of the target), linearly in h
    errs = []
    for h in (0.02, 0.002):
        P, N = affine_mode_map(scheme, 1.0, StepParams(h, 2.0))
        S = _stationary_cov(P, N)
        errs.append(max(abs(S[0, 0] - 1.0), abs(S[1, 1] - 1.0)))
    assert errs[0] <= 0.05
    assert errs[1] <= 0.15 * errs[0]  # shrinks at least linearly


def test_baoab_exact_position_variance_on_quadratics():
    # the B-half-step structure makes the position marginal exact for any
    # (h, gamma) inside stability on a quadratic mode
    for h, g in [(0.2, 2.0), (0.3, 5.0), (0.05, 1.0)]:
        P, N = affine_mode_map(Scheme.BAOAB, 1.0, StepParams(h, g))
        S = _stationary_cov(P, N)
        assert S[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_simulate_mode_chain_matches_stationary_covariance():
    p = StepParams(0.1, 2.0)
    P, N = affine_mode_map(Scheme.OBABO, 1.0, p)
    exact = _stationary_cov(P, N)[0, 0]
    n = 400_000
    noise = CounterStreams(21).normals(0, n, 2)
    xs = simulate_mode_chain(Scheme.OBABO, 1.0, p, 0.0, 0.0, noise)
    # integrated autocorrelation ~ 2/rate; allow 4 standard errors
    rate = 0.1  # coarse lower bound on the per-step squared rate at these params
    se = np.sqrt(2.0 / (n * rate / 2)) * exact
    assert abs(np.var(xs[5000:]) - exact) <= 4 * se


def test_overdamped_em_variance_closed_form():
    # AR(1): var = 2h / (1 - (1 - h)^2) = 2 / (2 - h) for the unit target
    h = 0.2
    pot = QuadraticPotential(np.array([[1.0]]))
    p = StepParams(h, 1.0)
    rng = np.random.default_rng(3)
    n = 200_000
    draws = rng.standard_normal(n)
    x = 0.0
    acc = np.empty(n)
    z = PhaseState(np.array([0.0]), np.array([0.0]))
    for i in range(n):
        z = step(Scheme.OVERDAMPED_EM, pot, z, p, draws[i].reshape(1, 1))
        acc[i] = z.x[0]
    var = np.var(acc[2000:])
    assert var == pytest.approx(2.0 / (2.0 - h), rel=0.03)


def test_lm_exact_unit_variance_on_quadratic():
    # averaged consecutive noises cancel the AR(1) variance bias exactly:
    # var = (h/2) [1 + (1+a)^2/(1-a^2)] = 1 with a = 1 - h, for every h < 2
    h = 0.5
    pot = QuadraticPotential(np.array([[1.0]]))
    p = StepParams(h, 1.0)
    rng = np.random.default_rng(4)
    n = 200_000
    draws = rng.standard_normal(n + 1)
    acc = np.empty(n)
    z = PhaseState(np.array([0.0]), np.array([0.0]))
    for i in range(n):
        z = step(Scheme.LM, pot, z, p, draws[i + 1].reshape(1, 1), prev_noise=draws[i : i + 1])
        acc[i] = z.x[0]
    assert np.var(acc[2000:]) == pytest.approx(1.0, rel=0.02)
