import json
import re

import numpy as np
import pytest

from langevin_contract.cli import ConfigError, load_config, make_potential
from langevin_contract.potentials import (
    _GL_NODES,
    PerturbedQuadratic,
    Potential,
    PotentialError,
    QuadraticPotential,
    mean_value_hessian,
)


def finite_difference_gradient(p, x, eps=1e-6):
    """Central-difference oracle for grad U."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (p.value(x + e) - p.value(x - e)) / (2 * eps)
    return g


def random_spd(rng, dim, m=0.5, M=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.concatenate([[m, M], rng.uniform(m, M, dim - 2)]) if dim > 2 else np.array([m, M])
    return (q * eigs) @ q.T


def test_anisotropic_gradient_example():
    p = QuadraticPotential.anisotropic_gaussian(1.0, 100.0)
    assert np.array_equal(p.gradient(np.array([1.0, 1.0])), [1.0, 100.0])


def test_gradient_vanishes_at_minimizer():
    rng = np.random.default_rng(0)
    p = QuadraticPotential(random_spd(rng, 4))
    assert np.allclose(p.gradient(np.zeros(4)), 0.0)
    # perturbed target: minimizer solves Qx = eps sin(x); x = 0 is not it,
    # but the pure-quadratic part still vanishes at 0
    pp = PerturbedQuadratic(np.eye(2), 0.25)
    assert np.allclose(pp.gradient(np.zeros(2)), 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for p in (QuadraticPotential(random_spd(rng, 3)), PerturbedQuadratic(random_spd(rng, 3), 0.3)):
        x = rng.standard_normal(3)
        g = p.gradient(x)
        fd = finite_difference_gradient(p, x)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_gradient_batched_evaluation():
    rng = np.random.default_rng(2)
    p = QuadraticPotential(random_spd(rng, 3))
    xs = rng.standard_normal((5, 3))
    batched = p.gradient(xs)
    assert batched.shape == (5, 3)
    for i in range(5):
        assert np.allclose(batched[i], p.gradient(xs[i]))


def test_dimension_mismatch_rejected():
    diag = QuadraticPotential.diagonal([1.0, 2.0])
    dense = QuadraticPotential(np.array([[2.0, 0.5], [0.5, 1.0]]))
    for p in (diag, dense, PerturbedQuadratic(diag, 0.5), PerturbedQuadratic(dense, 0.5)):
        for x in (np.zeros(3), np.zeros((4, 1))):
            with pytest.raises(PotentialError):
                p.gradient(x)
            with pytest.raises(PotentialError):
                p.value(x)


def test_perturbed_target_checks_its_input_once(monkeypatch):
    calls = []
    check = Potential._check_dim
    monkeypatch.setattr(Potential, "_check_dim", lambda self, x: calls.append(x) or check(self, x))
    p = PerturbedQuadratic(QuadraticPotential.diagonal([1.0, 2.0]), 0.5)
    p.gradient(np.zeros((3, 2)))
    p.value(np.zeros(2))
    assert len(calls) == 2


def test_constructor_validation():
    with pytest.raises(PotentialError):
        QuadraticPotential(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(PotentialError):
        QuadraticPotential(np.diag([1.0, -2.0]))  # not PD
    with pytest.raises(PotentialError):
        PerturbedQuadratic(np.eye(2), 1.5)  # eps >= m


def test_mean_value_hessian_quadratic_exact():
    rng = np.random.default_rng(3)
    Q = random_spd(rng, 3)
    p = QuadraticPotential(Q)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert np.array_equal(mean_value_hessian(p, x, y), Q)


def test_mean_value_hessian_degenerate_segment():
    p = PerturbedQuadratic(np.diag([2.0, 3.0]), 0.5)
    x = np.array([0.3, -0.7])
    assert np.allclose(mean_value_hessian(p, x, x), p.hessian(x), atol=1e-14)


def test_mean_value_hessian_reproduces_gradient_difference():
    rng = np.random.default_rng(4)
    p = PerturbedQuadratic(random_spd(rng, 3), 0.2)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    Q = mean_value_hessian(p, x, y)
    lhs = Q @ (y - x)
    rhs = p.gradient(y) - p.gradient(x)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_mean_value_hessian_symmetric_and_spectrum_bounded():
    rng = np.random.default_rng(5)
    p = PerturbedQuadratic(random_spd(rng, 4), 0.3)
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        Q = mean_value_hessian(p, x, y)
        assert np.abs(Q - Q.T).max() <= 1e-12
        vs = rng.standard_normal((10, 4))
        rayleigh = np.einsum("id,de,ie->i", vs, Q, vs) / np.sum(vs * vs, axis=1)
        assert (rayleigh >= p.m - 1e-9).all() and (rayleigh <= p.M + 1e-9).all()


def test_mean_value_hessian_needs_hessian_oracle():
    from langevin_contract.potentials import Potential

    class GradOnly(Potential):
        def __init__(self):
            super().__init__(2, 1.0, 2.0)

        def value(self, x):
            return 0.5 * np.sum(np.asarray(x) ** 2, axis=-1)

        def gradient(self, x):
            return np.asarray(x, dtype=float)

    with pytest.raises(PotentialError, match="GradOnly exposes no Hessian oracle"):
        mean_value_hessian(GradOnly(), np.zeros(2), np.ones(2))


def test_mean_value_hessian_calls_hessian_once_per_node():
    calls = []

    class Counted(PerturbedQuadratic):
        def hessian(self, x):
            calls.append(x)
            return super().hessian(x)

    mean_value_hessian(Counted(np.diag([2.0, 5.0]), 0.5), np.zeros(2), np.ones(2))
    assert len(calls) == _GL_NODES


@pytest.mark.parametrize(
    "pot",
    [
        QuadraticPotential.anisotropic_gaussian(1.0, 4.0),
        QuadraticPotential(random_spd(np.random.default_rng(6), 3, 0.5, 20.0)),
        PerturbedQuadratic(np.diag([2.0, 5.0]), 0.5),
    ],
    ids=["diag_2d", "dense_3d", "perturbed"],
)
def test_convexity_and_lipschitz_sampled(pot):
    # 1e4 random pairs per registered potential, vectorized
    rng = np.random.default_rng(7)
    n = 10_000
    xs = rng.standard_normal((n, pot.dim)) * 3.0
    ys = rng.standard_normal((n, pot.dim)) * 3.0
    dg = pot.gradient(xs) - pot.gradient(ys)
    dx = xs - ys
    inner = np.sum(dg * dx, axis=1)
    nx2 = np.sum(dx * dx, axis=1)
    assert (inner >= pot.m * nx2 - 1e-9 * nx2).all()
    assert (np.sum(dg * dg, axis=1) <= pot.M**2 * nx2 * (1 + 1e-12)).all()


def test_make_potential_from_config():
    p = make_potential({"potential": {"name": "quadratic", "m": 1.0, "M": 4.0}})
    assert (p.m, p.M, p.dim) == (1.0, 4.0, 2)
    p = make_potential({"potential": {"name": "quadratic", "diag": [1.0, 2.0, 3.0]}})
    assert p.dim == 3
    p = make_potential({"potential": {"name": "perturbed_quadratic", "diag": [2.0, 4.0], "eps": 0.5}})
    assert (p.m, p.M) == (1.5, 4.5)



@pytest.mark.parametrize(
    "spec, problem",
    [
        ({"name": "bogus"}, "'potential.name' must be one of 'quadratic', 'perturbed_quadratic', got 'bogus'"),
        ({"name": "quadratic"}, "'potential' needs the key 'matrix' or 'potential' needs the key 'diag'"),
    ],
)
def test_load_config_checks_the_potential_name_and_keys(tmp_path, spec, problem):
    # make_potential reads a config that load_config has held to config.schema.json
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": spec, "schemes": ["bao"]}))
    with pytest.raises(ConfigError, match=re.escape(problem)):
        load_config(str(path))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diagonal_extremes_equal_dense_eigenvalues(seed):
    # the vector path's min/max are exactly what eigvalsh gave on np.diag(d)
    d = np.random.default_rng(seed).uniform(0.1, 50.0, 2048)
    p = QuadraticPotential.diagonal(d)
    m, M = np.linalg.eigvalsh(np.diag(d))[[0, -1]]
    assert (p.m, p.M) == (m, M)


def test_diagonal_matrix_matches_diag_spec():
    rng = np.random.default_rng(8)
    d = rng.uniform(0.5, 9.0, 6)
    from_diag = make_potential({"potential": {"name": "quadratic", "diag": d.tolist()}})
    from_matrix = make_potential({"potential": {"name": "quadratic", "matrix": np.diag(d).tolist()}})
    xs = rng.standard_normal((4, 6))
    assert (from_matrix.m, from_matrix.M) == (from_diag.m, from_diag.M)
    assert np.array_equal(from_matrix.gradient(xs), from_diag.gradient(xs))
    assert np.array_equal(from_matrix.gradient(xs), d * xs)


def test_lazy_matrix_is_dense_and_read_only():
    d = np.array([3.0, 1.0, 2.0])
    for p in (QuadraticPotential.diagonal(d), PerturbedQuadratic(QuadraticPotential.diagonal(d), 0.5)):
        Q = p.matrix
        assert np.array_equal(Q, np.diag(d)) and Q is p.matrix
        assert not Q.flags.writeable
        with pytest.raises(ValueError):
            Q[0, 1] = 1.0
        with pytest.raises(AttributeError):
            p.matrix = np.eye(3)
    p = QuadraticPotential.diagonal(d)
    assert np.array_equal(p.hessian(np.zeros(3)), np.diag(d))
    assert np.array_equal(mean_value_hessian(p, np.zeros(3), np.ones(3)), np.diag(d))
    pp = PerturbedQuadratic(np.diag(d), 0.5)
    x = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(pp.hessian(x), np.diag(d) - 0.5 * np.diag(np.cos(x)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: QuadraticPotential.diagonal([[1.0, 2.0]]),
        lambda: QuadraticPotential.diagonal([]),
        lambda: QuadraticPotential.diagonal([1.0, np.nan]),
        lambda: QuadraticPotential.diagonal([1.0, np.inf]),
        lambda: QuadraticPotential.diagonal([1.0, 0.0]),
        lambda: QuadraticPotential(np.array(2.0)),
        lambda: QuadraticPotential(np.ones((2, 3))),
        lambda: QuadraticPotential(np.array([[1.0, np.inf], [np.inf, 1.0]])),
        lambda: QuadraticPotential(np.zeros((0, 0))),
        lambda: QuadraticPotential.anisotropic_gaussian(4.0, 1.0),
    ],
    ids=["diag_2d", "diag_empty", "diag_nan", "diag_inf", "diag_not_pd", "matrix_0d",
         "matrix_not_square", "matrix_inf", "matrix_empty", "m_above_M"],
)
def test_malformed_targets_rejected(build):
    with pytest.raises(PotentialError):
        build()


def test_diag_spec_setup_memory_is_linear(traced_peak):
    cfg = {"potential": {"name": "quadratic", "diag": np.linspace(1.0, 4.0, 4096).tolist()}}
    p, peak = traced_peak(make_potential, cfg)
    assert (p.dim, p.m, p.M) == (4096, 1.0, 4.0)
    assert peak < 1_000_000  # a dense 4096 x 4096 matrix is 134 MB
