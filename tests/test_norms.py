import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langevin_contract.coupling import certified_rate
from langevin_contract.integrators import Scheme
from langevin_contract.norms import NormError, WeightedNorm
from oracles import gaussian_w2, wasserstein_decay_factor


def test_squared_example():
    n = WeightedNorm(1.0, 0.5)
    assert n.squared(np.array([1.0]), np.array([1.0])) == pytest.approx(3.0)


def test_squared_zero_vector():
    n = WeightedNorm(2.0, 0.3)
    assert n.squared(np.zeros(4), np.zeros(4)) == 0.0


def test_squared_certified_weights_example():
    # a = 1/M, b = 1/gamma at M = 4, gamma = 4
    n = WeightedNorm(0.25, 0.25)
    assert n.squared(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.25)


def test_construction_rejects_degenerate_weights():
    with pytest.raises(NormError):
        WeightedNorm(1.0, 1.0)  # b^2 == a
    with pytest.raises(NormError):
        WeightedNorm(0.25, 0.6)  # b^2 > a
    with pytest.raises(NormError):
        WeightedNorm(-1.0, 0.1)
    with pytest.raises(NormError):
        WeightedNorm(1.0, -0.1)


def test_structure_matrix_positive_definite_iff_valid():
    n = WeightedNorm(0.5, 0.6)
    w = np.linalg.eigvalsh(n.matrix())
    assert w.min() > 0.0


def test_equivalence_bounds_boundary_example():
    # 2b == sqrt(a): the lower bound is attained at v = -x
    n = WeightedNorm(1.0, 0.5)
    lo, val, hi = n.equivalence_bounds(np.array([1.0]), np.array([1.0]))
    assert (lo, val, hi) == pytest.approx((1.0, 3.0, 3.0))
    lo, val, hi = n.equivalence_bounds(np.array([1.0]), np.array([-1.0]))
    assert (lo, val, hi) == pytest.approx((1.0, 1.0, 3.0))


def test_equivalence_bounds_no_cross_term():
    n = WeightedNorm(2.0, 0.0)
    rng = np.random.default_rng(0)
    x, v = rng.standard_normal(3), rng.standard_normal(3)
    lo, val, hi = n.equivalence_bounds(x, v)
    assert lo < val < hi


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(1e-3, 1e3),
    bfrac=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_equivalence_chain_property(a, bfrac, data):
    # 2b <= sqrt(a) is the regime where the 1/2 - 3/2 constants hold
    b = 0.5 * np.sqrt(a) * bfrac
    n = WeightedNorm(a, b)
    dim = data.draw(st.integers(1, 4))
    x = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    v = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    lo, val, hi = n.equivalence_bounds(x, v)
    assert lo <= val * (1 + 1e-12) and val <= hi * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(1e-3, 1e3), bfrac=st.floats(0.0, 0.999), data=st.data())
def test_positivity_property(a, bfrac, data):
    # any b with b^2 < a gives a positive definite form; components are kept
    # above the scale where squaring underflows to zero
    b = np.sqrt(a) * bfrac
    n = WeightedNorm(a, b)
    dim = data.draw(st.integers(1, 4))
    comp = st.floats(-1e2, 1e2).filter(lambda t: t == 0.0 or abs(t) > 1e-100)
    x = np.array(data.draw(st.lists(comp, min_size=dim, max_size=dim)))
    v = np.array(data.draw(st.lists(comp, min_size=dim, max_size=dim)))
    if np.any(x != 0.0) or np.any(v != 0.0):
        assert n.squared(x, v) > 0.0
    assert np.linalg.eigvalsh(n.matrix()).min() > 0.0


def test_wasserstein_decay_factor_examples():
    assert wasserstein_decay_factor(1.0, 1.0, 0.5, 1) == pytest.approx(1.5)
    # a = 1/4, c = m h / (2 gamma) at m=1, gamma=4, h=0.1; n = 0
    assert wasserstein_decay_factor(1.0, 0.25, 0.0125, 0) == pytest.approx(12.0)


def test_wasserstein_decay_factor_recurrence():
    for n in range(4):
        v1 = wasserstein_decay_factor(2.0, 0.7, 0.03, n + 1)
        v0 = wasserstein_decay_factor(2.0, 0.7, 0.03, n)
        assert v1 == pytest.approx(v0 * 0.97)


def test_wasserstein_decay_factor_validation():
    with pytest.raises(NormError):
        wasserstein_decay_factor(1.0, 1.0, 0.0, 1)
    with pytest.raises(NormError):
        wasserstein_decay_factor(1.0, 1.0, 1.5, 1)
    with pytest.raises(NormError):
        wasserstein_decay_factor(0.5, 1.0, 0.5, 1)


def test_wasserstein_decay_factor_admits_a_certified_unit_rate():
    # lm at m = M = 1, h = 1 contracts in one step: c = h m (2 - h M) = 1,
    # admissible like every rate in (0, 1]
    rate = certified_rate(Scheme.LM, 1.0, 1.0, 1.0, 1.0)
    assert rate.admissible and rate.c == 1.0
    assert wasserstein_decay_factor(1.0, rate.a, rate.c, 0) == 3.0
    assert wasserstein_decay_factor(1.0, rate.a, rate.c, 4) == 0.0


def test_gaussian_w2_identical_is_zero():
    # the squared distance cancels to roundoff, so the root is sqrt(eps)-small
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert gaussian_w2([1.0, -2.0], cov, [1.0, -2.0], cov) == pytest.approx(0.0, abs=1e-6)


def test_gaussian_w2_point_masses():
    z = np.zeros((2, 2))
    assert gaussian_w2([0.0, 0.0], z, [3.0, 4.0], z) == pytest.approx(5.0)


def test_gaussian_w2_1d_scale():
    # 1-d gaussians: W2 = sqrt(dmu^2 + (s1 - s2)^2); N(0,1) vs N(0,4) -> 1
    assert gaussian_w2([0.0], [[1.0]], [0.0], [[4.0]]) == pytest.approx(1.0)


def test_gaussian_w2_rejects_non_psd():
    with pytest.raises(NormError):
        gaussian_w2([0.0], [[-1.0]], [0.0], [[1.0]])


def test_gaussian_w2_commuting_covariances():
    # simultaneously diagonalizable: W2^2 = |dmu|^2 + sum (sqrt(l1) - sqrt(l2))^2
    d1, d2 = np.array([1.0, 4.0]), np.array([9.0, 16.0])
    expect = np.sqrt(np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2) + 2.0)
    got = gaussian_w2([1.0, 0.0], np.diag(d1), [0.0, 1.0], np.diag(d2))
    assert got == pytest.approx(expect, rel=1e-12)
