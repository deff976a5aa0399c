"""Each input guard of the library raises its own error on a bad input.

One row per guard that no other test reaches, and one per guard written as
``not x > 0.0`` so that NaN fails it too: the call, the error class and a
fragment of its message (None where the message says nothing).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langevin_contract.certificates import (
    CERTIFICATE_SCHEMES,
    CertificateError,
    max_certified_rate,
    max_certified_stepsize,
)
from langevin_contract.coupling import (
    CouplingError,
    CouplingPoint,
    CouplingTrace,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    run_coupling_batch,
    verify_trace_bound,
)
from langevin_contract.gaussian import SpectralError, bao_exact_rate, mode_eigenvalues, stability_threshold
from langevin_contract.integrators import IntegratorError, PhaseState, Scheme, StepParams, simulate_mode_chain, step
from langevin_contract.potentials import (
    PerturbedQuadratic,
    Potential,
    PotentialError,
    QuadraticPotential,
    mean_value_hessian,
)

POT = QuadraticPotential.diagonal([1.0, 4.0])
PERTURBED = PerturbedQuadratic(np.diag([1.0, 4.0]), 0.25)
Z = PhaseState(np.zeros(2), np.zeros(2))


def _trace(h, distances, diverged_at=None):
    """A bao trace at h, gamma = 10 on POT, with the given distances."""
    point = CouplingPoint(StepParams(h, 10.0), 0, certified_rate(Scheme.BAO, POT.m, POT.M, 10.0, h))
    return CouplingTrace(point, np.array(distances), True, diverged_at)


GUARDS = {
    "negative n_steps": (lambda: run_coupling_batch(POT, Z, Z, [], -1), CouplingError, "non-negative"),
    "rate of a diverged trace": (lambda: empirical_rate(_trace(0.05, [1.0, math.inf], 1)), CouplingError, "diverged"),
    "bound at an inadmissible rate": (lambda: verify_trace_bound(_trace(1.0, [1.0, 0.5])), CouplingError, "admissible"),
    "bao rate at m = 0": (lambda: bao_exact_rate(0.0, 0.1, 1.0), SpectralError, "positive"),
    "bao rate at m = nan": (lambda: bao_exact_rate(math.nan, 0.1, 1.0), SpectralError, "positive"),
    "bao rate at m = inf": (lambda: bao_exact_rate(math.inf, 0.1, 4.0), SpectralError, "finite"),
    "bao rate at h = inf": (lambda: bao_exact_rate(1.0, math.inf, 4.0), SpectralError, "finite"),
    "threshold at gamma = nan": (
        lambda: certified_stepsize_threshold(Scheme.BAO, 1.0, 4.0, math.nan),
        CouplingError,
        "gamma > 0, got gamma=nan",
    ),
    "rate at gamma = nan": (lambda: certified_rate(Scheme.BAO, 1.0, 4.0, math.nan, 0.1), CouplingError, "gamma=nan"),
    "rate at h = nan": (lambda: certified_rate(Scheme.BAO, 1.0, 4.0, 11.0, math.nan), CouplingError, "h=nan"),
    "x and v shapes differ": (lambda: PhaseState(np.zeros(2), np.zeros(3)), IntegratorError, "share a shape"),
    "mode chain noise of the wrong width": (
        lambda: simulate_mode_chain(Scheme.OBABO, 1.0, StepParams(0.1, 1.0), 0.0, 0.0, np.zeros((5, 1))),
        IntegratorError,
        r"shape \(n, 2\)",
    ),
    "1-d noise of the wrong length": (
        lambda: step(Scheme.BAO, POT, Z, StepParams(0.1, 1.0), np.zeros(3)),
        IntegratorError,
        r"shape \(1, ..., 2\), got \(1, 3\)",
    ),
    "a target of dimension 0": (lambda: Potential(0, 1.0, 1.0), PotentialError, "positive integer"),
    "a target with m > M": (lambda: Potential(2, 2.0, 1.0), PotentialError, "0 < m <= M"),
    "value of the base target": (lambda: Potential(2, 1.0, 1.0).value(np.zeros(2)), NotImplementedError, None),
    "gradient of the base target": (lambda: Potential(2, 1.0, 1.0).gradient(np.zeros(2)), NotImplementedError, None),
    "indefinite dense matrix": (
        lambda: QuadraticPotential(np.array([[1.0, 2.0], [2.0, 1.0]])),
        PotentialError,
        "positive definite",
    ),
    "hessian of a batch": (lambda: PERTURBED.hessian(np.zeros((3, 2))), PotentialError, "single point"),
    "mean-value hessian of unequal shapes": (
        lambda: mean_value_hessian(PERTURBED, np.zeros(2), np.zeros((3, 2))),
        PotentialError,
        "equal shape",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_raises(guard):
    call, error, match = GUARDS[guard]
    with pytest.raises(error, match=match):
        call()


#: the errors a search may raise on bad input: its own module's, and those of
#: the records (coupling) and the step core (integrators) it builds on
DOMAIN_ERRORS = (CertificateError, CouplingError, IntegratorError, SpectralError)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, math.nan])
ORDINARY = st.sampled_from([0.05, 1.0, 4.0, 11.0]) | st.floats(1e-3, 1e3)


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(CERTIFICATE_SCHEMES),
    m=EDGES | ORDINARY,
    M=EDGES | ORDINARY,
    gamma=EDGES | ORDINARY,
    h=EDGES | ORDINARY,
)
def test_searches_return_a_float_or_raise_a_domain_error(scheme, m, M, gamma, h):
    # at the float range's edges each search returns a float or raises a
    # library error with a message: never ZeroDivisionError, OverflowError
    # or a warning, although a margin search divides by margins
    for call in (
        lambda: max_certified_stepsize(scheme, m, M, gamma),
        lambda: max_certified_rate(scheme, m, M, gamma, h),
        lambda: stability_threshold(scheme, M, gamma),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except DOMAIN_ERRORS as exc:
                assert str(exc)
            else:
                assert type(result) is float


#: the edges of the float range, each sign of zero and nan, beside ordinary values
FLOAT_EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]) | ORDINARY


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    m=FLOAT_EDGES,
    M=FLOAT_EDGES,
    gamma=FLOAT_EDGES,
    h=FLOAT_EDGES,
)
def test_searches_spectra_and_the_bao_rate_keep_to_their_domain(scheme, m, M, gamma, h):
    # every scheme, overdamped ones too: each call returns its value, a float
    # neither negative nor inf nor nan for all but the eigenvalues, or raises
    # a library error with a message, never ZeroDivisionError, OverflowError,
    # a math domain error (a bare ValueError) or a warning
    calls = {
        "max_certified_stepsize": (lambda: max_certified_stepsize(scheme, m, M, gamma), float),
        "max_certified_rate": (lambda: max_certified_rate(scheme, m, M, gamma, h), float),
        "stability_threshold": (lambda: stability_threshold(scheme, m, gamma), float),
        "mode_eigenvalues": (lambda: mode_eigenvalues(scheme, M, StepParams(h, gamma)), tuple),
        "bao_exact_rate": (lambda: bao_exact_rate(m, h, gamma), float),
    }
    for name, (call, kind) in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except DOMAIN_ERRORS as exc:
                assert str(exc), name
            else:
                assert type(result) is kind, name
                assert kind is tuple or 0.0 <= result < math.inf, (name, result)
