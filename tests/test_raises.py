"""Each input guard of the library raises its own error on a bad input.

One row per guard that no other test reaches: the call, the error class
and a fragment of its message (None where the message says nothing).
"""

import math

import numpy as np
import pytest

from langevin_contract.coupling import (
    CouplingError,
    CouplingPoint,
    CouplingTrace,
    certified_rate,
    empirical_rate,
    run_coupling_batch,
    verify_trace_bound,
)
from langevin_contract.gaussian import SpectralError, bao_exact_rate
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
