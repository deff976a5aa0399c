"""Contraction analysis for kinetic and overdamped Langevin discretizations.

Library layout:

- ``potentials``:   strongly convex targets with certified (m, M) constants
- ``norms``:        weighted phase-space norms
- ``integrators``:  one-step maps for every supported scheme
- ``coupling``:     synchronously coupled pairs, certified rates, traces
- ``certificates``: positive-definiteness contraction certificates
- ``gaussian``:     exact mode spectra, stability thresholds, scans
- ``glc``:          high-friction limits (the step at gamma = inf) and rate-collapse sweeps
- ``cli``:          the ``langevin-contract`` batch experiment driver
"""

from .integrators import PhaseState, Scheme, StepParams, noise_requirements, step
from .coupling import (
    CertifiedRate,
    CouplingTrace,
    CounterStreams,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_synchronous_coupling,
    verify_trace_bound,
)
from .norms import WeightedNorm
from .potentials import (
    PerturbedQuadratic,
    Potential,
    QuadraticPotential,
    mean_value_hessian,
)
from .certificates import (
    CertificateReport,
    check_certificate,
    max_certified_rate,
    max_certified_stepsize,
    step_matrix,
    transition_matrix_P,
)
from .gaussian import bao_exact_rate, gaussian_scan, mode_eigenvalues, stability_threshold
from .glc import classify_glc, glc_deviation, limit_step, rate_collapse_scan

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "CertifiedRate",
    "CounterStreams",
    "CouplingTrace",
    "PerturbedQuadratic",
    "PhaseState",
    "Potential",
    "QuadraticPotential",
    "Scheme",
    "StepParams",
    "WeightedNorm",
    "bao_exact_rate",
    "certified_rate",
    "certified_stepsize_threshold",
    "check_certificate",
    "classify_glc",
    "empirical_rate",
    "gaussian_scan",
    "glc_deviation",
    "limit_step",
    "max_certified_rate",
    "max_certified_stepsize",
    "mean_value_hessian",
    "mode_eigenvalues",
    "noise_requirements",
    "positive_prefix",
    "rate_collapse_scan",
    "run_synchronous_coupling",
    "stability_threshold",
    "step",
    "step_matrix",
    "transition_matrix_P",
    "verify_trace_bound",
]
