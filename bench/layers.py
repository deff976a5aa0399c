"""Per-layer metrics from the spans of a traced run.

Each metric is computed per repetition and reported as the median over
repetitions; counts repeat exactly.  A layer the workload never reaches
reports 0 (no calls, no time); ``certificates.oracle_agree_frac`` reports 1
when no certificate was checked, since nothing disagreed.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import FIELDS

SID, NAME, PARENT, START, END, RUN = range(len(FIELDS))

# schemes the coupled-pair runner steps in some workload
STEP_SCHEMES = ("kinetic_em", "bao", "oab", "baoab", "obabo", "ses", "lm")

UNITS = {
    "potentials.build_s": "s",
    "potentials.gradient_calls_per_pair_step": "count",
    **{f"potentials.gradient_calls_per_pair_step.{s}": "count" for s in STEP_SCHEMES},
    "potentials.gradient_s": "s",
    "coupling.runs": "count",
    "coupling.runner_self_us_per_pair_step": "us",
    "coupling.noise_s": "s",
    "coupling.noise_mb": "MB",
    "coupling.certified_rate_calls": "count",
    "coupling.rate_fit_s": "s",
    "coupling.threshold_calls": "count",
    "coupling.threshold_s": "s",
    "norms.squared_s": "s",
    "certificates.check_calls": "count",
    "certificates.check_us_per_call": "us",
    "certificates.checks_per_table1_row": "count",
    "certificates.oracle_agree_frac": "ratio",
    "gaussian.stability_threshold_calls": "count",
    "gaussian.stability_threshold_s": "s",
    "gaussian.scan_s": "s",
    "glc.rate_collapse_s": "s",
    "glc.deviation_s": "s",
    "integrators.mode_chain_steps_per_s": "1/s",
    "cli.self_s": "s",
    "cli.output_mb": "MB",
    "cli.self_us_per_row": "us",
    "trace.overhead_frac": "ratio",
    "pair_steps_per_s": "1/s",
    "failed_frac": "ratio",
}


def _union(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of intervals (children may overlap on worker threads)."""
    if starts.size == 0:
        return 0.0
    o = np.argsort(starts)
    s, e = starts[o], ends[o]
    covered = np.maximum.accumulate(np.concatenate(([-np.inf], e[:-1])))
    return float(np.clip(e - np.maximum(s, covered), 0.0, None).sum())


def _self_time(sp: np.ndarray, parents: np.ndarray) -> float:
    """Summed duration of the ``parents`` rows minus what their children cover."""
    total = 0.0
    for row in parents:
        kids = sp[sp[:, PARENT] == row[SID]]
        total += (row[END] - row[START]) - _union(kids[:, START], kids[:, END])
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_metrics(names: list[str], sp: np.ndarray, attrs: dict, rows: int, output_mb: float) -> dict:
    """Layer metrics of one repetition's spans."""
    nid = {n: i for i, n in enumerate(names)}

    def rows_of(*wanted):
        ids = [nid[w] for w in wanted if w in nid]
        return sp[np.isin(sp[:, NAME], ids)]

    def dur(*wanted) -> float:
        r = rows_of(*wanted)
        return float((r[:, END] - r[:, START]).sum())

    def sids(*wanted) -> np.ndarray:
        return rows_of(*wanted)[:, SID]

    grads = rows_of("potentials.gradient")
    top_grads = grads[~np.isin(grads[:, PARENT], grads[:, SID])]
    runners = rows_of("coupling.run_synchronous_coupling")
    steps = {s: 0 for s in STEP_SCHEMES}
    calls = {s: 0 for s in STEP_SCHEMES}
    for row in runners:
        a = attrs.get(int(row[SID]))
        if a is None:  # the run raised (glc fits forced runs and catches that)
            continue
        steps[a["scheme"]] += a["steps"]
        calls[a["scheme"]] += int((top_grads[:, PARENT] == row[SID]).sum())
    pair_steps = sum(steps.values())

    checks = rows_of("certificates.check_certificate")
    agree = [attrs[int(s)]["agrees"] for s in checks[:, SID] if int(s) in attrs]
    table1_checks = np.isin(checks[:, PARENT], sids("certificates.max_certified_stepsize", "certificates.max_certified_rate"))
    chains = rows_of("integrators.simulate_mode_chain")
    chain_steps = sum(attrs[int(s)]["steps"] for s in chains[:, SID] if int(s) in attrs)
    cli_self = _self_time(sp, rows_of("cli.main"))

    m = {
        "potentials.build_s": dur("potentials.make_potential"),
        "potentials.gradient_calls_per_pair_step": _ratio(sum(calls.values()), pair_steps),
        **{f"potentials.gradient_calls_per_pair_step.{s}": _ratio(calls[s], steps[s]) for s in STEP_SCHEMES},
        "potentials.gradient_s": float((top_grads[:, END] - top_grads[:, START]).sum()),
        "coupling.runs": len(runners),
        "coupling.runner_self_us_per_pair_step": 1e6 * _ratio(_self_time(sp, runners), pair_steps),
        "coupling.noise_s": dur("coupling.normals"),
        "coupling.noise_mb": sum(attrs[int(s)]["bytes"] for s in sids("coupling.normals") if int(s) in attrs) / 1e6,
        "coupling.certified_rate_calls": len(sids("coupling.certified_rate")),
        "coupling.rate_fit_s": dur("coupling.empirical_rate", "coupling.positive_prefix", "coupling.verify_trace_bound"),
        "coupling.threshold_calls": len(sids("coupling.certified_stepsize_threshold")),
        "coupling.threshold_s": dur("coupling.certified_stepsize_threshold"),
        "norms.squared_s": dur("norms.squared"),
        "certificates.check_calls": len(checks),
        "certificates.check_us_per_call": 1e6 * _ratio(dur("certificates.check_certificate"), len(checks)),
        "certificates.checks_per_table1_row": _ratio(
            int(table1_checks.sum()), len(sids("certificates.max_certified_stepsize"))
        ),
        "certificates.oracle_agree_frac": _ratio(sum(agree), len(agree)) if agree else 1.0,
        "gaussian.stability_threshold_calls": len(sids("gaussian.stability_threshold")),
        "gaussian.stability_threshold_s": dur("gaussian.stability_threshold"),
        "gaussian.scan_s": dur("gaussian.gaussian_scan"),
        "glc.rate_collapse_s": dur("glc.rate_collapse_scan"),
        "glc.deviation_s": dur("glc.glc_deviation"),
        "integrators.mode_chain_steps_per_s": _ratio(chain_steps, dur("integrators.simulate_mode_chain")),
        "cli.self_s": cli_self,
        "cli.output_mb": output_mb,
        "cli.self_us_per_row": 1e6 * _ratio(cli_self, rows),
    }
    return m


def traced_metrics(names, spans, attrs, n_stages: int, rows: int, output_mb: list[float]) -> dict:
    """Median over repetitions of each repetition's layer metrics."""
    rep = (spans[:, RUN] - 1) // n_stages
    per_rep = [
        rep_metrics(names, spans[rep == r], attrs, rows, output_mb[r]) for r in range(len(output_mb))
    ]
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
