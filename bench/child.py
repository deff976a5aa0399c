"""Run one workload's stages in a fresh interpreter, repeatedly, for a set time.

Usage: python3 bench/child.py PLAN.json   (with the checkout's src/ on PYTHONPATH)

The plan (written by run.py) names the stages, the output root, the
measuring time and whether to trace.  Every repetition writes to its own
directory, so run.py can check each repetition's outputs after this process
ends; checking here would add the checker's memory to the peak RSS.
Writes ``child.json`` (per-stage exit codes and wall times, the machine-speed
calibrations before and after each repetition, peak RSS) and, when tracing,
the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed


def _import_library(root: Path):
    import langevin_contract

    src = (root / "src").resolve()
    where = Path(langevin_contract.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"langevin_contract imported from {where}, not from {src}")


def install(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from langevin_contract import certificates, cli, coupling, gaussian, glc, integrators, norms, potentials

    def pair_steps(args, kwargs, trace):
        return {"scheme": str(getattr(args[0], "value", args[0])), "steps": trace.n_steps}

    def noise_bytes(args, kwargs, out):
        return {"bytes": out.nbytes}

    def oracle(args, kwargs, rep):
        return {"agrees": rep.oracle_agrees}

    def chain_steps(args, kwargs, xs):
        return {"steps": len(xs) - 1}

    W = tracer.wrap
    W(cli, "make_potential", "potentials.make_potential")
    for cls in (potentials.QuadraticPotential, potentials.PerturbedQuadratic):
        W(cls, "gradient", "potentials.gradient")
    for ns in (cli, glc, certificates, coupling):
        W(ns, "certified_rate", "coupling.certified_rate")
    for ns in (cli, glc):
        W(ns, "run_synchronous_coupling", "coupling.run_synchronous_coupling", pair_steps)
        W(ns, "certified_stepsize_threshold", "coupling.certified_stepsize_threshold")
        W(ns, "empirical_rate", "coupling.empirical_rate")
        W(ns, "positive_prefix", "coupling.positive_prefix")
    W(cli, "verify_trace_bound", "coupling.verify_trace_bound")
    W(coupling.CounterStreams, "normals", "coupling.normals", noise_bytes)
    W(norms.WeightedNorm, "squared", "norms.squared")
    W(certificates, "check_certificate", "certificates.check_certificate", oracle)
    W(certificates, "max_certified_stepsize", "certificates.max_certified_stepsize")
    W(certificates, "max_certified_rate", "certificates.max_certified_rate")
    W(gaussian, "stability_threshold", "gaussian.stability_threshold")
    W(gaussian, "gaussian_scan", "gaussian.gaussian_scan")
    W(glc, "rate_collapse_scan", "glc.rate_collapse_scan")
    W(glc, "glc_deviation", "glc.glc_deviation")
    W(integrators, "simulate_mode_chain", "integrators.simulate_mode_chain", chain_steps)


def _cli_stage(argv: list[str], out: Path) -> int:
    from langevin_contract import cli

    return cli.main(argv + ["--out", str(out)])


def _mode_chain_stage(chains: list[dict], out: Path) -> list:
    from langevin_contract import integrators

    results = []
    for ch in chains:
        params = integrators.StepParams(ch["h"], ch["gamma"])
        scheme = integrators.Scheme(ch["scheme"])
        results.append(integrators.simulate_mode_chain(scheme, ch["lam"], params, ch["x0"], ch["v0"], ch["arr"]))
    return results


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    root = Path(plan["root"])
    out_root = Path(plan["out"])
    _import_library(root)
    import numpy as np
    from langevin_contract import cli  # noqa: F401  (import cost is setup_s, not wall_s)

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        install(tracer)

    stages = plan["stages"]
    for st in stages:
        for ch in st.get("chains", []):
            ch["arr"] = np.load(ch["noise"])

    reps = []
    calibrations = [speed.calibrate()]
    started = time.perf_counter()
    while True:
        r = len(reps)
        rep = []
        for i, st in enumerate(stages):
            out = out_root / f"rep{r}" / st["name"]
            out.mkdir(parents=True, exist_ok=True)
            if st["kind"] == "cli":
                fn, arg, root_name = _cli_stage, st["argv"], "cli.main"
            else:
                fn, arg, root_name = _mode_chain_stage, st["chains"], "bench.mode_chain"
            error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = fn(arg, out)
                else:
                    res = tracer.run(r * len(stages) + i + 1, root_name, fn, arg, out)
                rc = res if isinstance(res, int) else 0
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # a stage that raises fails as a whole; keep measuring
                rc, error = 1, traceback.format_exc(limit=5)
            t1 = time.perf_counter()
            if st["kind"] == "mode_chain" and error is None:
                for ch, xs in zip(st["chains"], res):
                    np.save(out / f"{ch['scheme']}.npy", xs)
            rep.append({"rc": rc, "seconds": t1 - t0, "error": error})
        reps.append(rep)
        calibrations.append(speed.calibrate())
        if time.perf_counter() - started >= plan["seconds"]:
            break

    if tracer is not None:
        tracer.dump(out_root / "trace")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"reps": reps, "calibrations": calibrations, "peak_rss_kib": peak_kib}
    (out_root / "child.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
