"""Benchmark of the langevin-contract CLI: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload couple-lowd --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced in a fresh interpreter for
``--seconds`` and the end-to-end metrics are reported: ``wall_s`` (median
over repetitions of the time from each stage's ``cli.main`` call to its last
output), ``setup_s`` (median time for a fresh interpreter to import
``langevin_contract.cli``), ``peak_rss_mb`` and ``grid_points_per_s``.
Times are scaled to a reference machine speed (speed.py); the unscaled
medians are printed too.
With ``--trace 1`` half the time runs untraced and half traced, and the
per-layer metrics are reported (see layers.py and NOTES.md).  Every
repetition's outputs are checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKERS_ENV = "LANGEVIN_CONTRACT_WORKERS"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 12
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "grid_points_per_s": "1/s"}
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import langevin_contract.cli; "
    "print(time.perf_counter() - t0)"
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed output check)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # single-threaded BLAS: steady timings on a shared machine, and <= nproc
    env.update({v: "1" for v in THREAD_VARS})
    return env


def references() -> dict:
    return json.loads((Path(__file__).parent / "references.json").read_text())


def measure_setup(env: dict, n: int) -> list[tuple[float, float]]:
    """(raw, scaled) import times of langevin_contract.cli, each in a fresh interpreter."""
    times = []
    before = speed.calibrate()
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if out.returncode != 0:
            raise BenchError(f"importing langevin_contract.cli failed: {out.stderr.strip()}")
        after = speed.calibrate()
        raw = float(out.stdout)
        times.append((raw, speed.scale(raw, before, after)))
        before = after
    return times


def run_child(stages, out: Path, seconds: float, trace: bool, env: dict) -> dict:
    """Run the stages in a fresh interpreter until ``seconds`` have passed."""
    out.mkdir(parents=True)
    plan = {"root": str(ROOT), "out": str(out), "seconds": seconds, "trace": trace, "stages": stages}
    plan_path = out / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "child.py"), str(plan_path)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=seconds + 120,
    )
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((out / "child.json").read_text())


def check_child(stages, child: dict, out: Path, reference: dict | None) -> dict:
    """Check every repetition's outputs; sums over repetitions."""
    tally = {"attempted": 0, "failed": 0, "identical": 0, "compared": 0, "problems": []}
    for r, rep in enumerate(child["reps"]):
        a, f, i, c, problems = check.check_rep(stages, rep, out / f"rep{r}", ROOT, reference)
        for key, val in zip(("attempted", "failed", "identical", "compared"), (a, f, i, c)):
            tally[key] += val
        tally["problems"] += [f"rep {r}: {p}" for p in problems]
    return tally


def rep_walls(child: dict) -> tuple[list[float], list[float]]:
    """(raw, scaled) wall time of each repetition."""
    raw = [sum(st["seconds"] for st in rep) for rep in child["reps"]]
    c = child["calibrations"]
    return raw, [speed.scale(w, c[r], c[r + 1]) for r, w in enumerate(raw)]


def output_mb(stages, out: Path, n_reps: int) -> list[float]:
    """Bytes the CLI stages wrote in each repetition, in MB (exact)."""
    sizes = []
    for r in range(n_reps):
        total = sum(
            f.stat().st_size
            for st in stages
            if st["kind"] == "cli"
            for f in (out / f"rep{r}" / st["name"]).iterdir()
        )
        sizes.append(total / 1e6)
    return sizes


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = ROOT / "src" / "langevin_contract"
    for f in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(f.relative_to(pkg)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def facts(workload: str, seed: int, env: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
        "input_variant": workloads.variant(seed),
        WORKERS_ENV: os.environ.get(WORKERS_ENV, "unset"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Run one benchmark measurement; returns (result, info)."""
    if not (ROOT / "src" / "langevin_contract" / "cli.py").is_file():
        raise BenchError(f"no langevin_contract sources under {ROOT / 'src'}")
    workers = os.environ.get(WORKERS_ENV)
    if not trace and workers not in (None, "1"):
        raise BenchError(f"{WORKERS_ENV}={workers}: end-to-end runs need it unset or 1")
    env = child_env()
    info = {"facts": facts(workload, seed, env)}
    reference = references()[size][workload].get(str(workloads.variant(seed)))
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        stages = workloads.plan(workload, seed, work / "inputs", size)
        points = sum(st["points"] for st in stages)
        pair_steps = sum(st["pair_steps"] for st in stages)
        rows = sum(st["rows"] for st in stages)
        # the first import fills the bytecode cache and is not counted; the
        # samples are split around the workload so they see two moments of a
        # machine whose speed drifts over seconds
        setup = [] if trace else measure_setup(env, 1 + SETUP_SAMPLES // 2)[1:]

        plain_secs = seconds / 2 if trace else seconds
        plain = run_child(stages, work / "plain", plain_secs, False, env)
        if not trace:
            setup += measure_setup(env, SETUP_SAMPLES - len(setup))
        tally = check_child(stages, plain, work / "plain", reference)
        raw_walls, walls = rep_walls(plain)
        wall = statistics.median(walls)
        info["samples"] = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": 1}
        info["raw"] = f"unscaled medians: wall_s = {statistics.median(raw_walls):.6g} s"

        if not trace:
            info["raw"] += f", setup_s = {statistics.median(r for r, _ in setup):.6g} s"
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(s for _, s in setup),
                "peak_rss_mb": plain["peak_rss_kib"] * 1024 / 1e6,
                "grid_points_per_s": points / wall,
            }
            units = END_TO_END_UNITS
        else:
            import layers
            import tracing

            traced = run_child(stages, work / "traced", seconds / 2, True, env)
            t = check_child(stages, traced, work / "traced", reference)
            for key in ("attempted", "failed", "identical", "compared", "problems"):
                tally[key] += t[key]
            names, spans, attrs = tracing.load(work / "traced" / "trace")
            n_traced = len(traced["reps"])
            metrics = layers.traced_metrics(
                names, spans, attrs, len(stages), rows, output_mb(stages, work / "traced", n_traced)
            )
            traced_wall = statistics.median(rep_walls(traced)[1])
            metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
            metrics["pair_steps_per_s"] = pair_steps / wall
            info["samples"]["traced_reps"] = n_traced
            info["raw"] += f"; scaled medians: untraced wall_s = {wall:.6g} s, traced wall_s = {traced_wall:.6g} s"
            units = layers.UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["failed_frac"] = tally["failed"] / tally["attempted"]
    if trace:
        metrics["failed_frac"] = info["failed_frac"]
    info["identical_frac"] = tally["identical"] / tally["compared"] if tally["compared"] else None
    info["problems"] = tally["problems"][:20]
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    started = time.perf_counter()
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("facts: " + json.dumps(info["facts"], sort_keys=True))
    print("samples: " + json.dumps(info["samples"], sort_keys=True))
    print(info["raw"])
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"check: {result['attempted'] - result['failed']}/{result['attempted']} grid points pass, "
        f"failed_frac = {info['failed_frac']:.6g}, byte-identical outputs = {info['identical_frac']} "
        f"(not gated), run took {time.perf_counter() - started:.1f} s"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
