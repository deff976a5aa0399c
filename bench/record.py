"""Record the reference numbers and output digests the checks compare against.

Usage: python3 bench/record.py

Runs one repetition of every workload for every input variant (variant 0
only, at the smoke test's tiny sizes) and writes bench/references.json.
It was run once, at the commit that added the benchmark; a change that
claims a gain must not re-record.
Recording refuses a variant whose outputs fail their own checks.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import check
import run
import workloads


def record_variant(workload: str, v: int, size: str, env: dict) -> dict:
    work = run.ROOT / ".bench_work" / f"record-{workload}-{v}-{size}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        stages = workloads.plan(workload, v, work / "inputs", size)
        child = run.run_child(stages, work / "out", 0.0, False, env)
        rep = {}
        for st, res in zip(stages, child["reps"][0]):
            if res["rc"] != 0:
                raise run.BenchError(f"{workload} variant {v} {st['name']}: exit {res['rc']} {res['error']}")
            bad, numbers, digests = check.observe(st, work / "out" / "rep0" / st["name"], run.ROOT)
            if numbers is None or bad:
                raise run.BenchError(f"{workload} variant {v} {st['name']}: {bad} points fail their checks")
            # 12 significant digits sit far inside the tightest tolerance (1e-9)
            values = [None if x is None else float(f"{x:.12g}") for x in numbers.values()]
            rep[st["name"]] = {"numbers": values, "digests": digests}
        return rep
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    env = run.child_env()
    refs = {}
    # the smoke test runs the tiny sizes on variant 0 only
    for size, variants in (("tiny", 1), ("full", workloads.VARIANTS)):
        refs[size] = {}
        for workload in workloads.WORKLOADS:
            refs[size][workload] = {}
            for v in range(variants):
                refs[size][workload][str(v)] = record_variant(workload, v, size, env)
                print(f"recorded {size} {workload} variant {v}", flush=True)
    path = Path(__file__).parent / "references.json"
    path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
