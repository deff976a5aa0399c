"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
(It sits outside the tier-1 test paths, so plain ``pytest`` skips it.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_outputs_pass_their_checks(workload, trace):
    result, info = run.measure(workload, 0, 0.0, trace, size="tiny")
    assert info["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {e["name"]: e["unit"] for e in expected}
    if trace:
        assert result["metrics"]["certificates.oracle_agree_frac"]["value"] == 1.0


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_exact_counts_repeat():
    a, _ = run.measure("certify-table1", 0, 0.0, True, size="tiny")
    b, _ = run.measure("certify-table1", 0, 0.0, True, size="tiny")
    for name in ("certificates.checks_per_table1_row", "certificates.check_calls"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"] > 0


def test_check_counts_a_broken_point(tmp_path):
    stages = workloads.plan("couple-lowd", 0, tmp_path / "inputs", "tiny")
    child = run.run_child(stages, tmp_path / "out", 0.0, False, run.child_env())
    out = tmp_path / "out" / "rep0" / "couple"
    assert check.observe(stages[0], out, run.ROOT)[0] == 0
    summary = json.loads((out / "couple_summary.json").read_text())
    summary["runs"][0]["bound_holds"] = False
    (out / "couple_summary.json").write_text(json.dumps(summary))
    (out / summary["runs"][1]["trace_file"]).unlink()
    assert check.observe(stages[0], out, run.ROOT)[0] == 2
    ref = run.references()["tiny"]["couple-lowd"]["0"]
    attempted, failed, *_ = check.check_rep(stages, child["reps"][0], tmp_path / "out" / "rep0", run.ROOT, ref)
    assert (attempted, failed) == (stages[0]["points"], 2)


def test_reference_tolerance():
    ref = [0.5, 0.1, None]
    keys = ("c_empirical/0", "certified_h_max/0", "c_empirical/1")
    assert check.agrees(dict(zip(keys, [0.5 * (1 + 1e-7), 0.1 * (1 + 5e-5), None])), ref) == []
    off = check.agrees(dict(zip(keys, [0.5 * (1 + 1e-5), 0.1, 0.0])), ref)
    assert off == ["c_empirical/0", "c_empirical/1"]
    assert check.agrees(dict(zip(keys[:2], ref[:2])), ref) == sorted(keys[:2])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
