"""Correctness checks on one repetition's outputs, and the reference numbers.

``check_rep`` counts how many of a repetition's grid points failed.  A point
fails on a nonzero exit, a missing output or a failed output check; a stage
whose outputs are missing, malformed or off its reference numbers fails as a
whole.  Reference numbers and output digests were recorded at the seed
commit by ``record.py``.  Numbers must agree within ``TOLERANCES``; digests
are only counted (``identical``), since declared drift may change bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# field -> (relative, absolute) tolerance; a number passes when
# |value - ref| <= max(rel * |ref|, abs).  Closed forms are held tight;
# stepped chains allow reordered arithmetic; certificate bisections allow
# the drift an exact (grid-free) certificate would bring.
TOLERANCES = {
    "c_theoretical": (1e-9, 0.0),
    "c_empirical": (1e-6, 1e-12),
    "hypothesis_h_max": (1e-6, 0.0),
    "hypothesis_rate_at_08h": (1e-6, 0.0),
    "certified_h_max": (1e-4, 0.0),
    "certified_rate_at_08h": (1e-4, 0.0),
    "sum_c": (1e-9, 0.0),
    "sum_abs_margin_A": (1e-3, 0.0),
    "sum_abs_margin_ACB2": (1e-3, 0.0),
    "passed": (0.05, 1.0),
    "sum_radius": (1e-9, 0.0),
    "contractive": (0.0, 0.0),
    "sum_threshold": (1e-6, 0.0),
    "nan_threshold": (0.0, 0.0),
    "sum_h": (1e-6, 0.0),
    "sum_deviation": (1e-6, 1e-12),
    "nan_deviation": (0.0, 0.0),
    "mean_sq": (1e-6, 1e-12),
    "last": (1e-6, 1e-12),
}


def _schema(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "langevin_contract" / "schemas" / f"{name}.schema.json").read_text())


def _valid(doc, schema) -> bool:
    import jsonschema

    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError:
        return False
    return True


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(buf.count(b"\n") for buf in iter(lambda: fh.read(1 << 20), b""))


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(s: str) -> float:
    return math.nan if s in ("", "nan") else float(s)


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _key_numbers(rows, fields) -> dict:
    return {f"{f}/{i}": row[f] for i, row in enumerate(rows) for f in fields}


class StageFailure(Exception):
    """The stage's outputs are missing or malformed as a whole."""


def _couple(stage, out: Path, root: Path):
    doc = json.loads((out / "couple_summary.json").read_text())
    if not _valid(doc, _schema(root, "couple_summary")):
        raise StageFailure("couple_summary.json fails its schema")
    runs = doc["runs"]
    if len(runs) != stage["points"]:
        raise StageFailure(f"{len(runs)} runs, expected {stage['points']}")
    n_steps = stage["pair_steps"] // stage["points"]
    bad = 0
    for r in runs:
        ok = r["admissible"] and r["bound_holds"] is True and not r["diverged"] and _finite(r["c_empirical"])
        trace = out / r["trace_file"]
        ok = ok and trace.is_file() and _lines(trace) == n_steps + 2
        bad += not ok
    numbers = _key_numbers(runs, ("c_empirical", "c_theoretical"))
    files = ["couple_summary.json"] + [r["trace_file"] for r in runs]
    return bad, numbers, files


def _certificates(stage, out: Path, root: Path, mode: str):
    doc = json.loads((out / "certificates.json").read_text())
    if doc.get("mode") != mode or not _valid(doc, _schema(root, "certificates")):
        raise StageFailure("certificates.json fails its schema")
    items = doc["rows"] if mode == "table1" else doc["reports"]
    if len(items) != stage["points"]:
        raise StageFailure(f"{len(items)} entries, expected {stage['points']}")
    if mode == "table1":
        bad = sum(not r["certified_h_max"] > 0.0 for r in items)
        fields = ("certified_h_max", "hypothesis_h_max", "hypothesis_rate_at_08h", "certified_rate_at_08h")
        return bad, _key_numbers(items, fields), ["certificates.json"]
    bad = sum(not r["oracle_agrees"] for r in items)
    numbers = {}
    for scheme in sorted({r["scheme"] for r in items}):
        rs = [r for r in items if r["scheme"] == scheme]
        numbers[f"passed/{scheme}"] = sum(r["passed"] for r in rs)
        numbers[f"sum_c/{scheme}"] = sum(r["c"] for r in rs)
        numbers[f"sum_abs_margin_A/{scheme}"] = sum(abs(r["min_margin_A"]) for r in rs)
        numbers[f"sum_abs_margin_ACB2/{scheme}"] = sum(abs(r["min_margin_ACB2"]) for r in rs)
    return bad, numbers, ["certificates.json"]


def _gaussian(stage, out: Path, root: Path):
    rows = _csv_rows(out / "gaussian_scan.csv")
    if len(rows) != stage["points"]:
        raise StageFailure(f"{len(rows)} rows, expected {stage['points']}")
    bad = 0
    for r in rows:
        radius = _num(r["radius"])
        bad += not (math.isfinite(radius) and (r["contractive"] == "True") == (radius < 1.0))
    numbers = {}
    for scheme in sorted({r["scheme"] for r in rows}):
        rs = [r for r in rows if r["scheme"] == scheme]
        thr = [_num(r["stability_threshold"]) for r in rs]
        numbers[f"sum_radius/{scheme}"] = sum(_num(r["radius"]) for r in rs)
        numbers[f"contractive/{scheme}"] = sum(r["contractive"] == "True" for r in rs)
        numbers[f"sum_threshold/{scheme}"] = sum(t for t in thr if math.isfinite(t))
        numbers[f"nan_threshold/{scheme}"] = sum(not math.isfinite(t) for t in thr)
    return bad, numbers, ["gaussian_scan.csv"]


def _glc(stage, out: Path, root: Path):
    rows = _csv_rows(out / "glc_scan.csv")
    if len(rows) != stage["points"]:
        raise StageFailure(f"{len(rows)} rows, expected {stage['points']}")
    bad = sum(r["admissible"] != "True" for r in rows)
    numbers = {f"c_empirical/{i}": _num(r["c_empirical"]) for i, r in enumerate(rows)}
    for scheme in sorted({r["scheme"] for r in rows}):
        rs = [r for r in rows if r["scheme"] == scheme]
        dev = [_num(r["deviation"]) for r in rs]
        numbers[f"sum_h/{scheme}"] = sum(_num(r["h"]) for r in rs)
        numbers[f"sum_deviation/{scheme}"] = sum(d for d in dev if math.isfinite(d))
        numbers[f"nan_deviation/{scheme}"] = sum(not math.isfinite(d) for d in dev)
    return bad, numbers, ["glc_scan.csv"]


def _mode_chain(stage, out: Path, root: Path):
    bad, numbers = 0, {}
    for ch in stage["chains"]:
        path = out / f"{ch['scheme']}.npy"
        if not path.is_file():
            bad += 1
            continue
        xs = np.load(path)
        n = np.load(ch["noise"], mmap_mode="r").shape[0]
        bad += not (xs.shape == (n + 1,) and np.isfinite(xs).all())
        numbers[f"mean_sq/{ch['scheme']}"] = float(np.mean(xs * xs))
        numbers[f"last/{ch['scheme']}"] = float(xs[-1])
    return bad, numbers, []


_STAGES = {
    "couple": _couple,
    "table1": lambda st, out, root: _certificates(st, out, root, "table1"),
    "check": lambda st, out, root: _certificates(st, out, root, "check"),
    "gaussian": _gaussian,
    "glc": _glc,
    "mode_chain": _mode_chain,
}


def digest(path: Path) -> str:
    """First 16 hex digits of the file's sha256 (enough to tell files apart)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for buf in iter(lambda: fh.read(1 << 20), b""):
            h.update(buf)
    return h.hexdigest()[:16]


def observe(stage, out: Path, root: Path):
    """(failed points, reference numbers, output digests) of one stage run.

    Numbers are an ordered {key: value} mapping (None for nan); digests
    follow the stage's output files in order.
    """
    try:
        bad, numbers, files = _STAGES[stage["name"]](stage, out, root)
    except (OSError, ValueError, KeyError, TypeError, StageFailure):
        return stage["points"], None, []
    numbers = {k: (float(v) if _finite(v) else None) for k, v in numbers.items()}
    return bad, numbers, [digest(out / f) if (out / f).is_file() else None for f in files]


def agrees(numbers: dict, ref: list) -> list[str]:
    """Keys whose value is off the reference (recorded in the same order) by more than its tolerance."""
    if len(numbers) != len(ref):
        return sorted(numbers)
    off = []
    for (key, got), want in zip(numbers.items(), ref):
        if want is None or got is None:
            if want is not got:
                off.append(key)
            continue
        rel, ab = TOLERANCES[key.split("/")[0]]
        if abs(got - want) > max(rel * abs(want), ab):
            off.append(key)
    return off


def check_rep(stages, rep_result, rep_dir: Path, root: Path, reference: dict | None):
    """Check one repetition: (attempted, failed, identical files, compared files, problems)."""
    attempted = failed = identical = compared = 0
    problems = []
    for st, res in zip(stages, rep_result):
        attempted += st["points"]
        if res["rc"] != 0:
            failed += st["points"]
            problems.append(f"{st['name']}: exit {res['rc']} {res.get('error') or ''}".strip())
            continue
        bad, numbers, digests = observe(st, rep_dir / st["name"], root)
        if numbers is None:
            failed += st["points"]
            problems.append(f"{st['name']}: outputs missing or malformed")
            continue
        ref = (reference or {}).get(st["name"])
        if ref is None:
            failed += st["points"]
            problems.append(f"{st['name']}: no reference recorded")
            continue
        compared += len(ref["digests"])
        identical += sum(got == want for got, want in zip(digests, ref["digests"]))
        off = agrees(numbers, ref["numbers"])
        if off:
            failed += st["points"]
            problems.append(f"{st['name']}: off reference at {off[:5]}")
            continue
        failed += bad
        if bad:
            problems.append(f"{st['name']}: {bad} of {st['points']} points fail their checks")
    return attempted, failed, identical, compared, problems
