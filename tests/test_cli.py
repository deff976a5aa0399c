import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from importlib import resources
from itertools import chain, count
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langevin_contract import cli
from langevin_contract.certificates import CERTIFICATE_SCHEMES
from langevin_contract.cli import _CHUNK, _floats, _write_csv, _write_json, main
from langevin_contract.coupling import certified_rate, run_synchronous_coupling
from langevin_contract.glc import rate_collapse_scan
from langevin_contract.integrators import KINETIC_SCHEMES, PhaseState, Scheme, StepParams
from langevin_contract.potentials import QuadraticPotential

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def couple_config(out_dir, n_steps=50, gammas=(4.0,), schemes=("kinetic_em",), h=0.1):
    return {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": list(schemes),
        "params": {"h": [h], "gamma": list(gammas), "n_steps": n_steps, "seeds": [0]},
        "coupling": {"z0": [[-1.0, -1.0], [0.0, 0.0]], "z0_tilde": [[1.0, 1.0], [0.0, 0.0]]},
        "output": {"dir": str(out_dir)},
    }


def load_schema(name):
    with resources.files("langevin_contract.schemas").joinpath(name).open() as fh:
        return json.load(fh)


#: the one cap on params.n_steps: a run keeps n_steps + 1 float64 distances per grid point
N_STEPS_MAX = load_schema("config.schema.json")["properties"]["params"]["properties"]["n_steps"]["maximum"]


def test_couple_smoke_and_schema(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", couple_config(tmp_path / "out"))
    assert main(["couple", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "couple_summary.json").read_text())
    jsonschema.validate(summary, load_schema("couple_summary.schema.json"))
    run = summary["runs"][0]
    assert run["admissible"] and run["bound_holds"] and not run["diverged"]
    trace = (tmp_path / "out" / run["trace_file"]).read_text().splitlines()
    assert trace[0] == "scheme,h,gamma,seed,k,distance_sq,bound_sq"
    assert len(trace) == 52  # header + n_steps + 1
    # row 0: the start gap (x-difference (-2, -2), equal velocities) and a
    # certified bound at least as large
    row0 = dict(zip(trace[0].split(","), trace[1].split(",")))
    assert int(row0["k"]) == 0 and float(row0["distance_sq"]) == 8.0
    assert float(row0["bound_sq"]) >= float(row0["distance_sq"])


def test_couple_deterministic_outputs(tmp_path):
    cfg1 = write_config(tmp_path / "c1.json", couple_config(tmp_path / "o1"))
    cfg2 = write_config(tmp_path / "c2.json", couple_config(tmp_path / "o2"))
    assert main(["couple", "--config", cfg1]) == 0
    assert main(["couple", "--config", cfg2]) == 0
    for name in ["couple_summary.json", "couple_kinetic_em_h0.10000000000000001_g4_s0.csv"]:
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        assert a == b, name


def test_couple_runs_its_whole_grid_as_one_coupled_run(tmp_path, monkeypatch):
    calls = []
    run_coupling_batch = cli.run_coupling_batch

    def counting(potential, z0, z0_tilde, points, n_steps):
        calls.append([p.rate.scheme for p in points])
        return run_coupling_batch(potential, z0, z0_tilde, points, n_steps)

    monkeypatch.setattr(cli, "run_coupling_batch", counting)
    schemes = ("kinetic_em", "bao", "ses", "lm")
    cfg = write_config(tmp_path / "cfg.json", couple_config(tmp_path / "out", gammas=(4.0, 11.0), schemes=schemes))
    assert main(["couple", "--config", cfg, "--force"]) == 0
    assert calls == [[Scheme(s) for s in schemes for _ in range(2)]]


def test_couple_writes_one_trace_file_per_grid_point(tmp_path):
    # the two h agree to 6 significant digits: each run still gets its own file
    cfg = couple_config(tmp_path / "out")
    cfg["params"]["h"] = [0.1, 0.1000001]
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    runs = json.loads((tmp_path / "out" / "couple_summary.json").read_text())["runs"]
    assert [r["trace_file"] for r in runs] == [
        "couple_kinetic_em_h0.10000000000000001_g4_s0.csv",
        "couple_kinetic_em_h0.10000009999999999_g4_s0.csv",
    ]
    for r in runs:
        rows = (tmp_path / "out" / r["trace_file"]).read_text().splitlines()[1:]
        assert {float(row.split(",")[1]) for row in rows} == {r["h"]}


def test_couple_zero_steps(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", couple_config(tmp_path / "out", n_steps=0))
    assert main(["couple", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "couple_summary.json").read_text())
    run = summary["runs"][0]
    trace = (tmp_path / "out" / run["trace_file"]).read_text().splitlines()
    assert len(trace) == 2  # header + single distance row
    assert run["c_empirical"] is None


@pytest.mark.parametrize("command", ["couple", "glc-scan"])
def test_largest_seed_runs_and_the_next_exits_2(tmp_path, capsys, command):
    # a seed keys Philox as one uint64: 2**64 - 1 is the largest that fits
    cfg = couple_config(tmp_path / "out", n_steps=20)
    cfg["scan"] = {"gamma_grid": [4.0]}
    path = tmp_path / "cfg.json"
    for seed, code in ((2**64 - 1, 0), (2**64, 2)):
        cfg["params"]["seeds"] = [seed]
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == code
    assert "config error: 'params.seeds[0]' must be at most 18446744073709551615, got 18446744073709551616" in (
        capsys.readouterr().err
    )


def _render(header, rows) -> bytes:
    """The CSV bytes of ``rows`` field by field: ``.17g`` digits for a float, ``str`` otherwise."""
    lines = [header, *([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines).encode()


_TRACE_HEADER = ["scheme", "h", "gamma", "seed", "k", "distance_sq", "bound_sq"]


def test_trace_writer_matches_csv_writer_rendering(tmp_path):
    # a forced grid with admissible points, an inadmissible point that stays
    # finite (empty bound column) and diverging points whose traces end at
    # an inf or (baoab at h = 1.5, where its certified b^2 >= a) a nan
    # distance; each trace file equals the field-by-field rendering of the
    # point's one-point run, with its bound taken per int k
    cfg = couple_config(tmp_path / "out", n_steps=500, schemes=("lm", "kinetic_em", "baoab"))
    cfg["params"].update(h=[0.05, 0.2, 1.5], seeds=[0, 3])
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg), "--force"]) == 0
    runs = json.loads((tmp_path / "out" / "couple_summary.json").read_text())["runs"]
    pot = QuadraticPotential.anisotropic_gaussian(1.0, 4.0)
    z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
    z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))
    seen = set()
    for run in runs:
        s, h, g, seed = Scheme(run["scheme"]), run["h"], run["gamma"], run["seed"]
        rate = certified_rate(s, 1.0, 4.0, g, h)
        trace = run_synchronous_coupling(s, pot, z0, z1, StepParams(h, g), 500, seed, force=True)
        d0 = trace.distances[0]
        rows = [
            [s.value, h, g, seed, k, dk, rate.prefactor**2 * (1.0 - rate.c) ** (k - rate.shift) * d0]
            for k, dk in enumerate(trace.distances)
        ]
        if not rate.admissible:
            rows = [row[:-1] + [""] for row in rows]
        got = (tmp_path / "out" / run["trace_file"]).read_bytes()
        assert got == _render(_TRACE_HEADER, rows), run["trace_file"]
        if not run["admissible"] and not run["diverged"]:
            seen.add("inadmissible")
        seen.update(word for word in ("inf", "nan") if word.encode() in got)
    assert seen == {"inadmissible", "inf", "nan"}


#: signed zeros, the least subnormal and normal floats, the largest float, and the
#: inf and nan a diverged trace ends in
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, math.nan, 0.1]


@pytest.mark.parametrize("bounded", [True, False], ids=["bound", "no_bound"])
def test_trace_writer_writes_the_csv_writers_bytes(tmp_path, bounded):
    # couple's row template: the point's prefix as text, then k, distance and bound
    fields = ["bao", 0.1, 4.0, 7]
    bound = _EDGE_FLOATS[::-1] if bounded else None
    row = "bao,0.10000000000000001,4,7" + (",%d,%.17g,%.17g\n" if bounded else ",%d,%.17g,\n")
    cols = (range(len(_EDGE_FLOATS)), _EDGE_FLOATS) + ((bound,) if bounded else ())
    _write_csv(tmp_path / "trace.csv", ",".join(_TRACE_HEADER), row, list(zip(*cols)))
    rows = [[*fields, k, dk, bound[k] if bounded else ""] for k, dk in enumerate(_EDGE_FLOATS)]
    assert (tmp_path / "trace.csv").read_bytes() == _render(_TRACE_HEADER, rows)


@pytest.mark.parametrize("n", [0, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_csv_writer_chunks_write_the_whole_string_bytes(tmp_path, n):
    # one % operation per chunk of rows writes what one % operation over all rows wrote
    row = "bao,0.10000000000000001,4,7,%d,%.17g,%.17g\n"
    d = np.resize(_EDGE_FLOATS, n)
    rows = list(zip(range(n), d.tolist(), d[::-1].tolist()))
    _write_csv(tmp_path / "trace.csv", ",".join(_TRACE_HEADER), row, zip(count(), _floats(d), _floats(d[::-1])))
    whole = ",".join(_TRACE_HEADER) + "\n" + row * len(rows) % tuple(chain.from_iterable(rows))
    assert (tmp_path / "trace.csv").read_bytes() == whole.encode()


def test_json_writer_writes_the_json_dumps_bytes(tmp_path):
    # a float that is not finite is written as null, which strict JSON has
    obj = {"runs": [{"z": -0.0, "a": math.inf, "n": math.nan, "m": -math.inf, "x": _EDGE_FLOATS, "s": None}], "b": True}
    finite = [x if math.isfinite(x) else None for x in _EDGE_FLOATS]
    want = {"runs": [{"z": -0.0, "a": None, "n": None, "m": None, "x": finite, "s": None}], "b": True}
    _write_json(tmp_path / "out.json", obj)
    assert (tmp_path / "out.json").read_bytes() == (json.dumps(want, indent=2, sort_keys=True) + "\n").encode()
    assert cli._finite_or_none(want) is want  # a finite tree is written as it is, not copied


def test_a_write_that_fails_after_its_first_chunk_leaves_no_file(tmp_path):
    def chunks():
        yield "scheme,h\n"
        raise ValueError("row 2")

    with pytest.raises(ValueError, match="row 2"):
        cli._atomic_write(tmp_path / "out.csv", chunks())
    assert list(tmp_path.iterdir()) == []


def test_csv_writer_memory_does_not_grow_with_the_row_count(tmp_path, traced_peak):
    # couple's rows from a trace's distance and bound arrays; the whole text of
    # 2 * 10^5 rows is ~16 MB, its rows list and cell tuple ~40 MB more
    row = "bao,0.10000000000000001,4,7,%d,%.17g,%.17g\n"

    def peak(n):
        d = np.linspace(0.0, 1.0, n)
        rows = zip(count(), *map(_floats, (d, d[::-1])))
        return traced_peak(_write_csv, tmp_path / "trace.csv", ",".join(_TRACE_HEADER), row, rows)[1]

    assert peak(200_000) <= 1.25 * peak(2 * _CHUNK)


def test_couple_from_far_apart_starts_diverges_at_step_0(tmp_path):
    # the start distance overflows to inf: an admissible run that diverges at
    # once, which exits 3 without --force and is recorded with it
    cfg = couple_config(tmp_path / "out", n_steps=20)
    cfg["coupling"] = {"z0": [[-1e200, -1e200], [0.0, 0.0]], "z0_tilde": [[1e200, 1e200], [0.0, 0.0]]}
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["couple", "--config", path]) == 3
    assert main(["couple", "--config", path, "--force"]) == 0
    (run,) = json.loads((tmp_path / "out" / "couple_summary.json").read_text())["runs"]
    assert run["admissible"] and run["diverged"] and run["diverged_at"] == 0
    assert run["bound_holds"] is False and run["first_violation"] == 0
    assert run["c_empirical"] is None
    trace = (tmp_path / "out" / run["trace_file"]).read_text().splitlines()
    assert trace[1:] == ["kinetic_em,0.10000000000000001,4,0,0,inf,inf"]


def test_couple_without_seeds_writes_an_empty_summary(tmp_path):
    cfg = couple_config(tmp_path / "out")
    cfg["params"]["seeds"] = []
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    assert json.loads((tmp_path / "out" / "couple_summary.json").read_text()) == {"runs": []}


def test_couple_inadmissible_needs_force(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        couple_config(tmp_path / "out", gammas=(100.0,), h=0.25, n_steps=300),
    )
    assert main(["couple", "--config", cfg]) == 3
    assert not (tmp_path / "out").exists()  # refused before any run
    assert main(["couple", "--config", cfg, "--force"]) == 0
    summary = json.loads((tmp_path / "out" / "couple_summary.json").read_text())
    run = summary["runs"][0]
    assert run["diverged"] and run["diverged_at"] is not None and not run["admissible"]


def test_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["couple", "--config", str(bad)]) == 2
    assert main(["couple", "--config", str(tmp_path / "missing.json")]) == 2
    # text that is not UTF-8, an integer past Python's 4300-digit limit, and nesting past the recursion limit
    for text in (b"\xff{", b'{"schemes": ' + b"1" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000):
        bad.write_bytes(text)
        assert main(["couple", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path / "cfg.json", {"potential": {"name": "quadratic", "m": 1, "M": 4}})
    assert main(["couple", "--config", cfg]) == 2  # no schemes
    cfg2 = write_config(
        tmp_path / "cfg2.json",
        {
            "potential": {"name": "quadratic", "m": 1, "M": 4},
            "schemes": ["warp_drive"],
        },
    )
    assert main(["couple", "--config", cfg2]) == 2


def _replace(section, **fields):
    return lambda cfg: {**cfg, section: {**cfg[section], **fields}}


# malformed couple configs: each must exit 2, not raise or run on a coerced value
MALFORMED = {
    "h_not_a_number": _replace("params", h=["x"]),
    "h_negative": _replace("params", h=[-0.1]),
    "gamma_zero": _replace("params", gamma=[0.0]),
    "params_not_a_mapping": lambda cfg: {**cfg, "params": [1]},
    "top_level_array": lambda cfg: [cfg],
    "n_steps_1e400": _replace("params", n_steps=math.inf),
    "n_steps_fractional": _replace("params", n_steps=2.5),
    # past the cap, a run would ask numpy for a (points, n_steps + 1) array
    "n_steps_2_64_minus_1": _replace("params", n_steps=2**64 - 1),
    "n_steps_cap_plus_1": _replace("params", n_steps=N_STEPS_MAX + 1),
    "seed_boolean": _replace("params", seeds=[True]),
    "seed_2_64": _replace("params", seeds=[2**64]),  # beyond the uint64 Philox key
    "seeds_scalar": _replace("params", seeds=3),  # a list, even of one seed
    "z0_not_numeric": _replace("coupling", z0=[["x", 1.0], [0.0, 0.0]]),
    "potential_m_not_a_number": _replace("potential", m="x"),
    # numbers written as strings or booleans: float() would take them
    "h_string": _replace("params", h="0.05"),
    "potential_m_M_strings": _replace("potential", m="1", M="4"),
    "potential_m_boolean": _replace("potential", m=True),
    "potential_eps_string": _replace("potential", name="perturbed_quadratic", eps="0.1"),
    "potential_diag_string": _replace("potential", diag=["1", 4.0]),
    "potential_matrix_boolean": _replace("potential", matrix=[[True, 0.0], [0.0, 4.0]]),
    "z0_strings": _replace("coupling", z0=[["-1", "-1"], [0, 0]]),
    "z0_tilde_boolean": _replace("coupling", z0_tilde=[[True, 1.0], [0.0, 0.0]]),
    "output_dir_not_a_string": _replace("output", dir=1),
    # a repeated entry would run its points twice, into one trace file
    "schemes_repeated": lambda cfg: {**cfg, "schemes": ["bao", "bao"]},
    "h_repeated": _replace("params", h=[0.1, 0.1]),
    "gamma_repeated": _replace("params", gamma=[4.0, 4]),  # one number, as JSON compares them
    "seeds_repeated": _replace("params", seeds=[0, 0]),
    # admissible, but the SES noise variance underflows to 0 at gamma h ~ 1e-119
    "ses_h_1e-120": lambda cfg: {**_replace("params", h=[1e-120], gamma=[11.0])(cfg), "schemes": ["ses"]},
    # bao runs there, but every batch runs before the first write: no bao trace is left
    "bao_then_ses_h_1e-120": lambda cfg: {
        **_replace("params", h=[1e-120], gamma=[11.0])(cfg),
        "schemes": ["bao", "ses"],
    },
    # a key the program does not read: it would run as if the key were absent
    "potential_key_misspelt": _replace("potential", name="perturbed_quadratic", epss=0.5),
    "params_key_misspelt": _replace("params", n_step=100),
    "coupling_key_misspelt": _replace("coupling", z0_tlide=[[1.0, 1.0], [0.0, 0.0]]),
    "certify_key_misspelt": lambda cfg: {**cfg, "certify": {"mdoe": "table1"}},
    "section_unknown": lambda cfg: {**cfg, "scann": {"h_grid": [0.1]}},
    "top_level_key_unknown": lambda cfg: {**cfg, "n_steps": 100},
    "scheme_unknown": lambda cfg: {**cfg, "schemes": ["nope"]},
    # start states the schema admits and couple cannot run
    "z0_tilde_missing": lambda cfg: {**cfg, "coupling": {"z0": cfg["coupling"]["z0"]}},
    "z0_ragged": _replace("coupling", z0=[[1, 1], [0]]),
    "z0_dim_3_on_a_2d_target": _replace("coupling", z0=[[1, 1, 1], [0, 0, 0]]),
}
#: well-formed configs whose step constant breaks only in the run
RUN_ERRORS = {"ses_h_1e-120", "bao_then_ses_h_1e-120"}
#: the message of each start state that the schema admits and the command refuses
STATE_ERRORS = {
    "z0_tilde_missing": "config needs 'coupling.z0_tilde'",
    "z0_ragged": "'coupling.z0' must be [x, v] arrays of one length",
    "z0_dim_3_on_a_2d_target": "'coupling.z0' must be [x, v] with dim 2, got shape (2, 3)",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exits_2(tmp_path, capsys, name):
    cfg = MALFORMED[name](couple_config(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    # json writes math.inf as Infinity; the literal 1e400 also parses to inf
    path.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
    assert main(["couple", "--config", str(path)]) == 2
    assert f"config error: {STATE_ERRORS.get(name, '')}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["couple", "glc-scan"])
def test_n_steps_cap_is_the_schemas_maximum(tmp_path, capsys, command):
    # one cap, named in the message; no config at the cap is run, since it would allocate
    assert N_STEPS_MAX == 10**7  # 80 MB of distances per grid point
    cfg = couple_config(tmp_path / "out", n_steps=N_STEPS_MAX + 1)
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert f"'params.n_steps' must be at most {N_STEPS_MAX}, got {N_STEPS_MAX + 1}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(set(MALFORMED) - RUN_ERRORS - set(STATE_ERRORS)))
def test_config_schema_rejects_malformed_configs(tmp_path, name):
    cfg = MALFORMED[name](couple_config(tmp_path / "out"))
    cfg = json.loads(json.dumps(cfg).replace("Infinity", "1e400"))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(cfg, load_schema("config.schema.json"))


def test_config_schema_lists_every_scheme():
    items = load_schema("config.schema.json")["properties"]["schemes"]["items"]
    assert set(items["enum"]) == {s.value for s in Scheme}


def test_json_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    cfg = couple_config(tmp_path / "out")
    cfg["params"]["h"] = [10**400]
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert "config error: 'params.h[0]' must be a finite number, got an integer of 401 digits" in capsys.readouterr().err


def test_an_integer_beyond_the_float_range_is_named_by_its_digit_count(tmp_path, capsys):
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": ["bao"],
        "params": {"h": [10**4000], "gamma": [5.0]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["certify", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: 'params.h[0]' must be a finite number")
    assert line.endswith("got an integer of 4001 digits") and len(line) < 100


@pytest.mark.parametrize(
    "section, key, value, path",
    [
        ("potential", "diag", [10**400, -(10**400)], "potential.diag[0]"),
        ("potential", "diag", [10**400, -(10**400), 1.0], "potential.diag[0]"),
        ("coupling", "z0", [[10**400, -(10**400)], [0.0, 0.0]], "coupling.z0[0][0]"),
    ],
    ids=["diag_pair", "diag_pair_and_one", "z0_row_pair"],
)
def test_json_integers_beyond_the_float_range_that_cancel_exit_2(tmp_path, capsys, section, key, value, path):
    # their sum is finite, but neither entry is a float
    cfg = couple_config(tmp_path / "out")
    if section == "potential":
        cfg["potential"] = {"name": "quadratic"}
    cfg[section][key] = value
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert f"config error: '{path}' must be a finite number, got an integer of 401 digits" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: bao at an M whose certificate guard overflows the float range
_M_BEYOND_A_CHECK = {
    "schemes": ["bao"],
    "potential": {"M": 1e103},
    "params": {"h": [1e-120], "gamma": [1e110]},
}


@pytest.mark.parametrize(
    "command, patch",
    [
        ("couple", {"params": {"h": [-1.0]}}),
        ("certify", {"params": {"h": [-1.0]}}),
        ("certify", {"certify": {"mode": "grid"}}),
        ("gaussian-scan", {"scan": {"h_grid": [-1.0]}}),
        ("glc-scan", {"params": {"h": 0.1, "seeds": [2**64]}}),
        ("certify", _M_BEYOND_A_CHECK),
        ("certify", {**_M_BEYOND_A_CHECK, "certify": {"mode": "table1"}}),
        ("gaussian-scan", {"scan": {"h_grid": [0.1, 0.2, 0.1]}}),
        ("glc-scan", {"scan": {"gamma_grid": [10.0, 10.0]}}),
        ("certify", {"schemes": ["bao", "kinetic_em", "bao"]}),
    ],
    ids=[
        "couple_h",
        "certify_h",
        "certify_mode",
        "gaussian_scan_h_grid",
        "glc_scan_seed",
        "certify_check_M_overflow",
        "certify_table1_M_overflow",
        "gaussian_scan_h_grid_repeated",
        "glc_scan_gamma_grid_repeated",
        "certify_schemes_repeated",
    ],
)
def test_config_error_creates_no_output_directory(tmp_path, capsys, command, patch):
    cfg = couple_config(tmp_path / "out")
    cfg["scan"] = {"h_grid": [0.1]}
    for section, fields in patch.items():
        cfg[section] = {**cfg.get(section, {}), **fields} if isinstance(fields, dict) else fields
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_repeated_grid_entry_is_named(tmp_path, capsys):
    cfg = couple_config(tmp_path / "out")
    cfg["params"]["h"] = [0.1, 0.2, 0.1]
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert "config error: 'params.h' repeats the entry 0.1" in capsys.readouterr().err


def test_grid_integers_that_round_to_one_float_repeat(tmp_path, capsys):
    # they would run one grid point twice, into one trace file; JSON Schema holds them
    # distinct, so the schema's own validator accepts them
    cfg = couple_config(tmp_path / "out")
    cfg["scan"] = {"gamma_grid": [100000000000000000, 100000000000000001]}
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert "config error: 'scan.gamma_grid' repeats the entry 100000000000000001" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seeds_are_compared_as_integers(tmp_path):
    # a seed is read as an integer, so two seeds that round to one float are distinct seeds
    cfg = couple_config(tmp_path / "out")
    cfg["params"]["seeds"] = [2**64 - 2, 2**64 - 1]
    assert cli.load_config(write_config(tmp_path / "cfg.json", cfg))["params"]["seeds"] == [2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize(
    "command, scheme, grid, code",
    [
        # 1 - exp(-gamma h) rounds to 0: bao's and oab's records divide by it, and SES by gamma^2
        ("couple", "bao", {"params": {"h": [0.05], "gamma": [5e-324]}}, 2),
        ("couple", "oab", {"params": {"h": [0.05], "gamma": [5e-324]}}, 2),
        ("couple", "baoab", {"params": {"h": [0.05], "gamma": [5e-324]}}, 2),
        ("couple", "ses", {"params": {"h": [0.05], "gamma": [5e-324]}}, 2),
        # gamma^2 beyond the float range: kinetic_em's friction floor holds, SES's constants overflow
        ("couple", "kinetic_em", {"params": {"h": [1e-160], "gamma": [1e160]}}, 0),
        ("glc-scan", "kinetic_em", {"scan": {"gamma_grid": [1e160]}}, 0),
        ("couple", "ses", {"params": {"h": [1e-300], "gamma": [1e300]}}, 2),
        ("gaussian-scan", "ses", {"params": {"gamma": [1e300]}, "scan": {"h_grid": [0.1]}}, 2),
        # h^3 beyond the float range in baoab's certificate block
        ("certify", "baoab", {"params": {"h": [1e154], "gamma": [5.0]}}, 2),
        ("gaussian-scan", "baoab", {"params": {"gamma": [5.0]}, "scan": {"h_grid": [1e154]}}, 2),
    ],
)
def test_a_constant_beyond_the_float_range_is_no_traceback(tmp_path, capsys, command, scheme, grid, code):
    cfg = couple_config(tmp_path / "out", n_steps=5, schemes=(scheme,))
    cfg["params"] = {"n_steps": 5}
    for section, fields in grid.items():
        cfg[section] = {**cfg.get(section, {}), **fields}
    force = ["--force"] if command == "couple" else []
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg), *force]) == code
    assert ("config error:" in capsys.readouterr().err) == (code == 2)


def test_atomic_write_leaves_no_temp_file_when_the_write_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(tmp_path / "out.csv", "a,b\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, grid",
    [
        ("certify", {"params": {"h": [1e-120], "gamma": [11.0]}}),
        ("gaussian-scan", {"params": {"gamma": [11.0]}, "scan": {"h_grid": [1e-120]}}),
    ],
    ids=["certify", "gaussian-scan"],
)
def test_ses_underflowing_noise_exits_2(tmp_path, capsys, command, grid):
    # the couple case is ses_h_1e-120 in MALFORMED
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": ["ses"],
        "output": {"dir": str(tmp_path / "out")},
        **grid,
    }
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert "config error: SES noise covariance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # the run failed before its one write


def test_glc_scan_runs_each_listed_h(tmp_path):
    # params.h is a grid as in the other commands: per scheme, the rows of a
    # run at each listed h, in list order
    def scan(h):
        out = tmp_path / f"h{h}"
        cfg = {
            "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
            "schemes": ["baoab", "bao"],
            "params": {"h": h, "n_steps": 100, "seeds": [0, 1]},
            "scan": {"gamma_grid": [10.0, 100.0]},
            "output": {"dir": str(out)},
        }
        assert main(["glc-scan", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
        return (out / "glc_scan.csv").read_text().splitlines()

    both, first, second = scan([0.05, 0.2]), scan(0.05), scan([0.2])
    assert both[0] == first[0] == second[0]
    n = 4  # rows per (scheme, h): two seeds by two gammas
    assert both[1:] == first[1 : 1 + n] + second[1 : 1 + n] + first[1 + n :] + second[1 + n :]


def test_glc_scan_gives_a_nan_row_where_ses_noise_underflows(tmp_path):
    # the deviation step raises on SES's noise factor at gamma h ~ 1e-119;
    # that point alone reads nan, and the scan still writes its rows
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": ["ses"],
        "params": {"h": 1e-120, "n_steps": 50},
        "scan": {"gamma_grid": [11.0]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["glc-scan", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    header, line = (tmp_path / "out" / "glc_scan.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["scheme"] == "ses" and float(row["gamma"]) == 11.0
    assert math.isfinite(float(row["c_theoretical"]))
    assert row["c_empirical"] == row["deviation"] == "nan"


@pytest.mark.parametrize("command", ["certify", "gaussian-scan", "glc-scan"])
def test_only_couple_takes_force(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", couple_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_glc_scan_and_couple_force_agree_where_the_norm_degenerates(tmp_path):
    # bao at h = 1 has b^2 >= a at gamma = 1 and 3; both commands measure
    # the run in CertifiedRate.norm, so the fits agree
    gammas = (1.0, 3.0)
    cfg = couple_config(tmp_path / "out", n_steps=200, gammas=gammas, schemes=("bao",), h=1.0)
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg), "--force"]) == 0
    runs = json.loads((tmp_path / "out" / "couple_summary.json").read_text())["runs"]
    rows = rate_collapse_scan(Scheme.BAO, 1.0, 4.0, 1.0, gammas, n_steps=200)
    for g, row, run, want in zip(gammas, rows, runs, (-5.1702, -7.6031)):
        rate = certified_rate(Scheme.BAO, 1.0, 4.0, g, 1.0)
        assert rate.b**2 >= rate.a
        assert row.c_empirical == run["c_empirical"] == pytest.approx(want, abs=1e-4)


# malformed potential specs: each exits 2 with a message naming the key or entry and the problem
MALFORMED_POTENTIALS = {
    "diag_2d": ({"diag": [[1.0, 2.0]]}, "'potential.diag[0]' must be a finite number, got an array of 2 entries"),
    "diag_nan": ({"diag": [1.0, math.nan]}, "'potential.diag[1]' must be a finite number, got nan"),
    "diag_inf": ({"diag": [1.0, math.inf]}, "'potential.diag[1]' must be a finite number, got inf"),
    "diag_empty": ({"diag": []}, "'potential.diag' must hold 1 or more entries, got 0"),
    "diag_not_numeric": ({"diag": ["x", 1.0]}, "'potential.diag[0]' must be a finite number, got 'x'"),
    "matrix_1d": ({"matrix": [1.0, 2.0]}, "'potential.matrix[0]' must be an array, got 1.0"),
    "matrix_not_square": ({"matrix": [[1.0, 0.0]]}, "potential: matrix must be square"),
    "matrix_ragged": ({"matrix": [[1.0, 0.0], [0.0]]}, "potential: matrix must be an array of numbers"),
    "matrix_nan": ({"matrix": [[1.0, math.nan], [math.nan, 1.0]]}, "'potential.matrix[0][1]' must be a finite number"),
    "m_above_M": ({"m": 4.0, "M": 1.0}, "potential: need m <= M, got m=4.0, M=1.0"),
    # keys that do not apply: eps would be dropped, and diag would override M = 4
    "quadratic_with_eps": (
        {"m": 1, "M": 4, "eps": 0.5},
        "'potential' holds 'eps', so 'potential.name' must be 'perturbed_quadratic', got 'quadratic'",
    ),
    "diag_and_m_M": ({"diag": [1, 9], "m": 1, "M": 4}, "'potential' holds 'diag', so 'potential' must not hold 'm', 'M'"),
    "matrix_and_diag": (
        {"matrix": [[1.0, 0.0], [0.0, 4.0]], "diag": [1.0, 4.0]},
        "'potential' holds 'matrix', so 'potential' must not hold 'diag'",
    ),
    # no complete target
    "m_without_M": ({"m": 1.0}, "'potential' holds 'm', so 'potential' needs the key 'M'"),
    "no_target": (
        {},
        "'potential' needs the key 'matrix' or 'potential' needs the key 'diag' or 'potential' needs the key 'm'",
    ),
    "matrix_empty": ({"matrix": []}, "'potential.matrix' must hold 1 or more entries, got 0"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POTENTIALS))
def test_malformed_potential_exits_2(tmp_path, capsys, name):
    spec, problem = MALFORMED_POTENTIALS[name]
    cfg = couple_config(tmp_path / "out")
    cfg["potential"] = {"name": "quadratic", **spec}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity literals parse back
    assert main(["couple", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {problem}"), err


# what config.schema.json does not state: finiteness (a number, to cli._check, is finite),
# a square or unragged matrix, m <= M
SCHEMA_CANNOT = {"diag_nan", "diag_inf", "matrix_nan", "matrix_not_square", "matrix_ragged", "m_above_M"}


@pytest.mark.parametrize("name", sorted(set(MALFORMED_POTENTIALS) - SCHEMA_CANNOT))
def test_config_schema_rejects_keys_that_do_not_apply(tmp_path, name):
    # every malformed potential a schema can express: keys that do not apply or
    # are missing, arrays empty or of the wrong depth, entries that are not numbers
    cfg = couple_config(tmp_path / "out")
    cfg["potential"] = {"name": "quadratic", **MALFORMED_POTENTIALS[name][0]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(cfg, load_schema("config.schema.json"))
    cfg["potential"] = {"name": "perturbed_quadratic", "m": 1, "M": 4, "eps": 0.5}
    jsonschema.validate(cfg, load_schema("config.schema.json"))


def test_whole_float_n_steps_accepted(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", couple_config(tmp_path / "out", n_steps=5.0))
    assert main(["couple", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "couple_summary.json").read_text())
    trace = (tmp_path / "out" / summary["runs"][0]["trace_file"]).read_text().splitlines()
    assert len(trace) == 7  # header + n_steps + 1
    # a whole float is an integer, as Draft 2020-12 reads one: seed 3.0 runs as seed 3
    outputs = []
    for seed in (3, 3.0):
        cfg = couple_config(tmp_path / f"seed_{seed}", n_steps=5)
        cfg["params"]["seeds"] = [seed]
        assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / f"seed_{seed}").iterdir()})
    assert outputs[0] == outputs[1] and "couple_kinetic_em_h0.10000000000000001_g4_s3.csv" in outputs[0]


@pytest.mark.parametrize(
    "command, patch, problem",
    [
        ("certify", {"params": {"seeds": 0}}, "'params.seeds' must be an array, got 0"),
        (
            "gaussian-scan",
            {"params": {"seeds": [[-1, 0], [0, 1]]}},
            "'params.seeds[0]' must be a finite whole number, got an array of 2 entries",
        ),
        ("glc-scan", {"certify": {"mode": True}}, "'certify.mode' must be one of 'check', 'table1', got True"),
        ("couple", {"scan": {"gamma_grid": []}}, "'scan.gamma_grid' must hold 1 or more entries, got 0"),
    ],
    ids=["certify_seeds_scalar", "gaussian_scan_seeds_nested", "glc_scan_mode_bool", "couple_gamma_grid_empty"],
)
def test_every_command_checks_the_whole_file(tmp_path, capsys, command, patch, problem):
    # the schema describes one file: a broken section fails every command, also
    # one that does not read it
    cfg = couple_config(tmp_path / "out", n_steps=5)
    cfg["scan"] = {"h_grid": [0.1]}
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    for section, fields in patch.items():
        cfg[section] = {**cfg.get(section, {}), **fields}
    cfg["output"]["dir"] = str(tmp_path / "broken")
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert f"config error: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "broken").exists()


def test_glc_scan_rejects_a_non_positive_h(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "potential": {"name": "quadratic", "m": 1.0, "M": 1.0},
            "schemes": ["baoab"],
            "params": {"h": -0.1},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["glc-scan", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


def test_certify_check_mode(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
            "schemes": ["kinetic_em", "baoab"],
            "params": {"h": [0.05], "gamma": [8.0]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["certify", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "certificates.json").read_text())
    jsonschema.validate(doc, load_schema("certificates.schema.json"))
    assert all(rep["passed"] and rep["oracle_agrees"] for rep in doc["reports"])


def test_certify_table1_mode(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "potential": {"name": "quadratic", "m": 1.0, "M": 1.0},
            "schemes": ["bao"],
            "params": {"gamma": [5.0]},
            "certify": {"mode": "table1"},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["certify", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "certificates.json").read_text())
    jsonschema.validate(doc, load_schema("certificates.schema.json"))
    row = doc["rows"][0]
    h = row["certified_h_max"]
    eta = math.exp(-5.0 * h)
    assert (1 - eta) / math.sqrt(6.0) <= h <= 2 * (1 - eta) / math.sqrt(6.0)
    assert row["certified_h_max"] >= row["hypothesis_h_max"] > 0
    assert row["certified_rate_at_08h"] >= row["hypothesis_rate_at_08h"] > 0


def test_certify_table1_below_the_friction_floor(tmp_path):
    # gamma = 1 is below every scheme's floor at m = 1, M = 4: no stepsize
    # passes, so both thresholds read 0.0 and no rate is reported
    schemes = ["kinetic_em", "bao", "ses"]
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
            "schemes": schemes,
            "params": {"gamma": [1.0]},
            "certify": {"mode": "table1"},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["certify", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "out" / "certificates.json").read_text())
    jsonschema.validate(doc, load_schema("certificates.schema.json"))
    assert [row["scheme"] for row in doc["rows"]] == schemes
    for row in doc["rows"]:
        assert row["certified_h_max"] == 0.0 and row["hypothesis_h_max"] == 0.0, row
        assert row["hypothesis_rate_at_08h"] is None and row["certified_rate_at_08h"] is None, row


def _strict_json(path: Path):
    """The JSON file at ``path``, parsed as strict JSON: NaN and Infinity are errors."""

    def refuse(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_certify_far_past_stability_writes_strict_json_without_warnings(tmp_path):
    # at h = 1e200 bao's c is inf and the blocks of H overflow: the report fails,
    # with null where a number is not finite, and numpy warns of nothing
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": ["bao"],
        "params": {"h": [1e200], "gamma": [10.0]},
        "certify": {"mode": "check"},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["certify", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    doc = _strict_json(tmp_path / "out" / "certificates.json")
    jsonschema.validate(doc, load_schema("certificates.schema.json"))
    (rep,) = doc["reports"]
    assert not rep["passed"] and not rep["norm_valid"]
    assert rep["c"] is rep["min_margin_A"] is rep["oracle_min_eig"] is None


def test_couple_force_far_past_stability_writes_strict_json(tmp_path):
    # at h = 1e200 the certified c of bao, and of obabo, which shares its triple, is inf
    cfg = couple_config(tmp_path / "out", n_steps=5, schemes=("bao", "obabo"), h=1e200)
    assert main(["couple", "--force", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    doc = _strict_json(tmp_path / "out" / "couple_summary.json")
    jsonschema.validate(doc, load_schema("couple_summary.schema.json"))
    assert [run["c_theoretical"] for run in doc["runs"]] == [None, None]
    assert not any(run["admissible"] for run in doc["runs"])


@pytest.mark.parametrize("gamma, hypothesis", [(1e300, (5e-301, 0.0, 0.0)), (1e-300, (0.0, None, None))])
def test_certify_table1_at_the_ends_of_the_float_range_runs_without_warnings(tmp_path, gamma, hypothesis):
    # kinetic_em at m = M = 1: at gamma = 1e300 nothing is certified at 80% of the hypothesis
    # threshold 1/(2 gamma), so the certified rate reads 0.0; at gamma = 1e-300 no stepsize is
    # admissible.  The blocks and polynomials of the probes overflow, and numpy warns of nothing
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 1.0},
        "schemes": ["kinetic_em"],
        "params": {"gamma": [gamma]},
        "certify": {"mode": "table1"},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["certify", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    (row,) = _strict_json(tmp_path / "out" / "certificates.json")["rows"]
    assert row["certified_h_max"] == 0.0
    assert (row["hypothesis_h_max"], row["hypothesis_rate_at_08h"], row["certified_rate_at_08h"]) == hypothesis


def test_glc_scan_far_past_stability_runs_without_warnings(tmp_path):
    # bao at h = 1e200, gamma = 1e-300: the step overflows, so the gap to the limit step is nan
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 1.0},
        "schemes": ["bao"],
        "params": {"h": [1e200], "n_steps": 20},
        "scan": {"gamma_grid": [1e-300]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["glc-scan", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    lines = (tmp_path / "out" / "glc_scan.csv").read_text().splitlines()
    assert lines[1:] == ["bao,1e-300,9.9999999999999997e+199,inf,nan,False,nan"]


#: the schemes each command covers; certify's two modes count as two commands
EDGE_COMMANDS = {
    "couple": list(Scheme),
    "certify check": list(CERTIFICATE_SCHEMES),
    "certify table1": list(CERTIFICATE_SCHEMES),
    "gaussian-scan": list(KINETIC_SCHEMES),
    "glc-scan": list(Scheme),
}


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(sorted(EDGE_COMMANDS)),
    h=st.sampled_from([1e-300, 1e-8, 0.1, 10.0, 1e200]),
    gamma=st.sampled_from([1e-300, 1e-3, 1.0, 1e8, 1e300]),
    target=st.sampled_from([(1.0, 1.0), (1.0, 4.0), (1e-300, 1.0), (1.0, 1e300)]),
    n_steps=st.integers(0, 20),
)
def test_every_command_at_the_float_range_edges_exits_0_or_2_without_warnings(data, command, h, gamma, target, n_steps):
    # a traceback or a numpy warning fails the test (filterwarnings = error); every JSON output is strict
    scheme = data.draw(st.sampled_from(EDGE_COMMANDS[command]), label="scheme")
    command, _, mode = command.partition(" ")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = {
            "potential": {"name": "quadratic", "m": target[0], "M": target[1]},
            "schemes": [scheme.value],
            "params": {"h": [h], "gamma": [gamma], "n_steps": n_steps},
            "coupling": {"z0": [[-1.0, -1.0], [0.0, 0.0]], "z0_tilde": [[1.0, 1.0], [0.0, 0.0]]},
            "scan": {"h_grid": [h], "gamma_grid": [gamma]},
            "certify": {"mode": mode or "check"},
            "output": {"dir": str(out)},
        }
        argv = [command, "--config", write_config(Path(tmp) / "cfg.json", cfg)]
        code = main(argv + (["--force"] if command == "couple" else []))
        assert code in (0, 2)
        if code == 0:
            for path in out.glob("*.json"):
                _strict_json(path)


@pytest.mark.parametrize(
    "command, cfg, problem",
    [
        ("certify", {"schemes": ["abo"], "params": {"gamma": [5.0], "h": [0.1]}}, "certifiable schemes: kinetic_em, bao, oab"),
        ("certify", {"schemes": ["lm"], "params": {"gamma": [5.0], "h": [0.1]}}, "lm has no certificate block"),
        ("certify", {"params": {"gamma": [5.0]}, "certify": {"mode": "grid"}}, "'certify.mode' must be"),
        ("gaussian-scan", {"schemes": ["lm"], "params": {"gamma": [5.0]}, "scan": {"h_grid": [0.1]}}, "lm is overdamped"),
        (
            "gaussian-scan",
            {"schemes": ["bao", "overdamped_em"], "params": {"gamma": [5.0]}, "scan": {"h_grid": [0.1]}},
            "overdamped_em is overdamped",
        ),
        (
            "glc-scan",
            {"potential": {"name": "perturbed_quadratic", "m": 1.0, "M": 1.0, "eps": 0.5}, "params": {"h": 0.1}},
            "glc-scan sweeps the quadratic diag(m, M)",
        ),
        # it would report the modes of diag(m - eps, M + eps), which belong to no mode of the target
        (
            "gaussian-scan",
            {
                "potential": {"name": "perturbed_quadratic", "m": 1.0, "M": 1.0, "eps": 0.5},
                "params": {"gamma": [10.0]},
                "scan": {"h_grid": [0.1]},
            },
            "gaussian-scan sweeps the quadratic diag(m, M)",
        ),
        # a key the schema does not list is named together with the known ones
        ("certify", {"certify": {"mdoe": "table1"}}, "unknown key 'mdoe' in 'certify'; known keys: mode"),
        (
            "couple",
            {"scann": {"h_grid": [0.1]}},
            "unknown key 'scann' in the config; known keys: potential, schemes, params, coupling, scan, certify, output",
        ),
    ],
    ids=[
        "certify_abo",
        "certify_lm",
        "certify_unknown_mode",
        "gaussian_scan_lm",
        "gaussian_scan_overdamped_em",
        "glc_scan_perturbed",
        "gaussian_scan_perturbed",
        "certify_key_unknown",
        "section_unknown",
    ],
)
def test_command_rejects_what_it_does_not_cover(tmp_path, capsys, command, cfg, problem):
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": ["bao"],
        "output": {"dir": str(tmp_path / "out")},
        **cfg,
    }
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and problem in err, err
    assert not (tmp_path / "out").exists()  # the library raises before the first write


def test_bare_position_start_gets_zero_velocity(tmp_path):
    # z0: [-1, -1] is the pair [[-1, -1], [0, 0]]
    summaries = []
    for name, z0 in (("bare", [-1.0, -1.0]), ("pair", [[-1.0, -1.0], [0.0, 0.0]])):
        cfg = couple_config(tmp_path / name)
        cfg["coupling"]["z0"] = z0
        assert main(["couple", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
        summaries.append((tmp_path / name / "couple_summary.json").read_bytes())
    assert summaries[0] == summaries[1]


def test_gaussian_scan_cmd(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
            "schemes": ["kinetic_em", "bao"],
            "params": {"gamma": [5.0]},
            "scan": {"h_grid": [0.05, 0.08]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["gaussian-scan", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "gaussian_scan.csv").read_text().splitlines()
    assert lines[0] == "scheme,h,gamma,lambda,radius,contractive,stability_threshold"
    assert len(lines) == 1 + 2 * 2 * 2  # schemes x h x lambdas
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["scheme"] == "kinetic_em" and float(row["lambda"]) == 1.0
    expect = 2.0 / (5.0 + math.sqrt(25.0 - 4.0))
    assert float(row["stability_threshold"]) == pytest.approx(expect, abs=1e-6)


def test_gaussian_scan_writes_the_cap_where_the_threshold_search_reaches_it(tmp_path):
    # ses at gamma = 1e8 is still stable at the search cap, STABILITY_CAP = 1e6
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 1.0},
        "schemes": ["ses"],
        "params": {"gamma": [1e8]},
        "scan": {"h_grid": [0.1]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["gaussian-scan", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    header, *lines = (tmp_path / "out" / "gaussian_scan.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 2  # one per extreme curvature, here both lambda = 1
    assert all(row["stability_threshold"] == "1000000" for row in rows), rows


def test_gaussian_scan_far_past_stability_runs_without_warnings(tmp_path):
    # at h = 1e200 the mode matrices overflow: every mode reads non-contractive, and numpy warns of nothing
    schemes = ["kinetic_em", "bao", "oab", "abo", "boa", "oba", "aob", "obabo", "ses"]
    cfg = {
        "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
        "schemes": schemes,
        "params": {"gamma": [10.0]},
        "scan": {"h_grid": [1e200]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["gaussian-scan", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    header, *lines = (tmp_path / "out" / "gaussian_scan.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [row["scheme"] for row in rows] == [s for s in schemes for _ in range(2)]
    assert all(row["contractive"] == "False" and not float(row["radius"]) < 1.0 for row in rows), rows
    assert {row["radius"] for row in rows if row["scheme"] == "ses"} == {"inf"}


def test_glc_scan_cmd(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "potential": {"name": "quadratic", "m": 1.0, "M": 1.0},
            "schemes": ["baoab", "ses"],
            "params": {"n_steps": 300},
            "scan": {"gamma_grid": [10.0, 100.0, 1000.0]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert main(["glc-scan", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "glc_scan.csv").read_text().splitlines()
    assert lines[0] == "scheme,gamma,h,c_theoretical,c_empirical,admissible,deviation"
    assert len(lines) == 1 + 2 * 3
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    baoab = [r for r in rows if r["scheme"] == "baoab"]
    devs = [float(r["deviation"]) for r in baoab]
    assert devs == sorted(devs, reverse=True)  # deviation monotone in gamma


def test_glc_scan_rows_in_scheme_seed_gamma_order(tmp_path):
    # a scheme's sweep runs every (seed, gamma) point as one batch; a point's
    # row must not depend on which other points share the batch
    gammas = [3.0, 10.0, 100.0, 1e8]

    def scan(seeds):
        out = tmp_path / "_".join(map(str, seeds))
        cfg = {
            "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
            "schemes": ["baoab", "ses", "kinetic_em"],
            "params": {"n_steps": 200, "seeds": seeds},
            "scan": {"gamma_grid": gammas},
            "output": {"dir": str(out)},
        }
        assert main(["glc-scan", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
        return (out / "glc_scan.csv").read_text().splitlines()

    both, alone = scan([1, 2]), {seed: scan([seed]) for seed in (1, 2)}
    assert both[0] == alone[1][0] == alone[2][0]
    n = len(gammas)
    for i, scheme in enumerate(["baoab", "ses", "kinetic_em"]):
        block = both[1 + 2 * n * i : 1 + 2 * n * (i + 1)]
        assert [ln.split(",")[:2] for ln in block] == [[scheme, f"{g:.17g}"] for g in gammas * 2]
        assert block[:n] == alone[1][1 + n * i : 1 + n * (i + 1)]
        assert block[n:] == alone[2][1 + n * i : 1 + n * (i + 1)]
    assert both[1 : 1 + n] != both[1 + n : 1 + 2 * n]  # baoab's deviation reads the seed's draws


def test_empty_scheme_list_rejected(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "potential": {"name": "quadratic", "m": 1.0, "M": 4.0},
            "schemes": [],
            "scan": {"h_grid": [0.1]},
            "params": {"gamma": [4.0]},
        },
    )
    assert main(["gaussian-scan", "--config", cfg]) == 2


# subcommand arguments, main output and its schema (None for CSV outputs)
SHIPPED = {
    "fig1_couple": (["couple", "--force"], "couple_summary.json", "couple_summary.schema.json"),
    "certify_check": (["certify"], "certificates.json", "certificates.schema.json"),
    "certify_table1": (["certify"], "certificates.json", "certificates.schema.json"),
    "gaussian_scan": (["gaussian-scan"], "gaussian_scan.csv", None),
    "glc_scan": (["glc-scan"], "glc_scan.csv", None),
}

#: sha256 of each shipped config's output files (see _outputs_sha256), recorded
#: with numpy 2.4.6 on x86-64 Linux; a change that moves an output updates its
#: digest here and says which output moved and why
SHIPPED_SHA256 = {
    "fig1_couple": "28c555f66df4bbf0cd7c76c8fc66c03a60e2a7c21b0f045e137d20cf1eeb3053",
    "certify_check": "c61bdb5ff143130ff54561eadfcff3575e770c314267d74326d1f974a299456f",
    "certify_table1": "df8fce4539655066b87dc947e14e9397bdc7b0014de41ec2f21fae016a63eccf",
    "gaussian_scan": "6e8981264a2ec3921ed83cc965d99dc026f0db4d4e1931c37e95c7a7f09495b6",
    "glc_scan": "91bffeb76405364ffcfcf91f5552d0bda9aeefc2df0134faa769b71a13a43cec",
}


def test_every_shipped_config_is_pinned():
    assert {p.stem for p in CONFIGS.glob("*.json")} == set(SHIPPED) == set(SHIPPED_SHA256)


def _outputs_sha256(out: Path) -> str:
    """One sha256 over the files in ``out``, in sorted name order: each name, a NUL, its bytes."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_runs(tmp_path, name):
    argv, output, schema = SHIPPED[name]
    cfg = CONFIGS / f"{name}.json"
    jsonschema.validate(json.loads(cfg.read_text()), load_schema("config.schema.json"))
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert _outputs_sha256(tmp_path) == SHIPPED_SHA256[name]  # outputs byte-identical
    text = (tmp_path / output).read_text()
    if schema is None:
        assert len(text.splitlines()) > 1  # header plus rows
        return
    doc = json.loads(text)
    jsonschema.validate(doc, load_schema(schema))
    for run in doc.get("runs", []):
        assert (tmp_path / run["trace_file"]).is_file()


def test_the_cli_entry_point_writes_the_shipped_certificates_readable_by_all(tmp_path):
    # the installed command's module, run as its own process under umask 022: an
    # output gets the mode a plain open() gives it, -rw-r--r--
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["certify", "--config", str(CONFIGS / "certify_check.json"), "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "langevin_contract.cli", *argv], env=env, capture_output=True, umask=0o022, timeout=120
    )
    assert done.returncode == 0 and done.stderr == b"", done.stderr.decode()
    assert _outputs_sha256(tmp_path) == SHIPPED_SHA256["certify_check"]
    assert stat.S_IMODE((tmp_path / "certificates.json").stat().st_mode) == 0o644
