import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from langevin_contract import cli
from langevin_contract.cli import _write_csv, main
from langevin_contract.coupling import certified_rate, run_synchronous_coupling
from langevin_contract.glc import rate_collapse_scan
from langevin_contract.integrators import PhaseState, Scheme, StepParams
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
    for name in ["couple_summary.json", "couple_kinetic_em_h0.1_g4_s0.csv"]:
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        assert a == b, name


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
    assert "config error: 'params.seeds': seed must be in [0, 2**64)" in capsys.readouterr().err


def test_trace_writer_matches_csv_writer_rendering(tmp_path):
    # a forced grid with admissible points, an inadmissible point that stays
    # finite (empty bound column) and diverging points whose traces end at
    # an inf or (baoab at h = 1.5, where its certified b^2 >= a) a nan
    # distance; each trace file equals the csv.writer + _fmt rendering of
    # the point's one-point run, with its bound taken per int k
    cfg = couple_config(tmp_path / "out", n_steps=500, schemes=("lm", "kinetic_em", "baoab"))
    cfg["params"].update(h=[0.05, 0.2, 1.5], seeds=[0, 3])
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg), "--force"]) == 0
    runs = json.loads((tmp_path / "out" / "couple_summary.json").read_text())["runs"]
    pot = QuadraticPotential.anisotropic_gaussian(1.0, 4.0)
    z0 = PhaseState(np.array([-1.0, -1.0]), np.zeros(2))
    z1 = PhaseState(np.array([1.0, 1.0]), np.zeros(2))
    header = ["scheme", "h", "gamma", "seed", "k", "distance_sq", "bound_sq"]
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
        _write_csv(tmp_path / "ref.csv", header, rows)
        got = (tmp_path / "out" / run["trace_file"]).read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes(), run["trace_file"]
        if not run["admissible"] and not run["diverged"]:
            seen.add("inadmissible")
        seen.update(word for word in ("inf", "nan") if word.encode() in got)
    assert seen == {"inadmissible", "inf", "nan"}


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
    # admissible, but the SES noise variance underflows to 0 at gamma h ~ 1e-119
    "ses_h_1e-120": lambda cfg: {**_replace("params", h=[1e-120], gamma=[11.0])(cfg), "schemes": ["ses"]},
    # bao runs there, but every batch runs before the first write: no bao trace is left
    "bao_then_ses_h_1e-120": lambda cfg: {
        **_replace("params", h=[1e-120], gamma=[11.0])(cfg),
        "schemes": ["bao", "ses"],
    },
}
#: well-formed configs whose step constant breaks only in the run
RUN_ERRORS = {"ses_h_1e-120", "bao_then_ses_h_1e-120"}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exits_2(tmp_path, capsys, name):
    cfg = MALFORMED[name](couple_config(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    # json writes math.inf as Infinity; the literal 1e400 also parses to inf
    path.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
    assert main(["couple", "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(set(MALFORMED) - RUN_ERRORS))
def test_config_schema_rejects_malformed_configs(tmp_path, name):
    cfg = MALFORMED[name](couple_config(tmp_path / "out"))
    cfg = json.loads(json.dumps(cfg).replace("Infinity", "1e400"))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(cfg, load_schema("config.schema.json"))


def test_json_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    cfg = couple_config(tmp_path / "out")
    cfg["params"]["h"] = [10**400]
    assert main(["couple", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert "config error: 'params.h' entry must be finite, got 1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, fields",
    [
        ("couple", "params", {"h": [-1.0]}),
        ("certify", "params", {"h": [-1.0]}),
        ("certify", "certify", {"mode": "grid"}),
        ("gaussian-scan", "scan", {"h_grid": [-1.0]}),
        ("glc-scan", "params", {"h": 0.1, "seeds": [2**64]}),
    ],
    ids=["couple_h", "certify_h", "certify_mode", "gaussian_scan_h_grid", "glc_scan_seed"],
)
def test_config_error_creates_no_output_directory(tmp_path, capsys, command, section, fields):
    cfg = couple_config(tmp_path / "out")
    cfg["scan"] = {"h_grid": [0.1]}
    cfg[section] = {**cfg.get(section, {}), **fields}
    assert main([command, "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# malformed potential specs: each exits 2 with a message naming the problem
MALFORMED_POTENTIALS = {
    "diag_2d": ({"diag": [[1.0, 2.0]]}, "1-d array"),
    "diag_nan": ({"diag": [1.0, math.nan]}, "finite"),
    "diag_inf": ({"diag": [1.0, math.inf]}, "finite"),
    "diag_empty": ({"diag": []}, "non-empty"),
    "diag_not_numeric": ({"diag": ["x", 1.0]}, "array of numbers"),
    "matrix_1d": ({"matrix": [1.0, 2.0]}, "2-d array"),
    "matrix_not_square": ({"matrix": [[1.0, 0.0]]}, "square"),
    "matrix_ragged": ({"matrix": [[1.0, 0.0], [0.0]]}, "array of numbers"),
    "matrix_nan": ({"matrix": [[1.0, math.nan], [math.nan, 1.0]]}, "finite"),
    "m_above_M": ({"m": 4.0, "M": 1.0}, "m=4.0, M=1.0"),
    # keys that do not apply: eps would be dropped, and diag would override M = 4
    "quadratic_with_eps": ({"m": 1, "M": 4, "eps": 0.5}, "'eps' applies only to 'perturbed_quadratic'"),
    "diag_and_m_M": ({"diag": [1, 9], "m": 1, "M": 4}, "got 'diag', 'm', 'M'"),
    "matrix_and_diag": ({"matrix": [[1.0, 0.0], [0.0, 4.0]], "diag": [1.0, 4.0]}, "got 'matrix', 'diag'"),
    # no complete target
    "m_without_M": ({"m": 1.0}, "needs 'matrix', 'diag', or 'm' and 'M'"),
    "no_target": ({}, "needs 'matrix', 'diag', or 'm' and 'M'"),
    "matrix_empty": ({"matrix": []}, "non-empty"),
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
    assert "config error: potential:" in err and problem in err, err


# what a JSON schema cannot express: finiteness, a square or unragged matrix, m <= M
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


@pytest.mark.parametrize(
    "command, cfg, problem",
    [
        ("certify", {"schemes": ["abo"], "params": {"gamma": [5.0]}}, "certifiable schemes: kinetic_em, bao, oab"),
        ("certify", {"params": {"gamma": [5.0]}, "certify": {"mode": "grid"}}, "'certify.mode' must be"),
        ("gaussian-scan", {"schemes": ["lm"], "params": {"gamma": [5.0]}, "scan": {"h_grid": [0.1]}}, "['lm']"),
    ],
    ids=["certify_abo", "certify_unknown_mode", "gaussian_scan_lm"],
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


def test_gaussian_scan_writes_nan_where_the_threshold_search_fails(tmp_path):
    # ses at gamma = 1e8 is still stable at the search cap, so it has no threshold
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
    assert all(row["stability_threshold"] == "nan" for row in rows), rows


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
