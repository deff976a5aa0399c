"""Batch experiment driver.

Subcommands (all take a JSON config, see README for the format):

    langevin-contract couple        --config cfg.json [--force] [--out DIR]
    langevin-contract certify      --config cfg.json [--out DIR]
    langevin-contract gaussian-scan --config cfg.json [--out DIR]
    langevin-contract glc-scan     --config cfg.json [--out DIR]

Exit codes: 0 success, 2 config error (a key that config.schema.json does
not list among its properties is one), 3 inadmissible parameters or
numerical divergence without --force.  Outputs are deterministic functions
of (config, seeds): every CSV is one :func:`_write_csv` call, whose ``%``
row template prints floats with 17 significant digits; files are written
atomically, and grid order is the config order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

from . import certificates, gaussian, glc
from .coupling import (
    CouplingError,
    CouplingPoint,
    CounterStreams,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_coupling_batch,
    run_synchronous_coupling,  # noqa: F401  (bench/child.py traces it here by name)
    verify_trace_bound,
)
from .integrators import OVERDAMPED_SCHEMES, IntegratorError, PhaseState, Scheme, StepParams
from .potentials import PerturbedQuadratic, Potential, QuadraticPotential


#: the largest ``params.n_steps``: a run keeps n_steps + 1 float64 distances
#: per grid point, 80 MB at the cap (config.schema.json states it as ``maximum``)
N_STEPS_MAX = 10**7


class ConfigError(ValueError):
    """Malformed or inconsistent experiment config."""


class DivergenceError(RuntimeError):
    """Inadmissible parameters or divergence encountered without --force."""


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: str, row: str, rows: list[tuple]) -> None:
    """The header line, then the ``%`` template ``row`` once per entry of
    ``rows``, filled in one ``%`` operation.  Floats go through ``%.17g``;
    no field written contains a comma, quote or newline, so none is quoted."""
    _atomic_write(path, header + "\n" + row * len(rows) % tuple(chain.from_iterable(rows)))


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


@functools.cache
def _schema_sections() -> dict:
    """The packaged schema's properties: the one list of keys the program reads.
    Parsed once per process; every caller gets the same dict and only reads it."""
    with open(Path(__file__).parent / "schemas" / "config.schema.json") as fh:
        return json.load(fh)["properties"]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    sections = _schema_sections()
    _known_keys(cfg, sections, "the config")
    for name, spec in sections.items():
        if "properties" in spec and isinstance(cfg.get(name), dict):
            _known_keys(cfg[name], spec["properties"], f"'{name}'")
    return cfg


def _known_keys(block: dict, known: dict, where: str) -> None:
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}; known keys: {', '.join(known)}")


def _block(cfg: dict, section: str) -> dict:
    block = cfg.get(section, {})
    if not isinstance(block, dict):
        raise ConfigError(f"'{section}' must be a mapping")
    return block


def _number(x, what: str) -> float:
    """``x`` as a finite float; JSON strings, booleans and 1e400 are config errors."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{what} must be a number, got {x!r}")
    try:
        val = float(x)
    except OverflowError:  # an integer literal beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{what} must be finite, got {x!r}")
    return val


def _numbers(raw, what: str) -> None:
    """Hold every entry of ``raw``, a number or nested lists of them, to :func:`_number`'s rule."""
    for x in raw if isinstance(raw, list) else [raw]:
        if isinstance(x, list):
            _numbers(x, what)
            continue
        try:
            _number(x, "entry")
        except ConfigError as e:
            raise ConfigError(f"{what} must be an array of numbers: {e}") from None


def _distinct(vals: list, what: str) -> list:
    """``vals``, once no entry repeats: a repeated grid entry would run its points twice."""
    seen = set()
    for x in vals:
        if x in seen:
            raise ConfigError(f"{what} repeats the entry {x!r}")
        seen.add(x)
    return vals


def _schemes(cfg: dict) -> list[Scheme]:
    names = cfg.get("schemes")
    if not names or not isinstance(names, list):
        raise ConfigError("config needs a non-empty 'schemes' list")
    try:
        schemes = [Scheme(name) for name in names]
    except ValueError as e:
        known = ", ".join(s.value for s in Scheme)
        raise ConfigError(f"{e}; known schemes: {known}")
    _distinct([s.value for s in schemes], "'schemes'")
    return schemes


def make_potential(cfg: dict) -> Potential:
    """The target of the config's ``potential`` mapping: ``quadratic`` with exactly one of
    ``matrix`` | ``diag`` | ``m`` and ``M`` (the 2-d anisotropic Gaussian), or
    ``perturbed_quadratic`` with the same keys plus ``eps``.  Every number is checked before
    the name and the keys."""
    spec = cfg.get("potential")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'potential' mapping")
    try:
        num = {key: _number(spec[key], f"'{key}'") for key in ("m", "M", "eps") if key in spec}
        for key in ("diag", "matrix"):
            if key in spec:
                _numbers(spec[key], f"'{key}'")
        kind = spec.get("name")
        if kind not in ("quadratic", "perturbed_quadratic"):
            raise ConfigError(f"unknown potential name: {kind!r}")
        given = [key for key in ("matrix", "diag", "m", "M") if key in spec]
        if len({"m" if key == "M" else key for key in given}) > 1:
            keys = ", ".join(map(repr, given))
            raise ConfigError(f"give one of 'matrix', 'diag', or 'm' and 'M', got {keys}")
        if kind == "quadratic" and "eps" in spec:
            raise ConfigError("'eps' applies only to 'perturbed_quadratic'")
        if "matrix" in spec:
            base = QuadraticPotential(spec["matrix"])
        elif "diag" in spec:
            base = QuadraticPotential.diagonal(spec["diag"])
        elif "m" in num and "M" in num:
            base = QuadraticPotential.anisotropic_gaussian(num["m"], num["M"])
        else:
            raise ConfigError("potential spec needs 'matrix', 'diag', or 'm' and 'M'")
        if kind == "quadratic":
            return base
        return PerturbedQuadratic(base, num.get("eps", 0.0))
    except (TypeError, ValueError) as e:  # ConfigError and PotentialError are ValueErrors
        raise ConfigError(f"potential: {e}")


def _quadratic_target(cfg: dict, command: str) -> Potential:
    """The config's target for a command that reads only its m and M."""
    pot = make_potential(cfg)
    if isinstance(pot, PerturbedQuadratic):
        raise ConfigError(f"{command} sweeps the quadratic diag(m, M); a perturbed_quadratic target does not apply")
    return pot


def _grid(cfg: dict, section: str, key: str, required: bool = True) -> list[float]:
    val = _block(cfg, section).get(key)
    if val is None:
        if required:
            raise ConfigError(f"config needs '{section}.{key}'")
        return []
    vals = val if isinstance(val, list) else [val]
    if not vals:
        raise ConfigError(f"'{section}.{key}' must be non-empty")
    for x in vals:
        if _number(x, f"'{section}.{key}' entry") <= 0.0:
            raise ConfigError(f"'{section}.{key}' entry must be positive, got {x!r}")
    return _distinct([float(x) for x in vals], f"'{section}.{key}'")


def _seeds(cfg: dict) -> list[int]:
    seeds = _block(cfg, "params").get("seeds", [0])
    if not isinstance(seeds, list):
        raise ConfigError(f"'params.seeds' must be a list, got {seeds!r}")
    try:  # CounterStreams holds the rule for a seed: an integer that keys Philox
        return _distinct([CounterStreams(s).seed for s in seeds], "'params.seeds'")
    except CouplingError as e:
        raise ConfigError(f"'params.seeds': {e}")


def _n_steps(cfg: dict, default: int) -> int:
    raw = _block(cfg, "params").get("n_steps", default)
    n = _number(raw, "'params.n_steps'")
    if n < 0.0 or not n.is_integer():
        raise ConfigError(f"'params.n_steps' must be a non-negative whole number, got {raw!r}")
    if n > N_STEPS_MAX:
        raise ConfigError(f"'params.n_steps' must be at most {N_STEPS_MAX}, got {raw!r}")
    return int(raw)


def _out_dir(cfg: dict, args) -> Path:
    """The output directory; :func:`_atomic_write` creates it with its first file,
    so a run that fails before it writes leaves nothing behind."""
    out_dir = _block(cfg, "output").get("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"'output.dir' must be a string, got {out_dir!r}")
    return Path(args.out or out_dir)


def _phase_state(block, key: str, dim: int) -> PhaseState:
    raw = block.get(key)
    if raw is None:
        raise ConfigError(f"config needs 'coupling.{key}'")
    _numbers(raw, f"'coupling.{key}'")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"'coupling.{key}' must be numeric [x, v] arrays")
    if arr.shape == (dim,):
        arr = np.stack([arr, np.zeros(dim)])
    if arr.shape != (2, dim):
        raise ConfigError(f"'coupling.{key}' must be [x, v] with dim {dim}, got shape {arr.shape}")
    return PhaseState(arr[0], arr[1])


def cmd_couple(cfg: dict, args) -> int:
    pot = make_potential(cfg)
    schemes = _schemes(cfg)
    hs = _grid(cfg, "params", "h")
    gammas = _grid(cfg, "params", "gamma")
    seeds = _seeds(cfg)
    n_steps = _n_steps(cfg, 1000)
    coupling_block = _block(cfg, "coupling")
    z0 = _phase_state(coupling_block, "z0", pot.dim)
    z1 = _phase_state(coupling_block, "z0_tilde", pot.dim)
    out = _out_dir(cfg, args)

    # the whole grid, every scheme, is one coupled run; points in (scheme, h, gamma, seed) order
    grid = [(h, g, seed) for h in hs for g in gammas for seed in seeds]
    points = [
        CouplingPoint(StepParams(h, g), seed, certified_rate(s, pot.m, pot.M, g, h))
        for s in schemes
        for h, g, seed in grid
    ]
    blocked = [
        f"{p.rate.scheme.value} h={p.params.h} gamma={p.params.gamma}: " + "; ".join(p.rate.violated())
        for p in points
        if not p.rate.admissible and not args.force
    ]
    if blocked:
        for msg in blocked:
            print(f"inadmissible without --force: {msg}", file=sys.stderr)
        raise DivergenceError(f"{len(blocked)} inadmissible grid points")

    # the whole run ends before the first write, so a step constant that breaks leaves no output
    summary = []
    for trace in run_coupling_batch(pot, z0, z1, points, n_steps):
        (params, seed, rate), distances = trace.point, trace.distances.tolist()
        s, h, g = rate.scheme, params.h, params.gamma
        bound, ok, first_bad = None, None, None
        if rate.admissible:
            bound = rate.bound_sq_steps(trace.n_steps, distances[0])
            ok, first_bad = verify_trace_bound(trace, bound)
        try:
            c_hat = empirical_rate(positive_prefix(trace))
        except CouplingError:
            c_hat = None
        # 17 significant digits, so distinct grid points never share a file
        name = "couple_%s_h%.17g_g%.17g_s%d.csv" % (s.value, h, g, seed)
        # the point's constant prefix goes into the row template as text: a scheme name and numbers hold no %
        prefix = "%s,%.17g,%.17g,%d" % (s.value, h, g, seed)
        row = prefix + (",%d,%.17g,\n" if bound is None else ",%d,%.17g,%.17g\n")
        cols = (range(len(distances)), distances) if bound is None else (range(len(distances)), distances, bound)
        _write_csv(out / name, "scheme,h,gamma,seed,k,distance_sq,bound_sq", row, list(zip(*cols)))
        summary.append(
            {
                "scheme": s.value,
                "h": h,
                "gamma": g,
                "seed": seed,
                "admissible": rate.admissible,
                "c_theoretical": rate.c,
                "prefactor": rate.prefactor,
                "c_empirical": c_hat,
                "bound_holds": ok,
                "first_violation": first_bad,
                "diverged": trace.diverged,
                "diverged_at": trace.diverged_at,
                "trace_file": name,
            }
        )
    diverged = [r for r in summary if r["diverged"]]
    _write_json(out / "couple_summary.json", {"runs": summary})
    if diverged and not args.force:
        raise DivergenceError(f"{len(diverged)} runs diverged")
    return 0


def cmd_certify(cfg: dict, args) -> int:
    pot = make_potential(cfg)
    schemes = _schemes(cfg)
    bad = [s.value for s in schemes if s not in certificates.CERTIFICATE_SCHEMES]
    if bad:
        ok = ", ".join(s.value for s in certificates.CERTIFICATE_SCHEMES)
        raise ConfigError(
            f"no direct certificate for {bad}; permuted splittings route through "
            f"bao/oab (certified_rate); certifiable schemes: {ok}"
        )
    gammas = _grid(cfg, "params", "gamma")
    mode = _block(cfg, "certify").get("mode", "check")
    if mode not in ("check", "table1"):
        raise ConfigError(f"'certify.mode' must be 'check' or 'table1', got {mode!r}")
    hs = _grid(cfg, "params", "h") if mode == "check" else []
    out = _out_dir(cfg, args)

    if mode == "check":
        reports = [
            certificates.check_certificate(s, pot.m, pot.M, g, h).to_dict()
            for s in schemes
            for h in hs
            for g in gammas
        ]
        _write_json(out / "certificates.json", {"mode": "check", "reports": reports})
        return 0

    rows = []
    for s in schemes:
        for g in gammas:
            h_cert = certificates.max_certified_stepsize(s, pot.m, pot.M, g)
            h_hyp = certified_stepsize_threshold(s, pot.m, pot.M, g)
            h_use = glc.THRESHOLD_FRACTION * h_hyp
            rows.append(
                {
                    "scheme": s.value,
                    "m": pot.m,
                    "M": pot.M,
                    "gamma": g,
                    "certified_h_max": h_cert,
                    "hypothesis_h_max": h_hyp,
                    "hypothesis_rate_at_08h": certified_rate(s, pot.m, pot.M, g, h_use).c if h_hyp > 0.0 else None,
                    "certified_rate_at_08h": (
                        certificates.max_certified_rate(s, pot.m, pot.M, g, h_use) if h_hyp > 0.0 else None
                    ),
                }
            )
    _write_json(out / "certificates.json", {"mode": "table1", "rows": rows})
    return 0


def cmd_gaussian_scan(cfg: dict, args) -> int:
    pot = _quadratic_target(cfg, "gaussian-scan")
    schemes = _schemes(cfg)
    overdamped = [s.value for s in schemes if s in OVERDAMPED_SCHEMES]
    if overdamped:
        raise ConfigError(
            f"gaussian-scan covers kinetic schemes only (mode factor of {overdamped} is 1 - h lambda)"
        )
    gammas = _grid(cfg, "params", "gamma")
    h_grid = _grid(cfg, "scan", "h_grid")
    out = _out_dir(cfg, args)

    rows = []
    for s in schemes:
        for g in gammas:
            thresholds = {}
            for lam in (pot.m, pot.M):
                try:
                    thresholds[lam] = gaussian.stability_threshold(s, lam, g)
                except gaussian.SpectralError:
                    thresholds[lam] = math.nan
            rows += [
                (s.value, rep.h, g, rep.lam, rep.spectral_radius, rep.contractive, thresholds[rep.lam])
                for rep in gaussian.gaussian_scan(s, pot.m, pot.M, g, h_grid)
            ]
    _write_csv(
        out / "gaussian_scan.csv",
        "scheme,h,gamma,lambda,radius,contractive,stability_threshold",
        "%s,%.17g,%.17g,%.17g,%.17g,%s,%.17g\n",
        rows,
    )
    return 0


def cmd_glc_scan(cfg: dict, args) -> int:
    pot = _quadratic_target(cfg, "glc-scan")
    schemes = _schemes(cfg)
    gammas = _grid(cfg, "scan", "gamma_grid", required=False) or list(glc.DEFAULT_GAMMA_GRID)
    hs = _grid(cfg, "params", "h", required=False) or [None]  # None: 80% of each threshold
    n_steps = _n_steps(cfg, 2000)
    seeds = _seeds(cfg)
    out = _out_dir(cfg, args)

    # each (scheme, h) sweep, every (seed, gamma) point, is one batch
    rows = []
    for s in schemes:
        for h in hs:
            rows += [
                (s.value, r.gamma, r.h, r.c_theoretical, r.c_empirical, r.admissible, r.deviation)
                for r in glc.rate_collapse_scan(s, pot.m, pot.M, h, gammas, n_steps=n_steps, seeds=seeds)
            ]
    _write_csv(
        out / "glc_scan.csv",
        "scheme,gamma,h,c_theoretical,c_empirical,admissible,deviation",
        "%s,%.17g,%.17g,%.17g,%.17g,%s,%.17g\n",
        rows,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langevin-contract",
        description="Contraction experiments for Langevin discretizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("couple", cmd_couple),
        ("certify", cmd_certify),
        ("gaussian-scan", cmd_gaussian_scan),
        ("glc-scan", cmd_glc_scan),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: config output.dir)")
        if name == "couple":
            p.add_argument(
                "--force",
                action="store_true",
                help="run inadmissible parameters and record divergence instead of failing",
            )
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except (ConfigError, IntegratorError, certificates.CertificateError) as e:  # (h, gamma) or M out of range
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
