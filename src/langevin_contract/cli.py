"""Batch experiment driver.

Subcommands (all take a JSON config, see README for the format):

    langevin-contract couple        --config cfg.json [--force] [--out DIR]
    langevin-contract certify      --config cfg.json [--out DIR]
    langevin-contract gaussian-scan --config cfg.json [--out DIR]
    langevin-contract glc-scan     --config cfg.json [--out DIR]

Exit codes: 0 success, 2 config error (a file that fails config.schema.json,
or a rule the schema cannot state, such as m <= M, a command's required keys
or a step constant that (h, gamma) breaks), 3 inadmissible parameters or
numerical divergence without --force.  Outputs are deterministic functions
of (config, seeds): every CSV is written by :func:`_write_csv`, whose ``%``
row template prints floats with 17 significant digits; grid order is the
config order.  Files are written atomically from a stream of text chunks,
so a writer holds one chunk of rows, never a whole file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain, count, islice
from pathlib import Path

import numpy as np

from . import certificates, gaussian, glc
from .coupling import (
    CouplingError,
    CouplingPoint,
    certified_rate,
    certified_stepsize_threshold,
    empirical_rate,
    positive_prefix,
    run_coupling_batch,
    run_synchronous_coupling,  # noqa: F401  (bench/child.py traces it here by name)
    verify_trace_bound,
)
from .integrators import OVERDAMPED_SCHEMES, IntegratorError, PhaseState, Scheme, StepParams
from .potentials import PerturbedQuadratic, Potential, PotentialError, QuadraticPotential


class ConfigError(ValueError):
    """Malformed or inconsistent experiment config."""


class DivergenceError(RuntimeError):
    """Inadmissible parameters or divergence encountered without --force."""


#: rows of a CSV, or strings of a JSON encoding, per chunk of text written: a CSV
#: chunk is ~11 kB.  Chunks of 256 to 4096 rows left the peak RSS of a run of short
#: traces 0.1-0.3 MB above that of writing each file as one string; 128 rows did not
_CHUNK = 128


def _atomic_write(path: Path, chunks) -> None:
    """Write ``chunks``, a string or an iterable of strings, to ``path`` through a
    temporary file in its directory: ``path`` appears whole or not at all, and an
    error while a chunk is made or written leaves neither file behind.  The file gets
    the mode a plain ``open`` would give it, 0o666 less the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}{os.urandom(8).hex()}.tmp"  # 64 random bits; O_EXCL takes no name that exists
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _batches(items):
    """Lists of :data:`_CHUNK` consecutive entries of ``items``, the last one shorter."""
    items = iter(items)
    while batch := list(islice(items, _CHUNK)):
        yield batch


def _write_csv(path: Path, header: str, row: str, rows) -> None:
    """The header line, then the ``%`` template ``row`` once per tuple of the
    iterable ``rows``, filled in one ``%`` operation per :data:`_CHUNK` rows:
    one chunk of rows and text is held at a time.  Floats go through ``%.17g``;
    no field written contains a comma, quote or newline, so none is quoted."""
    text = (row * len(batch) % tuple(chain.from_iterable(batch)) for batch in _batches(rows))
    _atomic_write(path, chain([header + "\n"], text))


def _floats(a: np.ndarray):
    """The entries of the 1-d array ``a`` as Python floats, made :data:`_CHUNK` at a time."""
    return chain.from_iterable(a[i : i + _CHUNK].tolist() for i in range(0, len(a), _CHUNK))


def _finite_or_none(obj):
    """``obj``, a tree of dicts, lists and scalars, with each float that is not finite made None.
    A dict or list that holds no such float is returned itself, so a finite tree is not copied."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        new = {key: _finite_or_none(value) for key, value in obj.items()}
    elif isinstance(obj, (list, tuple)):
        new = [_finite_or_none(value) for value in obj]
    else:
        return obj
    return obj if new == obj else new  # equal only where no entry changed: None equals no float


def _write_json(path: Path, obj) -> None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, written as it is encoded,
    with each float that is not finite written as null, so the file is strict JSON."""
    parts = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(_finite_or_none(obj))
    _atomic_write(path, chain(map("".join, _batches(parts)), "\n"))


#: each schema ``type``: its noun in a message and the Python types JSON parses it to
_TYPES = {
    "object": ("an object", (dict,)),
    "array": ("an array", (list,)),
    "string": ("a string", (str,)),
    "number": ("a finite number", (int, float)),
    "integer": ("a finite whole number", (int, float)),
}


@functools.cache
def _schema() -> dict:
    """config.schema.json, the one statement of a valid config.  Parsed once per
    process; every caller gets the same dict and only reads it."""
    return json.loads((Path(__file__).parent / "schemas" / "config.schema.json").read_text())


def load_config(path: str) -> dict:
    """The config at ``path``, once it satisfies config.schema.json (:func:`_check`)."""
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:  # not UTF-8, an integer beyond Python's digit limit, or too deep
        raise ConfigError(f"{path}: {e}")
    _check(cfg, _schema())
    return cfg


def _finite(xs: list, whole: bool = False) -> bool:
    """Whether every entry of ``xs`` is a finite number, and a whole one if ``whole``: a sum
    with an inf or nan term is not finite."""
    if not set(map(type, xs)) <= {int, float}:
        return False
    try:
        total = sum(xs, 0.0)  # from a float, so that an integer beyond the float range overflows
    except OverflowError:
        return False
    return math.isfinite(total) and (not whole or all(float(x).is_integer() for x in xs))


def _resolve(schema: dict) -> dict:
    """``schema``, or the subschema of config.schema.json that its ``$ref`` points to."""
    ref = schema.get("$ref")
    if ref is None:
        return schema
    return functools.reduce(dict.__getitem__, ref[2:].split("/"), _schema())


def _got(x) -> str:
    """``x`` in a message: an array or object by its size, an integer beyond the float
    range by its digit count, never a long repr."""
    if type(x) is list:
        return f"an array of {len(x)} entries"
    if type(x) is dict:
        return f"an object of {len(x)} entries"
    if type(x) is int and not _finite([x]):
        return f"an integer of {len(str(abs(x)))} digits"
    return repr(x)


def _error(value, schema: dict, where: str) -> str | None:
    """The message of the error :func:`_check` raises on ``value``, or None if it passes.
    Only the text is kept: the error's traceback would hold the caller's frame in a cycle."""
    try:
        _check(value, schema, where)
    except ConfigError as e:
        return str(e)


def _check(value, schema: dict, where: str = "") -> None:
    """Raise ConfigError unless ``value`` satisfies ``schema``, a subschema of config.schema.json.

    Reads the keywords the schema uses as Draft 2020-12 does, except that a ``number``
    is finite, an ``integer`` is a finite number with no fractional part, and a bool is
    neither; distinct numbers are distinct floats.  ``where`` is the JSON path of
    ``value``, '' for the whole config; each message names it, the rule and the
    offending entry.
    """
    schema = _resolve(schema)
    name = f"'{where}'" if where else "the config"
    kind = schema.get("type")
    if kind is not None:
        noun, classes = _TYPES[kind]
        finite = int not in classes or _finite([value], whole=kind == "integer")
        if type(value) not in classes or not finite:
            raise ConfigError(f"{name} must be {noun}, got {_got(value)}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{name} must be one of {', '.join(map(repr, schema['enum']))}, got {_got(value)}")
    if "const" in schema and value != schema["const"]:
        raise ConfigError(f"{name} must be {schema['const']!r}, got {_got(value)}")
    if type(value) in (int, float):
        if value < schema.get("minimum", value):
            raise ConfigError(f"{name} must be at least {schema['minimum']}, got {value!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ConfigError(f"{name} must be greater than {schema['exclusiveMinimum']}, got {value!r}")
        if value > schema.get("maximum", value):
            raise ConfigError(f"{name} must be at most {schema['maximum']}, got {value!r}")
    if type(value) is dict:
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{name} needs the key {key!r}")
        known = schema.get("properties", {})
        for key, item in value.items():
            if key in known:
                _check(item, known[key], f"{where}.{key}" if where else key)
            elif schema.get("additionalProperties") is False:
                raise ConfigError(f"unknown key {key!r} in {name}; known keys: {', '.join(known)}")
        dependent = [(key, {"required": keys}) for key, keys in schema.get("dependentRequired", {}).items()]
        for key, sub in dependent + list(schema.get("dependentSchemas", {}).items()):
            if key in value and (e := _error(value, sub, where)):
                raise ConfigError(f"{name} holds {key!r}, so {e}")
    if type(value) is list:
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{name} must hold {schema['minItems']} or more entries, got {len(value)}")
        items = schema.get("items")
        # an array of numbers is checked in one pass, and entry by entry only if that fails
        if items is not None and not (items == {"type": "number"} and _finite(value)):
            for i, x in enumerate(value):
                _check(x, items, f"{where}[{i}]")
        if schema.get("uniqueItems"):
            # the program reads a number as a float, so two integers that round to one float repeat
            as_float = items is not None and _resolve(items).get("type") == "number"
            seen = set()
            for x in value:  # hashable: every array the schema holds unique has scalar items
                key = float(x) if as_float else x
                if key in seen:
                    raise ConfigError(f"{name} repeats the entry {x!r}")
                seen.add(key)
    if "anyOf" in schema:
        errors = [_error(value, alt, where) for alt in schema["anyOf"]]
        if all(errors):
            # the message of each alternative of the value's type, so a bad entry of an array is named
            kinds = [_resolve(alt).get("type") for alt in schema["anyOf"]]
            fitting = [e for k, e in zip(kinds, errors) if k is None or type(value) in _TYPES[k][1]]
            raise ConfigError(" or ".join(fitting or errors))
    negated = schema.get("not")
    if negated is not None and not _error(value, negated, where):
        # the schema negates only key sets: one "required" list, or an "anyOf" of them
        named = set(negated.get("required", ()))
        for alt in negated.get("anyOf", ()):
            named.update(alt["required"])
        raise ConfigError(f"{name} must not hold {', '.join(repr(key) for key in value if key in named)}")


def make_potential(cfg: dict) -> Potential:
    """The target of the config's ``potential`` mapping, whose keys :func:`load_config` has
    checked: ``quadratic`` with one of ``matrix`` | ``diag`` | ``m`` and ``M`` (the 2-d
    anisotropic Gaussian), or ``perturbed_quadratic`` with the same keys plus ``eps``."""
    spec = cfg["potential"]
    try:
        if "matrix" in spec:
            base = QuadraticPotential(spec["matrix"])
        elif "diag" in spec:
            base = QuadraticPotential.diagonal(spec["diag"])
        else:
            base = QuadraticPotential.anisotropic_gaussian(float(spec["m"]), float(spec["M"]))
        if spec["name"] == "quadratic":
            return base
        return PerturbedQuadratic(base, float(spec.get("eps", 0.0)))
    except PotentialError as e:
        raise ConfigError(f"potential: {e}")


def _quadratic_target(cfg: dict, command: str) -> Potential:
    """The config's target for a command that reads only its m and M."""
    pot = make_potential(cfg)
    if isinstance(pot, PerturbedQuadratic):
        raise ConfigError(f"{command} sweeps the quadratic diag(m, M); a perturbed_quadratic target does not apply")
    return pot


def _grid(cfg: dict, section: str, key: str, required: bool = True) -> list[float]:
    val = cfg.get(section, {}).get(key, None if required else [])
    if val is None:
        raise ConfigError(f"config needs '{section}.{key}'")
    return [float(x) for x in (val if isinstance(val, list) else [val])]


def _out_dir(cfg: dict, args) -> Path:
    """The output directory; :func:`_atomic_write` creates it with its first file,
    so a run that fails before it writes leaves nothing behind."""
    return Path(args.out or cfg.get("output", {}).get("dir", "out"))


def _phase_state(cfg: dict, key: str, dim: int) -> PhaseState:
    raw = cfg.get("coupling", {}).get(key)
    if raw is None:
        raise ConfigError(f"config needs 'coupling.{key}'")
    try:
        arr = np.asarray(raw, dtype=float)
    except ValueError:  # ragged: rows of different lengths
        raise ConfigError(f"'coupling.{key}' must be [x, v] arrays of one length")
    if arr.shape == (dim,):
        arr = np.stack([arr, np.zeros(dim)])
    if arr.shape != (2, dim):
        raise ConfigError(f"'coupling.{key}' must be [x, v] with dim {dim}, got shape {arr.shape}")
    return PhaseState(arr[0], arr[1])


def cmd_couple(cfg: dict, args) -> int:
    pot = make_potential(cfg)
    schemes = [Scheme(name) for name in cfg["schemes"]]
    hs = _grid(cfg, "params", "h")
    gammas = _grid(cfg, "params", "gamma")
    seeds = [int(seed) for seed in cfg.get("params", {}).get("seeds", [0])]
    n_steps = int(cfg.get("params", {}).get("n_steps", 1000))
    z0 = _phase_state(cfg, "z0", pot.dim)
    z1 = _phase_state(cfg, "z0_tilde", pot.dim)
    out = _out_dir(cfg, args)

    # the whole grid, every scheme, is one coupled run; points in (scheme, h, gamma, seed) order
    grid = [(h, g, seed) for h in hs for g in gammas for seed in seeds]
    points = [
        CouplingPoint(StepParams(h, g), seed, certified_rate(s, pot.m, pot.M, g, h))
        for s in schemes
        for h, g, seed in grid
    ]
    blocked = [
        f"{p.rate.scheme.value} h={p.params.h} gamma={p.params.gamma}: " + "; ".join(p.rate.violated)
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
        (params, seed, rate), distances = trace.point, trace.distances
        s, h, g = rate.scheme, params.h, params.gamma
        bound, ok, first_bad = None, None, None
        if rate.admissible:
            bound = rate.bound_sq_steps(trace.n_steps, float(distances[0]))
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
        cols = [distances] if bound is None else [distances, bound]
        _write_csv(out / name, "scheme,h,gamma,seed,k,distance_sq,bound_sq", row, zip(count(), *map(_floats, cols)))
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
    schemes = [Scheme(name) for name in cfg["schemes"]]
    bad = [s.value for s in schemes if s not in certificates.CERTIFICATE_SCHEMES]
    if bad:
        ok = ", ".join(s.value for s in certificates.CERTIFICATE_SCHEMES)
        raise ConfigError(
            f"no direct certificate for {bad}; permuted splittings route through "
            f"bao/oab (certified_rate); certifiable schemes: {ok}"
        )
    gammas = _grid(cfg, "params", "gamma")
    mode = cfg.get("certify", {}).get("mode", "check")
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
    schemes = [Scheme(name) for name in cfg["schemes"]]
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
            thresholds = {lam: gaussian.stability_threshold(s, lam, g) for lam in (pot.m, pot.M)}
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
    schemes = [Scheme(name) for name in cfg["schemes"]]
    gammas = _grid(cfg, "scan", "gamma_grid", required=False) or list(glc.DEFAULT_GAMMA_GRID)
    hs = _grid(cfg, "params", "h", required=False) or [None]  # None: 80% of each threshold
    n_steps = int(cfg.get("params", {}).get("n_steps", 2000))
    seeds = [int(seed) for seed in cfg.get("params", {}).get("seeds", [0])]
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
