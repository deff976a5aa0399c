"""config.schema.json is the one statement of a valid config.

``cli.load_config`` holds every config to the packaged schema through its own
small validator, ``cli._check``.  The property tests here mutate valid configs
the ways a hand-written config goes wrong (a misspelt key, a section dropped
or added, a wrong type, a boundary number, a repeated entry) and check that
the validator decides as the reference validator does, and that no command
ends in a traceback (exit code 1) on any of them.
"""

import copy
import inspect
import json
import math
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from langevin_contract import cli

SCHEMA = json.loads(resources.files("langevin_contract.schemas").joinpath("config.schema.json").read_text())
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)
COMMANDS = ("couple", "certify", "gaussian-scan", "glc-scan")

#: words in the schema that are not validation keywords: annotations, and the $defs that $ref points into
ANNOTATIONS = {"$schema", "title", "$defs"}


def _keywords(schema: dict) -> set[str]:
    """Every keyword used in ``schema`` and its subschemas."""
    found = set(schema)
    subschemas = [*schema.get("$defs", {}).values(), *schema.get("properties", {}).values()]
    subschemas += [*schema.get("dependentSchemas", {}).values(), *schema.get("anyOf", [])]
    subschemas += [schema[key] for key in ("items", "not") if key in schema]
    for sub in subschemas:
        found |= _keywords(sub)
    return found


def test_the_validator_handles_every_keyword_of_the_schema():
    source = inspect.getsource(cli._check) + inspect.getsource(cli._resolve)
    keywords = _keywords(SCHEMA) - ANNOTATIONS
    assert {word for word in keywords if f'"{word}"' not in source.replace("'", '"')} == set()


#: valid configs that every command reads: tiny grids, short runs, one of each target kind
POTENTIALS = [
    {"name": "quadratic", "m": 1.0, "M": 4.0},
    {"name": "quadratic", "diag": [1.0, 4.0]},
    {"name": "perturbed_quadratic", "matrix": [[2.0, 0.5], [0.5, 3.0]], "eps": 0.5},
]
SCHEMES = ["kinetic_em", "bao", "baoab", "ses", "lm", "oba"]


def _base(potential: dict, schemes: list[str], mode: str) -> dict:
    return {
        "potential": copy.deepcopy(potential),
        "schemes": list(schemes),
        "params": {"h": [0.02], "gamma": [11.0], "n_steps": 4, "seeds": [0, 7]},
        "coupling": {"z0": [[-1.0, -1.0], [0.0, 0.0]], "z0_tilde": [1.0, 1.0]},
        "scan": {"h_grid": [0.05, 0.1], "gamma_grid": [10.0]},
        "certify": {"mode": mode},
        "output": {"dir": "out"},
    }


#: what replaces a value: boundary numbers, and values of the wrong type
BOUNDARY = [0, -1, 1e-320, 1e308, 2**64 - 1, 2**64, math.inf, True, [], 5.0, 0.5, [10**400, -(10**400), 1.0]]
WRONG_TYPE = ["x", None, {}, [[]], [0.1, "x"]]
#: keys a mutation may add: every key the schema lists, and some it does not
NEW_KEYS = ["potential", "scan", "certify", "extra", "eps", "diag", "m", "M", "h", "seeds", "mode", "dir", "z0"]


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _get(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@st.composite
def configs(draw):
    """A valid config with up to three mutations."""
    schemes = draw(st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=2, unique=True))
    # the config sits under one key, so that a mutation can replace the whole of it
    cfg = {"cfg": _base(draw(st.sampled_from(POTENTIALS)), schemes, draw(st.sampled_from(["check", "table1"])))}
    for _ in range(draw(st.integers(0, 3))):
        path = ("cfg", *draw(st.sampled_from(list(_paths(cfg["cfg"])))))
        parent, key = _get(cfg, path[:-1]), path[-1]
        target = parent[key]
        kind = draw(st.sampled_from(["replace", "drop", "misspell", "add", "repeat"]))
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(BOUNDARY + WRONG_TYPE)))
        elif kind == "drop" and len(path) > 1:
            del parent[key]
        elif kind == "misspell" and len(path) > 1 and isinstance(parent, dict):
            parent[key + "x"] = parent.pop(key)
        elif kind == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(NEW_KEYS))] = copy.deepcopy(draw(st.sampled_from([[0.1], 1.0, {}, "check"])))
        elif kind == "repeat" and isinstance(target, list) and target:
            target.append(copy.deepcopy(target[0]))
    return cfg["cfg"]


def _non_finite(node) -> bool:
    """Whether a number in ``node`` is inf, nan or an integer beyond the float range: the
    schema's ``number`` admits it, cli's does not."""
    if isinstance(node, dict):
        return any(map(_non_finite, node.values()))
    if isinstance(node, list):
        return any(map(_non_finite, node))
    if type(node) is int:
        return abs(node) > sys.float_info.max
    return isinstance(node, float) and not math.isfinite(node)


def _accepts(path: Path) -> bool:
    try:
        cli.load_config(str(path))
    except cli.ConfigError:
        return False
    return True


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs())
def test_load_config_accepts_exactly_what_the_schema_accepts(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        accepted = _accepts(path)
    if _non_finite(cfg):
        assert not accepted
    else:
        assert accepted == REFERENCE.is_valid(cfg), list(REFERENCE.iter_errors(cfg))


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs(), command=st.sampled_from(COMMANDS), force=st.booleans())
def test_no_command_ends_in_a_traceback(cfg, command, force):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        code = cli.main(argv + (["--force"] if force and command == "couple" else []))
        assert code in (0, 2, 3)
        if not _accepts(path):
            assert code == 2
