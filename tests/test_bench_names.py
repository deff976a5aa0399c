"""The benchmark's boundary with the library, checked in the unit tests.

The traced benchmark wraps library functions by name (bench/child.py::install),
and its workloads write configs the CLI must accept (bench/workloads.py::plan).
A refactor that drops or renames a wrapped name, changes a result type that a
span note reads, or narrows what a config may hold, fails here rather than in
a benchmark run.  So does a certificate search change that moves one byte of
a certify-table1 output recorded in bench/references.json.  bench/ is only
read.
"""

import importlib.util
import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from langevin_contract import cli
from langevin_contract.coupling import CounterStreams
from langevin_contract.integrators import PhaseState, Scheme, StepParams
from langevin_contract.potentials import QuadraticPotential

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: per noted span: a real call (args, kwargs) of the function it wraps, and the note it should give
NOTED_CALLS = {
    "coupling.run_synchronous_coupling": (
        (
            Scheme.KINETIC_EM,
            QuadraticPotential.anisotropic_gaussian(1.0, 4.0),
            PhaseState(np.array([-1.0, -1.0]), np.zeros(2)),
            PhaseState(np.array([1.0, 1.0]), np.zeros(2)),
            StepParams(0.1, 4.0),
            5,
        ),
        {"seed": 0},
        {"scheme": "kinetic_em", "steps": 5},
    ),
    "certificates.check_certificate": ((Scheme.BAO, 1.0, 4.0, 8.0, 0.05), {}, {"agrees": True}),
    "coupling.normals": ((CounterStreams(0), 0, 3, 2), {}, {"bytes": 48}),
    "integrators.simulate_mode_chain": (
        (Scheme.BAO, 1.0, StepParams(0.1, 2.0), 1.0, 0.0, np.zeros((4, 1))),
        {},
        {"steps": 4},
    ),
}


class _CheckingTracer:
    """Stands in for bench's Tracer: checks each name it is asked to wrap, wraps nothing."""

    def __init__(self):
        self.names = []
        self.notes = {}

    def wrap(self, owner, attr, name, note=None):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} (traced as {name}) is gone"
        self.names.append(name)
        if note is not None:
            self.notes.setdefault(name, []).append((getattr(owner, attr), note))


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_install_wraps_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # child.py imports its sibling speed.py
    child = _bench_module("child")
    tracer = _CheckingTracer()
    child.install(tracer)
    assert {"glc.glc_deviation", "glc.rate_collapse_scan", "coupling.run_synchronous_coupling"} <= set(tracer.names)
    # each span note reads a real result of the function it wraps
    assert set(tracer.notes) == set(NOTED_CALLS)
    for name, wrapped in tracer.notes.items():
        args, kwargs, want = NOTED_CALLS[name]
        for fn, note in wrapped:
            assert note(args, kwargs, fn(*args, **kwargs)) == want, name


WORKLOADS = _bench_module("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_bench_input_config_is_accepted(tmp_path, workload):
    # every variant's stage configs pass the config schema and the CLI's key check
    with resources.files("langevin_contract.schemas").joinpath("config.schema.json").open() as fh:
        schema = json.load(fh)
    paths = [
        stage["argv"][2]
        for v in range(WORKLOADS.VARIANTS)
        for stage in WORKLOADS.plan(workload, v, tmp_path / str(v), size="tiny")
        if stage["kind"] == "cli"
    ]
    assert paths
    for path in paths:
        jsonschema.validate(json.loads(Path(path).read_text()), schema)
        cli.load_config(path)


CHECK = _bench_module("check")
REFERENCES = json.loads((BENCH / "references.json").read_text())


@pytest.mark.parametrize(
    "size, variant",
    [("tiny", 0)] + [("full", v) for v in range(WORKLOADS.VARIANTS)],
    ids=lambda x: str(x),
)
def test_certify_table1_output_is_byte_identical_to_its_reference(tmp_path, size, variant):
    # the bench only counts identical outputs; here one moved byte of a
    # stepsize or rate search fails the unit tests
    (stage,) = WORKLOADS.plan("certify-table1", variant, tmp_path / "inputs", size=size)
    out = tmp_path / "out"
    assert cli.main(stage["argv"] + ["--out", str(out)]) == 0
    want = REFERENCES[size]["certify-table1"][str(variant)][stage["name"]]["digests"]
    assert [CHECK.digest(out / "certificates.json")] == want
