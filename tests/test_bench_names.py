"""The traced benchmark wraps library functions by name (bench/child.py::install).

A refactor that drops or renames a wrapped name fails here, in the unit
tests, rather than in a traced benchmark run.  bench/ is only read.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


class _CheckingTracer:
    """Stands in for bench's Tracer: checks each name it is asked to wrap, wraps nothing."""

    def __init__(self):
        self.names = []

    def wrap(self, owner, attr, name, note=None):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} (traced as {name}) is gone"
        self.names.append(name)


def test_bench_install_wraps_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # child.py imports its sibling speed.py
    spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tracer = _CheckingTracer()
    child.install(tracer)
    assert {"glc.glc_deviation", "glc.rate_collapse_scan", "coupling.run_synchronous_coupling"} <= set(tracer.names)
