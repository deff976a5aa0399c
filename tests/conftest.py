import tracemalloc

import pytest
from hypothesis import settings

# the whole suite is meant to be deterministic run-to-run; derandomize the
# property tests so CI failures are reproducible
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)`` runs ``fn(*args)`` under tracemalloc and returns
    (its result, the peak bytes of Python allocations during the call)."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
