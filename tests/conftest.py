"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: the peak of the memory that ``tracemalloc`` sees
    allocated while ``call()`` runs, in bytes, over what was live before it."""
    def measure(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
