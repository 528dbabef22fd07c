"""Shared test helpers."""

import gc
import tracemalloc

import pytest


def _traced_peak(fn):
    """(fn's result, the bytes tracemalloc saw allocated at fn's peak above
    what was live when fn started)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """The memory gates' measure: traced_peak(fn) -> (result, peak bytes)."""
    return _traced_peak
