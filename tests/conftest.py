import tracemalloc

import pytest


def _traced_peak(fn):
    """Run ``fn()`` under tracemalloc: its result and the peak bytes it allocated.

    The peak is taken above what was already traced when ``fn`` started, so
    it holds whether or not tracing was on before.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` -> (fn's result, peak bytes fn allocated)."""
    return _traced_peak
