"""The benchmark's probes must find every program name they wrap.

perfbench/probes.py wraps functions and methods at the names their
callers bind. A renamed or deleted name would only show up as
missing_hooks in the benchmark output; this test fails instead.
"""

import importlib.util
import time
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve(probes):
    with probes.Tracer(time.perf_counter_ns).install() as missing:
        assert missing == []


def test_counter_hooks_resolve(probes):
    with probes.Counters().install() as missing:
        assert missing == []
