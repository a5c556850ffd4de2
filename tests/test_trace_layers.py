"""The benchmark's per-layer tracer still finds every name it patches."""

import importlib.util
from pathlib import Path

import numpy as np

from nodalcert.assembly import IntCOO
from nodalcert.field import FieldConfig
from nodalcert.linalg import LinearEngine


def _trace_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"
    spec = importlib.util.spec_from_file_location("trace_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_and_counts_an_engine_call():
    trace_layers = _trace_layers()
    tracer = trace_layers.Tracer()
    try:
        # raises KeyError if a patched name is gone
        tracer.install(trace_layers.TARGETS + [trace_layers.FIXTURE_TARGET])
        coo = IntCOO((2, 2), rows=np.array([0, 1]), cols=np.array([0, 1]), vals=np.array([1, 1]))
        assert LinearEngine(FieldConfig.prime_pair()).rank_coo(coo, "traced") == 2
    finally:
        tracer.restore()
    assert tracer.stats["linalg.rank_coo.calls"] == 1
    assert not hasattr(LinearEngine.rank_coo, "__wrapped__")
