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


def test_the_tracer_sees_every_engine_name_in_a_whole_job():
    import nodalcert
    from nodalcert.fixtures import one_node
    from nodalcert.milnor import JacobianContext

    trace_layers = _trace_layers()
    tracer = trace_layers.Tracer()
    fx = one_node(3, 4, 101)
    try:
        tracer.install(trace_layers.TARGETS)
        # called through the package, where the tracer patched them
        ctx = JacobianContext(fx.f, FieldConfig.prime_pair())
        assert nodalcert.certify_nodal(ctx, fx.points).kind == "Nodal"
        assert nodalcert.pairing_injective(ctx)
        # certify ranks no slice with rank_coo: past the socle degree it takes
        # annihilators; the syzygy counts below it do, as in perfbench's jobs
        assert not any(nodalcert.koszul_cohomology_dim(ctx, m) for m in range(6))
        assert all(nodalcert.variable_multiplication_kernel(ctx, t).dim == 0 for t in range(4))
        nodalcert.hodge_graded_dims(ctx)
        assert nodalcert.saturation_graded(ctx, 2 * ctx.d - 4).dim > 0
    finally:
        tracer.restore()
    for name in ("rank_coo", "rank_payload", "echelon_payload", "kernel_payload"):
        assert tracer.stats[f"linalg.{name}.calls"] > 0, name
    # a Jacobian slice's basis is a view of its quotient table, which
    # annihilator_coo eliminates: no job asks for echelon_coo by name
    assert tracer.stats["linalg.echelon_coo.calls"] == 0
    assert tracer.stats["linalg.eliminations"] > 0
    assert tracer.stats["kernels.rref_mod.calls"] > 0
