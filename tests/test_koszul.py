"""Syzygies of the partial derivatives: counted two ways, the vanishing
window, and the minimal nontrivial relation degree."""

import pytest

from nodalcert.assembly import jacobian_generator_coo, trivial_syzygy_coo
from nodalcert.errors import ScanExhausted
from nodalcert.koszul import (
    koszul_cohomology_dim,
    min_relation_degree,
    syzygy_dim,
    trivial_syzygy_dim,
)
from nodalcert.milnor import coincidence_threshold


def _syzygy_space(ctx, r):
    """Echelonized kernel of the degree-r multiplication map
    (S_r)^(n+1) -> S_(r+d-1): the transposed full generator matrix, every
    row x^a * g_j kept (the Koszul-cut ``ctx.generator_coo`` has the slice's
    row space but not this kernel)."""
    coo = jacobian_generator_coo(ctx.partials, r + ctx.d - 1).transposed()
    return ctx.engine.kernel_coo(coo, f"syzygy-map/{r}")


def test_syzygy_count_matches_explicit_kernel(roster):
    # rank arithmetic vs an explicit kernel basis: two independent routes
    ctx = roster.ctx("A")
    for r in range(2, 7):
        assert syzygy_dim(ctx, r) == _syzygy_space(ctx, r).dim


def test_trivial_syzygy_count_matches_explicit_span(roster):
    ctx = roster.ctx("A")
    for r in range(3, 7):
        span = ctx.engine.echelon_coo(trivial_syzygy_coo(ctx.partials, r), f"trivial-syzygy-span/{r}")
        assert trivial_syzygy_dim(ctx, r) == span.dim


def test_trivial_syzygies_are_syzygies(roster):
    ctx = roster.ctx("A")
    for r in range(3, 7):
        assert trivial_syzygy_dim(ctx, r) <= syzygy_dim(ctx, r)


def test_cohomology_vanishes_below_the_variable_count(roster):
    ctx = roster.ctx("A")
    for m in range(ctx.n):
        assert koszul_cohomology_dim(ctx, m) == 0


def test_cohomology_vanishes_through_the_certified_window(roster):
    ctx = roster.ctx("A")
    n, d = ctx.n, ctx.d
    top = (n * d - 1) // 2
    assert all(koszul_cohomology_dim(ctx, m) == 0 for m in range(top + 1))


def test_first_nontrivial_relation_location(roster):
    assert min_relation_degree(roster.ctx("A")) == 6
    assert min_relation_degree(roster.ctx("B")) == 5
    # the first nontrivial syzygy shows up in cohomology n steps later
    assert koszul_cohomology_dim(roster.ctx("A"), 9) > 0


def test_scan_cap_raises_when_exhausted(roster):
    with pytest.raises(ScanExhausted):
        min_relation_degree(roster.ctx("A"), q_max=4)
    with pytest.raises(ScanExhausted):
        min_relation_degree(roster.ctx("fermat34"))


def test_threshold_identity_on_small_fixtures(roster):
    for key in ("A", "B"):
        ctx = roster.ctx(key)
        ct = coincidence_threshold(ctx)
        assert ct == min_relation_degree(ctx) + ctx.d - 2


def test_a_syzygy_kernel_densifies_one_field_at_a_time():
    # both int64 matrices at once peaked at 12.09 MB; the basis is that of
    # the eagerly densified payload
    import tracemalloc

    import numpy as np

    from nodalcert.fixtures import one_node
    from nodalcert.milnor import JacobianContext

    f = one_node(3, 5, 1).f
    ctx = JacobianContext(f)
    r = 8
    expected = syzygy_dim(ctx, r)  # the rank-nullity count, outside the measured kernel
    coo = jacobian_generator_coo(ctx.partials, r + ctx.d - 1).transposed()
    tracemalloc.start()
    try:
        basis = ctx.engine.kernel_coo(coo, f"syzygy-map/{r}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.09e6
    assert basis.dim == expected

    eager = JacobianContext(f)
    payload = {F.key: F.dense(coo) for F in eager.field.realizations}
    reference = eager.engine.kernel_payload(payload, "eager")
    assert basis.pivots == reference.pivots
    assert basis.payload.keys() == reference.payload.keys()
    for key, rows in reference.payload.items():
        assert basis.payload[key].dtype == rows.dtype
        assert np.array_equal(basis.payload[key], rows)
