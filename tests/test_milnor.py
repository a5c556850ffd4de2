"""Graded Jacobian-ring dimensions: smooth reference, dual-route ideal
dimensions, coincidence threshold, global singularity count, saturation."""

import os
import subprocess
import sys

import pytest

from nodalcert.errors import InconsistentResult, NoStabilization
from nodalcert.field import FieldConfig
from nodalcert.fixtures import fermat, one_node
from nodalcert.hodge import ideal_of_points_dim
from nodalcert.milnor import (
    SMOOTH,
    JacobianContext,
    _basis_union,
    coincidence_threshold,
    dims_match_reference_through,
    saturation_graded,
    smooth_reference_dim,
    socle_degree,
    tjurina_count,
)
from nodalcert.monomials import space_dim


@pytest.mark.parametrize("n,d,expected", [(3, 4, 8), (3, 5, 12), (4, 5, 15), (5, 6, 24)])
def test_socle_degree_formula(n, d, expected):
    assert socle_degree(n, d) == expected


def test_smooth_reference_sequence_for_quartic_threefold():
    dims = [smooth_reference_dim(3, 4, k) for k in range(9)]
    assert dims == [1, 4, 10, 16, 19, 16, 10, 4, 1]


def test_smooth_reference_symmetry_and_support():
    n, d = 4, 5
    T = socle_degree(n, d)
    for k in range(T + 1):
        assert smooth_reference_dim(n, d, k) == smooth_reference_dim(n, d, T - k)
    assert smooth_reference_dim(n, d, T + 1) == 0
    assert smooth_reference_dim(n, d, -1) == 0
    assert smooth_reference_dim(n, d, 0) == 1


def test_fermat_ideal_dims_agree_between_routes():
    # the monomial shortcut and the generic elimination route must agree
    ctx = JacobianContext(fermat(3, 4).f, FieldConfig.prime_pair())
    for k in range(3, 8):
        assert ctx.jacobian_dim(k) == ctx.engine.rank_coo(ctx.generator_coo(k), f"generic/{k}")


def test_fermat_matches_smooth_reference_everywhere(roster):
    ctx = roster.ctx("fermat34")
    T = ctx.socle
    for k in range(T + 3):
        assert ctx.milnor_dim(k) == ctx.smooth_dim(k)
    assert coincidence_threshold(ctx) is SMOOTH
    assert tjurina_count(ctx) == 0


def test_nodal_threshold_and_tjurina(roster):
    assert coincidence_threshold(roster.ctx("A")) == 8
    assert tjurina_count(roster.ctx("A")) == 1
    assert coincidence_threshold(roster.ctx("B")) == 7
    assert tjurina_count(roster.ctx("B")) == 2


def test_the_tjurina_scan_stops_at_the_entry_cap_before_assembly(monkeypatch):
    from nodalcert import linalg, milnor

    assembled = []
    real = milnor.jacobian_generator_coo
    monkeypatch.setattr(milnor, "jacobian_generator_coo", lambda partials, k: assembled.append(k) or real(partials, k))
    ctx = JacobianContext(one_node(3, 4, 1).f, FieldConfig.prime_pair())
    # the scan ranks degrees 8, 9 and 10; the degree-10 slice is 480 x 286
    monkeypatch.setattr(linalg, "_ENTRY_CAP", 480 * 286 - 1)
    with pytest.raises(NoStabilization, match=r"degree-10 ideal slice is 480 x 286 .* past the feasible size cap"):
        tjurina_count(ctx)
    assert assembled == []
    monkeypatch.setattr(linalg, "_ENTRY_CAP", 480 * 286)
    assert tjurina_count(ctx) == 1
    assert assembled == [8, 9, 10]


def test_dims_match_reference_through(roster):
    ctx = roster.ctx("A")
    assert dims_match_reference_through(ctx, 8)
    assert not dims_match_reference_through(ctx, 9)


def test_quotient_reduction_fixes_standard_monomials(roster):
    for ctx in roster.both_modes("A", one_node(3, 4, 1)):
        table = ctx.quotient_reduction(4)
        basis = ctx.jacobian_basis(4)
        free = basis.free_columns()
        for F in ctx.field.realizations:
            tab = table[F.key]
            assert tab.shape == (space_dim(3, 4), len(free))
            # a standard monomial reduces to itself
            for slot, col in enumerate(free):
                row = tab[col]
                assert row[slot] == 1
                assert sum(1 for v in row if v) == 1


def test_saturation_matches_point_ideal_below_socle(roster):
    ctx = roster.ctx("A")
    pts = roster.fixture("A").points
    sat = saturation_graded(ctx, 4)
    assert sat.dim == ideal_of_points_dim(ctx, pts, 4) == 34


def test_saturation_equals_ideal_past_the_socle(roster):
    ctx = roster.ctx("A")
    k = ctx.socle + 1
    assert saturation_graded(ctx, k).dim == ctx.jacobian_basis(k).dim


def test_saturation_declines_infeasible_inputs():
    fx = one_node(5, 6, 808)
    ctx = JacobianContext(fx.f, FieldConfig.prime_pair())
    with pytest.raises(NoStabilization):
        saturation_graded(ctx, 4)


def test_quotient_reduction_sends_ideal_generators_to_zero(roster):
    # x_i * (a partial) lies in the degree-4 ideal slice: its class is zero
    for ctx in roster.both_modes("A", one_node(3, 4, 1)):
        table = ctx.quotient_reduction(4)
        coo = ctx.generator_coo(4)
        for F in ctx.field.realizations:
            # object arithmetic: a product of two reduced int64 matrices overflows
            classes = F.dense(coo).astype(object) @ table[F.key].astype(object)
            assert not F.normalize(classes).any()


def test_basis_union_refuses_different_ambients(roster):
    ctx = roster.ctx("A")
    a = ctx.jacobian_basis(3)
    b = ctx.jacobian_basis(4)
    with pytest.raises(InconsistentResult):
        _basis_union(ctx, a, b, "mismatch")
    c = ctx.engine.echelon_payload(a.payload, "same-ambient")
    assert _basis_union(ctx, a, c, "match").dim == a.dim


_STRIPPED_CHECKS = """
from nodalcert.errors import InconsistentResult
from nodalcert.field import FieldConfig
from nodalcert.fixtures import one_node
from nodalcert.milnor import JacobianContext, _basis_union

assert False, "asserts are not stripped"
ctx = JacobianContext(one_node(3, 4, 1).f, FieldConfig.prime_pair())
ctx.jacobian_dim(3)
for check in (
    lambda: ctx.engine._record("jacobian/3", 20, 10, 0),
    lambda: _basis_union(ctx, ctx.jacobian_basis(3), ctx.jacobian_basis(4), "mismatch"),
):
    try:
        check()
    except InconsistentResult:
        print("raised")
"""


def test_result_checks_survive_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _STRIPPED_CHECKS],
        capture_output=True,
        text=True,
        env=dict(os.environ),
        check=True,
    )
    assert out.stdout.split() == ["raised", "raised"]
