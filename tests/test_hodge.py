"""Top graded pieces of the Hodge filtration and the constancy check."""

import math

import pytest

from nodalcert.errors import MixedParameters
from nodalcert.exact import bareiss_rank
from nodalcert.field import FieldConfig
from nodalcert.fixtures import one_node
from nodalcert.hodge import (
    HodgeGradedDims,
    corollary_constancy_check,
    hodge_graded_dims,
    ideal_of_points_dim,
)
from nodalcert.milnor import JacobianContext
from nodalcert.monomials import monomial_basis, space_dim
from nodalcert.nodal import parse_point


def test_graded_dims_on_threefolds(roster):
    a = hodge_graded_dims(roster.ctx("A"))
    assert (a.gr_top, a.gr_next) == (1, 18)
    b = hodge_graded_dims(roster.ctx("B"))
    assert (b.gr_top, b.gr_next) == (1, 17)
    smooth = hodge_graded_dims(roster.ctx("fermat34"))
    assert (smooth.gr_top, smooth.gr_next) == (1, 19)


def test_fourfolds_do_not_identify_the_second_piece(roster):
    dims = hodge_graded_dims(roster.ctx("E"))
    assert dims.gr_top == roster.ctx("E").milnor_dim(0) == 1
    assert dims.next_absent


def test_ideal_of_points_dimensions(roster):
    ctx = roster.ctx("A")
    pts = roster.fixture("A").points
    assert ideal_of_points_dim(ctx, pts, 4) == 34
    assert ideal_of_points_dim(ctx, (), 4) == space_dim(3, 4)
    with pytest.raises(ValueError):
        from nodalcert.nodal import parse_point

        ideal_of_points_dim(ctx, (parse_point("[1 : 0 : 0 : 0 : 0]", 4),), 4)


def test_ideal_of_rational_points_is_the_corank_of_their_evaluations(roster):
    # the oracle: dim S_k minus the exact rank of the Fraction matrix of
    # monomial values, one row per point. The first four points lie on a
    # line, so they impose only min(4, k + 1) conditions in degree k.
    line = ("[1 : 1/2 : -2/3 : 3]", "[2 : 0 : 1 : -1/5]", "[3 : 1/2 : 1/3 : 14/5]", "[5 : 1/2 : 4/3 : 13/5]")
    points = [parse_point(t, 3) for t in line + ("[0 : 3/7 : 1 : 0]", "[0 : 0 : 0 : 1]", "[5 : -4 : 9/2 : 1/3]")]
    for ctx in (roster.ctx("A"), JacobianContext(one_node(3, 4, 1).f, FieldConfig.exact())):
        for k in range(5):
            for m in range(1, len(points) + 1):
                rows = [
                    [math.prod(c**e for c, e in zip(pt.coords, u)) for u in monomial_basis(3, k)]
                    for pt in points[:m]
                ]
                assert ideal_of_points_dim(ctx, points[:m], k) == space_dim(3, k) - bareiss_rank(rows)


@pytest.mark.parametrize("field", [FieldConfig.prime_pair(), FieldConfig.exact()], ids=["two-prime", "exact"])
def test_a_point_with_a_large_coordinate_imposes_one_condition(field):
    # 1000^8 is past the int64 bound of an integer COO matrix; the rows are
    # made in each realization instead
    ctx = JacobianContext(one_node(3, 4, 1).f, field)
    assert ideal_of_points_dim(ctx, (parse_point("[1 : 1000 : 7 : 3]", 3),), 8) == space_dim(3, 8) - 1
    rec = ctx.engine.rank_ledger["ideal-points/8/1"]
    assert (rec.rows, rec.cols, rec.rank) == (1, space_dim(3, 8), 1)


def test_constancy_check_grouping():
    mk = lambda top, nxt: HodgeGradedDims(3, 4, top, nxt)
    assert corollary_constancy_check([])
    assert corollary_constancy_check([(1, mk(1, 18)), (1, mk(1, 18)), (2, mk(1, 17))])
    assert not corollary_constancy_check([(1, mk(1, 18)), (1, mk(1, 17))])
    # differing counts may differ
    assert corollary_constancy_check([(1, mk(1, 18)), (2, mk(1, 17))])


def test_constancy_check_rejects_mixed_parameters():
    with pytest.raises(MixedParameters):
        corollary_constancy_check(
            [(1, HodgeGradedDims(3, 4, 1, 18)), (1, HodgeGradedDims(3, 5, 1, 18))]
        )
