"""Nodality certification: point parsing, local checks, the one global
check on both routes, and the fail-closed behavior on every bad input."""

from fractions import Fraction

import numpy as np
import pytest

from nodalcert.cli import main
from nodalcert.errors import DegeneratePoint, NotSingular
from nodalcert.field import FieldConfig
from nodalcert.fixtures import fermat, multi_node, one_node
from nodalcert.milnor import JacobianContext
from nodalcert.monomials import space_dim
from nodalcert.nodal import (
    ProjectivePoint,
    certify_nodal,
    hessian_rank_at,
    is_singular_at,
    parse_point,
)
from nodalcert.polynomials import compose_linear, parse_polynomial

_ROUTES = ("literal", "hilbert-persistence")
_MODES = (FieldConfig.prime_pair(), FieldConfig.exact())


def test_parse_point_normalizes_scaling():
    p = parse_point("[0 : 0 : 0 : 2]", 3)
    assert p.to_text() == "[0 : 0 : 0 : 1]"
    q = parse_point("[2 : 4 : 0 : 6]", 3)
    assert q.coords == (1, 2, 0, 3)
    assert parse_point("[1/2 : 1 : 0 : 0]", 3) == parse_point("[1 : 2 : 0 : 0]", 3)


def test_parse_point_rejects_bad_input():
    with pytest.raises(DegeneratePoint):
        parse_point("[0 : 0 : 0 : 0]", 3)
    for text in ["1 : 2 : 3 : 4", "[1 : 2]", "[1 : x : 0 : 0]"]:
        with pytest.raises(Exception):
            parse_point(text, 3)


def test_singularity_detection(roster):
    fer = roster.fixture("fermat34").f
    assert not is_singular_at(fer, parse_point("[1 : 0 : 0 : 0]", 3))
    fx = roster.fixture("A")
    assert is_singular_at(fx.f, fx.points[0])
    assert not is_singular_at(fx.f, parse_point("[1 : 0 : 0 : 0]", 3))


def test_hessian_rank_at_the_node(roster):
    fx = roster.fixture("A")
    assert hessian_rank_at(fx.f, fx.points[0]) == 3


def test_hessian_rank_requires_a_singular_point(roster):
    with pytest.raises(NotSingular):
        hessian_rank_at(roster.fixture("fermat34").f, parse_point("[1 : 0 : 0 : 0]", 3))


def test_hessian_rank_is_chart_independent(roster):
    # move the node to a different coordinate chart by a change of variables
    fx = roster.fixture("A")
    perm = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    g = compose_linear(fx.f, perm)
    moved = parse_point("[1 : 0 : 0 : 0]", 3)
    assert is_singular_at(g, moved)
    assert hessian_rank_at(g, moved) == 3


def test_certify_one_node_literal_route(roster):
    cert = roster.cert("A")
    assert cert.verdict == "Nodal(1)"
    assert cert.route == "literal"
    assert cert.tjurina == 1
    assert cert.passed


def test_certify_routes_agree(roster):
    # the direct global count and the persistence certificate are
    # independent global arguments; they must reach the same verdict
    fx = roster.fixture("B")
    ctx = roster.ctx("B")
    lit = certify_nodal(ctx, fx.points, route="literal")
    per = certify_nodal(ctx, fx.points, route="hilbert-persistence")
    assert lit.verdict == per.verdict == "Nodal(2)"
    assert lit.route == "literal"
    assert per.route == "hilbert-persistence"
    assert per.details["h0"] == per.details["h1"] == 2


def test_certify_smooth_both_routes(roster):
    ctx = roster.ctx("fermat34")
    lit = certify_nodal(ctx, (), route="literal")
    per = certify_nodal(ctx, (), route="hilbert-persistence")
    assert lit.verdict == per.verdict == "Smooth"


def test_certify_fails_on_nonsingular_claimed_point(roster):
    ctx = roster.ctx("A")
    cert = certify_nodal(ctx, (parse_point("[1 : 0 : 0 : 0]", 3),))
    assert not cert.passed
    assert "singular" in cert.reason


def test_certify_fails_on_duplicate_points(roster):
    fx = roster.fixture("A")
    cert = certify_nodal(roster.ctx("A"), fx.points + fx.points)
    assert not cert.passed
    assert "distinct" in cert.reason


def test_certify_fails_when_a_node_is_missing(roster):
    # claiming only one of the two actual nodes must fail on both routes
    fx = roster.fixture("B")
    ctx = roster.ctx("B")
    for route in ("literal", "hilbert-persistence"):
        cert = certify_nodal(ctx, fx.points[:1], route=route)
        assert not cert.passed, route


def test_certify_fails_on_a_worse_singularity():
    # cusp-like point: singular but with a degenerate Hessian
    f = parse_polynomial("x0^3 + x1^2*x3 + x2^2*x3", 3)
    ctx = JacobianContext(f, FieldConfig.prime_pair())
    cert = certify_nodal(ctx, (parse_point("[0 : 0 : 0 : 1]", 3),))
    assert not cert.passed
    assert "rank" in cert.reason


def test_certify_fails_on_dimension_mismatch(roster):
    cert = certify_nodal(roster.ctx("A"), (parse_point("[1 : 0 : 0 : 0 : 0]", 4),))
    assert not cert.passed


def test_certify_smooth_literal_on_fermat_quintic():
    ctx = JacobianContext(fermat(3, 5).f, FieldConfig.prime_pair())
    cert = certify_nodal(ctx, ())
    assert cert.verdict == "Smooth"


def test_certify_declines_infeasible_sizes_honestly():
    fx = one_node(5, 6, 808)
    ctx = JacobianContext(fx.f, FieldConfig.prime_pair())
    cert = certify_nodal(ctx, fx.points)
    assert not cert.passed
    assert cert.verdict.startswith("Failed")
    assert "feasible size cap" in cert.reason


def test_local_checks_work_at_scale_without_global_count():
    # the per-point analysis stays exact and fast even where the global
    # certificate is out of reach
    fx = one_node(5, 6, 808)
    assert is_singular_at(fx.f, fx.points[0])
    assert hessian_rank_at(fx.f, fx.points[0]) == 5


def test_multi_node_points_are_distinct_unit_points():
    fx = multi_node(3, 4, 2, 202)
    assert len(set(fx.points)) == 2
    for pt in fx.points:
        assert sum(1 for c in pt.coords if c) == 1


def test_a_job_over_the_entry_cap_fails_before_any_matrix_is_assembled(monkeypatch):
    from nodalcert import linalg, milnor

    assembled = []
    monkeypatch.setattr(linalg, "_ENTRY_CAP", 1_000)
    monkeypatch.setattr(milnor, "jacobian_generator_coo", lambda partials, k: assembled.append(k))
    fx = one_node(3, 4, 1)
    for route in _ROUTES:
        for points in (fx.points, ()):
            cert = certify_nodal(JacobianContext(fx.f), points, route=route)
            assert cert.kind == "Failed" and "size cap" in cert.reason
    assert assembled == []


@pytest.mark.parametrize(
    ("route", "degrees"), [("literal", (0, 1, 2)), ("hilbert-persistence", (0, 1))]
)
def test_a_passing_claim_ranks_the_socle_degree_and_the_next(route, degrees):
    # the ledger shape the pinned perfbench digests rest on: T, T+1 (and
    # T+2 on the literal route) and nothing else
    fx = multi_node(3, 3, 2, 1)
    ctx = JacobianContext(fx.f, FieldConfig.prime_pair())
    assert certify_nodal(ctx, fx.points, route=route).verdict == "Nodal(2)"
    assert list(ctx.engine.rank_ledger) == [f"jacobian/{ctx.socle + i}" for i in degrees]


# five lines in P^2, no three through one point: a quintic with m = 10 nodes,
# one more than its socle degree T = 9
_LINES = ("x0", "x1", "x2", "x0 + x1 + x2", "x0 + 2*x1 + 4*x2")
_LINE_NODES = (
    "[0 : 0 : 1]", "[0 : 1 : 0]", "[0 : 1 : -1]", "[0 : -2 : 1]", "[1 : 0 : 0]",
    "[1 : 0 : -1]", "[-4 : 0 : 1]", "[1 : -1 : 0]", "[-2 : 1 : 0]", "[2 : -3 : 1]",
)


@pytest.mark.parametrize("field", _MODES, ids=["two-prime", "exact"])
@pytest.mark.parametrize(("route", "top"), [("literal", 12), ("hilbert-persistence", 11)])
def test_more_nodes_than_the_socle_degree_certify_on_both_routes(field, route, top):
    lines = [parse_polynomial(text, 2) for text in _LINES]
    f = lines[0] * lines[1] * lines[2] * lines[3] * lines[4]
    nodes = tuple(parse_point(text, 2) for text in _LINE_NODES)
    ctx = JacobianContext(f, field)
    assert ctx.socle == 9
    assert certify_nodal(ctx, nodes, route=route).verdict == "Nodal(10)"
    # K = max(T, m) = 10
    assert list(ctx.engine.rank_ledger) == [f"jacobian/{k}" for k in range(10, top + 1)]
    cert = certify_nodal(JacobianContext(f, field), nodes[:9], route=route)
    assert cert.kind == "Failed" and "10 != 9 at degree 9" in cert.reason, cert


_SWEEP_FAMILIES = [
    (one_node, (3, 3)), (one_node, (3, 4)), (one_node, (2, 5)), (one_node, (2, 7)),
    (multi_node, (3, 3, 2)), (multi_node, (3, 3, 3)), (multi_node, (3, 3, 4)),
    (multi_node, (3, 4, 2)), (multi_node, (2, 5, 2)), (multi_node, (2, 6, 3)),
]


@pytest.mark.parametrize(("make", "args"), _SWEEP_FAMILIES, ids=lambda v: getattr(v, "__name__", str(v)))
@pytest.mark.parametrize("seed", [1, 2])
def test_the_routes_agree_on_every_prefix_of_a_claim(make, args, seed):
    # the fixture is nodal at exactly its listed points: the full claim
    # certifies and every shorter prefix misses a node
    fx = make(*args, seed)
    ctx = JacobianContext(fx.f, FieldConfig.prime_pair())
    m = len(fx.points)
    for j in range(m + 1):
        expected = f"Nodal({m})" if j == m else "Failed"
        for route in _ROUTES:
            assert certify_nodal(ctx, fx.points[:j], route=route).verdict == expected, (j, route)


def _moved_two_node_cubic():
    """multi_node(3,3,2,5) under a rational change of coordinates that moves
    its nodes [1 : 0 : 0 : 0] and [0 : 1 : 0 : 0] off the coordinate points."""
    rows = [[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [2, 0, 1, Fraction(-1, 3)], [0, 0, 0, 1]]
    f = compose_linear(multi_node(3, 3, 2, 5).f, rows)
    return f, (parse_point("[1 : 0 : -2 : 0]", 3), parse_point("[1 : -2 : -2 : 0]", 3))


@pytest.mark.parametrize("field", _MODES, ids=["two-prime", "exact"])
@pytest.mark.parametrize("route", _ROUTES)
def test_moved_nodes_certify_only_when_all_are_claimed(field, route):
    f, nodes = _moved_two_node_cubic()
    assert certify_nodal(JacobianContext(f, field), nodes, route=route).verdict == "Nodal(2)"
    for claim in (nodes[:1], nodes[1:], ()):
        cert = certify_nodal(JacobianContext(f, field), claim, route=route)
        assert cert.kind == "Failed", (claim, cert)
        assert "2 !=" in cert.reason


def test_moved_nodes_with_one_left_out_exit_2(tmp_path, capsys):
    f, nodes = _moved_two_node_cubic()
    poly, pts = tmp_path / "f.txt", tmp_path / "p.txt"
    poly.write_text(f.to_text() + "\n")
    pts.write_text("".join(pt.to_text() + "\n" for pt in nodes))
    assert main(["certify", "--input", str(poly), "--points", str(pts)]) == 0
    pts.write_text(nodes[1].to_text() + "\n")
    assert main(["certify", "--input", str(poly), "--points", str(pts)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field", _MODES, ids=["two-prime", "exact"])
@pytest.mark.parametrize("seed", [1249710376, 1610069482])
def test_a_third_singular_point_fails_the_two_node_claim(seed, field):
    # seeds whose multi_node(3,3,2) surface has a singular point besides the
    # two structural nodes: the quotient dimension is 3, not 2
    fx = multi_node(3, 3, 2, seed)
    for route in _ROUTES:
        cert = certify_nodal(JacobianContext(fx.f, field), fx.points, route=route)
        assert cert.kind == "Failed" and "3 != " in cert.reason, (route, cert)


# a node at [0 : 0 : 1] and an A2 cusp at [1 : 0 : 0]
_CUSP_BESIDE_NODE = "x0^2*x2^2 - x0*x1^3 + x0*x1*x2^2 + x1^4"


@pytest.mark.parametrize("field", _MODES, ids=["two-prime", "exact"])
@pytest.mark.parametrize("route", _ROUTES)
def test_an_unlisted_cusp_beside_a_node_fails_every_claim(field, route):
    f = parse_polynomial(_CUSP_BESIDE_NODE, 2)
    node, cusp = parse_point("[0 : 0 : 1]", 2), parse_point("[1 : 0 : 0]", 2)
    assert (hessian_rank_at(f, node), hessian_rank_at(f, cusp)) == (2, 1)
    # the quotient dimension counts the node once and the cusp twice
    for claim in ((node,), ()):
        cert = certify_nodal(JacobianContext(f, field), claim, route=route)
        assert cert.kind == "Failed" and "3 != " in cert.reason, (claim, cert)
    cert = certify_nodal(JacobianContext(f, field), (node, cusp), route=route)
    assert cert.kind == "Failed" and "Hessian rank 1 != 2" in cert.reason, cert


# lies in (x0, x1)^2, so every point of the line x0 = x1 = 0 is singular
_SINGULAR_LINE = "x0^2*x2 + x1^2*x3 + x0*x1*x2 + x0^3 + x1^3 + 2*x0^2*x3"


def test_a_surface_singular_along_a_line_claimed_smooth_fails_closed():
    # the quotient dimension grows with the degree: the check fails at its
    # first degree, T + 1, after one rank
    f = parse_polynomial(_SINGULAR_LINE, 3)
    for field in _MODES:
        for route in _ROUTES:
            ctx = JacobianContext(f, field)
            cert = certify_nodal(ctx, (), route=route)
            assert cert.kind == "Failed" and f"at degree {ctx.socle + 1}" in cert.reason, (route, cert)
            assert list(ctx.engine.rank_ledger) == [f"jacobian/{ctx.socle + 1}"]


@pytest.mark.parametrize("field", _MODES, ids=["two-prime", "exact"])
@pytest.mark.parametrize("route", _ROUTES)
def test_a_point_of_a_singular_line_is_no_node(field, route):
    f = parse_polynomial(_SINGULAR_LINE, 3)
    cert = certify_nodal(JacobianContext(f, field), (parse_point("[0 : 0 : 1 : 0]", 3),), route=route)
    assert cert.kind == "Failed" and "Hessian rank 2 != 3" in cert.reason, cert


def test_a_surface_singular_along_a_line_exits_2(tmp_path, capsys):
    poly = tmp_path / "f.txt"
    poly.write_text(_SINGULAR_LINE + "\n")
    assert main(["certify", "--input", str(poly)]) == 2
    capsys.readouterr()


def _direct_ledger(f, field, degrees):
    """The ledger direct ranks of the given degrees' slices make."""
    ctx = JacobianContext(f, field)
    for k in degrees:
        ctx.engine.rank_coo(ctx.generator_coo(k), f"jacobian/{k}")
    return list(ctx.engine.rank_ledger.items())


@pytest.mark.parametrize("field", _MODES, ids=["two-prime", "exact"])
@pytest.mark.parametrize("text, n", [(_SINGULAR_LINE, 3), (_CUSP_BESIDE_NODE, 2)], ids=["line", "cusp"])
def test_quotient_dims_that_do_not_settle_are_derived_exactly(text, n, field):
    # h grows along the singular line and is 3, not the claimed 1, beside the cusp
    f = parse_polynomial(text, n)
    ctx = JacobianContext(f, field)
    degrees = range(ctx.socle, ctx.socle + 4)
    got = [ctx.milnor_dim(k) for k in degrees]
    assert list(ctx.engine.rank_ledger.items()) == _direct_ledger(f, field, degrees)
    assert got == [space_dim(n, k) - ctx.engine.rank_ledger[f"jacobian/{k}"].rank for k in degrees]
    # along the line the annihilator is not spanned by evaluations at coordinate
    # points, and a derived table is the eliminated one only once echelonized
    for k in degrees[1:]:
        eliminated = JacobianContext(f, field).quotient_reduction(k)
        assert all(np.array_equal(ctx.quotient_reduction(k)[key], table) for key, table in eliminated.items())


_LEDGER_CLAIMS = [
    (lambda: one_node(3, 3, 5), lambda fx: fx.points),
    (lambda: multi_node(3, 3, 2, 1), lambda fx: fx.points),
    (lambda: multi_node(3, 3, 2, 1), lambda fx: fx.points[:1]),
    (lambda: multi_node(3, 3, 2, 1), lambda fx: ()),
    (lambda: one_node(2, 6, 2), lambda fx: fx.points),
    (lambda: multi_node(2, 5, 3, 3), lambda fx: fx.points),
]


@pytest.mark.parametrize("field", _MODES, ids=["two-prime", "exact"])
@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("make, claim", _LEDGER_CLAIMS)
def test_a_certify_ledger_equals_the_ledger_of_direct_ranks(make, claim, route, field):
    fx = make()
    ctx = JacobianContext(fx.f, field)
    points = claim(fx)
    cert = certify_nodal(ctx, points, route=route)
    assert cert.passed == (len(points) == fx.node_count)
    # the degrees of the nodal docstring's argument, up to the first failing one
    m = len(points)
    degrees = [ctx.socle + 1] if m == 0 else [max(ctx.socle, m), max(ctx.socle, m) + 1]
    if route == "literal":
        degrees.append(degrees[-1] + 1)
    if not cert.passed:
        degrees = degrees[: degrees.index(cert.details.get("degree", degrees[0])) + 1]
    assert list(ctx.engine.rank_ledger.items()) == _direct_ledger(fx.f, field, degrees)
