"""Graded Jacobian-ring dimensions: smooth reference, dual-route ideal
dimensions, coincidence threshold, global singularity count, saturation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from nodalcert import _kernels, milnor
from nodalcert.assembly import IntCOO, jacobian_generator_coo
from nodalcert.errors import FieldDisagreement, InconsistentResult, NoStabilization
from nodalcert.field import DEFAULT_PRIMES, FieldConfig
from nodalcert.fixtures import fermat, multi_node, one_node
from nodalcert.hodge import ideal_of_points_dim
from nodalcert.linalg import LinearEngine, kernel_rows
from nodalcert.milnor import (
    SMOOTH,
    JacobianContext,
    _basis_union,
    coincidence_threshold,
    saturation_graded,
    smooth_reference_dim,
    socle_degree,
    tjurina_count,
)
from nodalcert.monomials import monomial_basis, space_dim
from nodalcert.nodal import certify_nodal
from nodalcert.polynomials import parse_polynomial
from nodalcert.torelli import quotient_basis
from test_nodal import _CUSP_BESIDE_NODE, _EXACT_FIXTURES, _SINGULAR_LINE


def _full_slice(ctx, k):
    """The degree-k slice with every row x^a * g_j kept, the reference for
    the Koszul-cut ``ctx.generator_coo(k)`` (the zero matrix below d-1)."""
    return jacobian_generator_coo(ctx.partials, k) if k >= ctx.d - 1 else ctx.generator_coo(k)


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
        assert ctx.jacobian_dim(k) == ctx.engine.rank_coo(_full_slice(ctx, k), f"generic/{k}")


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
    monkeypatch.setattr(milnor, "jacobian_generator_coo", lambda partials, k, *keep: assembled.append(k) or real(partials, k, *keep))
    ctx = JacobianContext(one_node(3, 4, 1).f, FieldConfig.prime_pair())
    # the scan reads degrees 8 and 9, where h = 1 <= 8 twice; the degree-9 slice is 336 x 220
    monkeypatch.setattr(linalg, "_ENTRY_CAP", 336 * 220 - 1)
    with pytest.raises(NoStabilization, match=r"degree-9 ideal slice is 336 x 220 .* past the feasible size cap"):
        tjurina_count(ctx)
    assert assembled == []
    monkeypatch.setattr(linalg, "_ENTRY_CAP", 336 * 220)
    assert tjurina_count(ctx) == 1
    # degree 8 is eliminated; 9 comes from its annihilator
    assert assembled == [8]
    assert list(ctx.engine.rank_ledger) == ["jacobian/8", "jacobian/9"]


def test_no_slice_is_assembled_past_the_entry_cap(monkeypatch):
    from nodalcert import linalg

    assembled = []
    real = milnor.jacobian_generator_coo
    monkeypatch.setattr(milnor, "jacobian_generator_coo", lambda partials, k, *keep: assembled.append(k) or real(partials, k, *keep))
    ctx = JacobianContext(one_node(3, 4, 1).f, FieldConfig.prime_pair())
    # the degree-5 slice is 40 x 56; ranked below the socle, or read off its table
    monkeypatch.setattr(linalg, "_ENTRY_CAP", 10)
    for ask in (ctx.jacobian_dim, ctx.jacobian_basis):
        with pytest.raises(NoStabilization) as refused:
            ask(5)
        assert str(refused.value) == ctx.slice_over_cap(5) != ""
    assert assembled == [] and ctx.engine.rank_ledger == {}


def direct_quotient_dims(f, field, degrees):
    """h(k) from a direct rank of each generator slice on a fresh context."""
    ctx = JacobianContext(f, field)
    return [space_dim(ctx.n, k) - ctx.engine.rank_coo(_full_slice(ctx, k), f"direct/{k}") for k in degrees]




def _hilbert_cases():
    for key in "ABCD":
        yield pytest.param(key, FieldConfig.prime_pair(), id=f"roster-{key}")
    for fx in _EXACT_FIXTURES:
        yield pytest.param(fx, FieldConfig.exact(), id=f"exact-{fx.describe()}")


@pytest.mark.parametrize("which, field", _hilbert_cases())
def test_derived_quotient_dims_equal_direct_ranks(roster, which, field):
    f = (roster.fixture(which) if isinstance(which, str) else which).f
    ctx = JacobianContext(f, field)
    degrees = range(ctx.socle, ctx.socle + 4)
    assert [ctx.milnor_dim(k) for k in degrees] == direct_quotient_dims(f, field, degrees)
    # one slice eliminated, the next three derived, each under its own label and shape
    assert list(ctx.engine.rank_ledger) == [f"jacobian/{k}" for k in degrees]
    for k in degrees:
        rec = ctx.engine.rank_ledger[f"jacobian/{k}"]
        assert (rec.rows, rec.cols) == ctx.generator_coo(k).shape
    # each derived table equals the table a fresh context eliminates, entry for entry
    for k in degrees[1:]:
        derived, eliminated = ctx.quotient_reduction(k), JacobianContext(f, field).quotient_reduction(k)
        assert set(derived) == set(eliminated)
        for key, table in eliminated.items():
            assert derived[key].dtype == table.dtype
            assert derived[key].flags.c_contiguous
            assert np.array_equal(derived[key], table)
    assert list(ctx.engine.rank_ledger) == [f"jacobian/{k}" for k in degrees]


@pytest.mark.parametrize("which, field", _hilbert_cases())
def test_the_tjurina_count_equals_a_direct_scan(roster, which, field):
    f = (roster.fixture(which) if isinstance(which, str) else which).f
    fresh = JacobianContext(f, field)
    # the first k from max(socle, d-1) with h(k) = h(k+1) = c and c <= k
    k = max(fresh.socle, fresh.d - 1)
    while True:
        c, after = direct_quotient_dims(f, field, [k, k + 1])
        if c == after and c <= k:
            break
        k += 1
    ctx = JacobianContext(f, field)
    assert tjurina_count(ctx) == c
    # the scan read no degree past k+1
    assert [label for label in ctx.engine.rank_ledger if label.startswith("jacobian/")][-1] == f"jacobian/{k + 1}"


def test_a_disagreement_of_the_derived_quotient_dims_raises(monkeypatch):
    ctx = JacobianContext(one_node(3, 4, 1).f, FieldConfig.prime_pair())
    second = ctx.field.keys[1]
    real = milnor._extend_annihilator

    def skewed(F, lam, n, k):
        rank, rows = real(F, lam, n, k)
        return (rank + 1, rows[1:]) if F.key == second else (rank, rows)

    monkeypatch.setattr(milnor, "_extend_annihilator", skewed)
    ctx.jacobian_dim(ctx.socle)
    with pytest.raises(FieldDisagreement, match=f"jacobian/{ctx.socle + 1}"):
        ctx.jacobian_dim(ctx.socle + 1)
    assert f"jacobian/{ctx.socle + 1}" not in ctx.engine.rank_ledger


def test_a_disagreement_of_the_derived_standard_columns_raises(monkeypatch):
    # two nodes: the tables have two columns, which the second prime swaps
    ctx = JacobianContext(multi_node(3, 3, 2, 1).f, FieldConfig.prime_pair())
    second = ctx.field.keys[1]
    real = milnor._extend_annihilator

    def reordered(F, lam, n, k):
        rank, rows = real(F, lam, n, k)
        return rank, rows[::-1] if F.key == second else rows

    monkeypatch.setattr(milnor, "_extend_annihilator", reordered)
    ctx.jacobian_dim(ctx.socle)
    # the ranks agree, so the table is held; its views refuse to read it
    ctx.jacobian_dim(ctx.socle + 1)
    for view in (ctx.standard_columns, ctx.jacobian_basis):
        with pytest.raises(FieldDisagreement, match=f"jacobian/{ctx.socle + 1}"):
            view(ctx.socle + 1)


def test_dims_match_reference_through(roster):
    ctx = roster.ctx("A")
    assert all(ctx.milnor_dim(k) == ctx.smooth_dim(k) for k in range(9))
    assert ctx.milnor_dim(9) != ctx.smooth_dim(9)


def _assert_table_is_the_echelon_kernel(ctx, k):
    """The degree-k quotient table fixes every standard monomial and equals,
    entry for entry, the transposed kernel rows of the slice's reduced
    echelon form from a fresh engine; ``jacobian_basis`` and
    ``quotient_basis``, views of the table, equal that echelon form and its
    free columns."""
    table = ctx.quotient_reduction(k)
    reference = LinearEngine(ctx.field).echelon_coo(_full_slice(ctx, k), f"reference/{k}")
    free = reference.free_columns()
    basis = ctx.jacobian_basis(k)
    assert basis.ncols == reference.ncols and basis.pivots == reference.pivots
    mons = monomial_basis(ctx.n, k)
    assert quotient_basis(ctx, k) == tuple(mons[g] for g in free)
    for F in ctx.field.realizations:
        tab = table[F.key]
        assert tab.shape == (space_dim(ctx.n, k), len(free))
        # a standard monomial reduces to itself
        for slot, col in enumerate(free):
            row = tab[col]
            assert row[slot] == 1
            assert sum(1 for v in row if v) == 1
        pivots = np.array(reference.pivots, dtype=np.int64)
        rows = np.delete(reference.payload[F.key], pivots, axis=1)
        expected = kernel_rows(F, reference.pivots, rows, reference.ncols).T
        assert tab.dtype == expected.dtype and np.array_equal(tab, expected)
        ours = basis.payload[F.key]
        assert ours.dtype == reference.payload[F.key].dtype
        assert np.array_equal(ours, reference.payload[F.key])


def test_quotient_reduction_fixes_standard_monomials(roster):
    exact_spec = one_node(3, 4, 1)
    for ctx, points in zip(roster.both_modes("A", exact_spec), (roster.fixture("A").points, exact_spec.points)):
        # below d-1 the slice is zero; then d-1, the socle and its neighbours
        for k in (ctx.d - 2, ctx.d - 1, 4, ctx.socle - 1, ctx.socle):
            _assert_table_is_the_echelon_kernel(ctx, k)
        # past the socle, where certify holds the annihilator it derived
        certify_nodal(ctx, points)
        _assert_table_is_the_echelon_kernel(ctx, ctx.socle + 1)


def _view_cases():
    yield from _hilbert_cases()
    for name, text, n in (("line", _SINGULAR_LINE, 3), ("cusp", _CUSP_BESIDE_NODE, 2)):
        for field in (FieldConfig.prime_pair(), FieldConfig.exact()):
            yield pytest.param(parse_polynomial(text, n), field, id=f"{name}-{field.mode}")


@pytest.mark.parametrize("which, field", _view_cases())
def test_the_basis_views_equal_a_fresh_echelon_form(roster, which, field):
    # eliminated tables through the socle, derived ones past it
    f = roster.fixture(which).f if isinstance(which, str) else getattr(which, "f", which)
    ctx = JacobianContext(f, field)
    for k in range(ctx.socle + 3):
        _assert_table_is_the_echelon_kernel(ctx, k)


def test_saturation_matches_point_ideal_below_socle(roster):
    ctx = roster.ctx("A")
    pts = roster.fixture("A").points
    sat = saturation_graded(ctx, 4)
    assert sat.dim == ideal_of_points_dim(ctx, pts, 4) == 34


def test_saturation_equals_ideal_past_the_socle(roster):
    ctx = roster.ctx("A")
    k = ctx.socle + 1
    assert saturation_graded(ctx, k).dim == ctx.jacobian_basis(k).dim


def test_saturation_declines_infeasible_inputs(monkeypatch):
    assembled = []
    real = milnor.jacobian_generator_coo
    monkeypatch.setattr(milnor, "jacobian_generator_coo", lambda partials, k, *keep: assembled.append(k) or real(partials, k, *keep))
    fx = one_node(5, 6, 808)
    ctx = JacobianContext(fx.f, FieldConfig.prime_pair())
    # the colon step needs the degree-25 table; its slice is refused before assembly
    with pytest.raises(NoStabilization) as refused:
        saturation_graded(ctx, 4)
    assert str(refused.value) == ctx.slice_over_cap(ctx.socle + 1) != ""
    assert ctx.socle + 1 not in assembled


@pytest.mark.parametrize("which, field", _hilbert_cases())
def test_the_cut_slice_has_the_echelon_form_of_the_full_slice(roster, which, field):
    f = (roster.fixture(which) if isinstance(which, str) else which).f
    ctx = JacobianContext(f, field)
    cut_rows = 0
    for k in range(ctx.d - 1, ctx.socle + 2):
        cut, full = ctx.generator_coo(k), _full_slice(ctx, k)
        assert cut.shape == full.shape
        cut_rows += full.shape[0] - cut.occupied_rows().shape[0]
        got = LinearEngine(field).echelon_coo(cut, f"cut/{k}")
        expected = LinearEngine(field).echelon_coo(full, f"full/{k}")
        assert got.pivots == expected.pivots and got.payload.keys() == expected.payload.keys()
        for key, rows in expected.payload.items():
            assert got.payload[key].dtype == rows.dtype and np.array_equal(got.payload[key], rows)
    assert cut_rows > 0


# 29 > 2d(n+1) = 24 divides 116, the leading coefficient of the first partial
_LEAD_DIVISIBLE_BY_29 = "29*x0^4 + x1^4 + x2^4 + 3*x0^2*x1*x2 + 5*x0*x1^2*x2 + 7*x0*x1*x2^2 + 2*x0^3*x1 + x1^3*x2"


def test_a_partial_whose_leading_coefficient_a_prime_divides_cuts_no_row():
    f = parse_polynomial(_LEAD_DIVISIBLE_BY_29, 2)
    field = FieldConfig.prime_pair(29, DEFAULT_PRIMES[0])
    ctx = JacobianContext(f, field)
    assert [j for j, _ in ctx._divisors] == [1, 2]
    assert [j for j, _ in JacobianContext(f, FieldConfig.exact())._divisors] == [0, 1, 2]
    # the same context with the first partial counted as a divisor
    unsound = JacobianContext(f, field)
    unsound._divisors = [(0, np.array(ctx.partials[0].sorted_terms()[0][0]))] + ctx._divisors
    for k in range(ctx.d - 1, 10):
        full = _full_slice(ctx, k)
        for F in field.realizations:
            expected_pivots, expected_free = F.rref_free(F.dense(full))
            pivots, free = F.rref_free(F.dense(ctx.generator_coo(k).occupied_rows()))
            assert pivots == expected_pivots and np.array_equal(free, expected_free)
            if F.p == 29 and k >= 6:
                # that cut drops rows whose span modulo 29 the others miss
                assert len(F.rref_free(F.dense(unsound.generator_coo(k).occupied_rows()))[0]) < len(pivots)


def test_a_cut_slice_is_densified_on_its_kept_rows_and_recorded_at_its_full_shape(roster, monkeypatch):
    densified = []
    real = IntCOO.dense_mod
    monkeypatch.setattr(IntCOO, "dense_mod", lambda coo, p, dtype: densified.append(coo.shape) or real(coo, p, dtype))
    ctx = JacobianContext(roster.fixture("C").f, FieldConfig.prime_pair())
    k = ctx.socle
    kept = ctx.generator_coo(k).occupied_rows().shape
    assert kept[0] < ctx._slice_shape(k)[0]
    rows, cols = ctx._slice_shape(k)
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", rows * cols)  # both primes in turn, in this process
    ctx.jacobian_dim(k)
    assert densified == [kept, kept]
    rec = ctx.engine.rank_ledger[f"jacobian/{k}"]
    assert (rec.rows, rec.cols) == ctx._slice_shape(k) == ctx.generator_coo(k).shape


def test_quotient_reduction_sends_ideal_generators_to_zero(roster):
    # x_i * (a partial) lies in the degree-4 ideal slice: its class is zero
    for ctx in roster.both_modes("A", one_node(3, 4, 1)):
        table = ctx.quotient_reduction(4)
        coo = _full_slice(ctx, 4)
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


def test_evaluation_rows_are_the_monomial_values_in_each_field():
    # 1000^60 is far past int64: the prime rows reduce the powers as they go
    points = [(1, 1000, -7), (0, 3, 1)]
    exact_rows = milnor.evaluation_rows(FieldConfig.exact().realizations[0], points, 2, 60)
    mons = monomial_basis(2, 60)
    assert exact_rows.dtype == object
    assert exact_rows.tolist() == [[x**u[0] * y**u[1] * z**u[2] for u in mons] for x, y, z in points]
    for F in FieldConfig.prime_pair().realizations:
        rows = milnor.evaluation_rows(F, points, 2, 60)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[v % F.p for v in row] for row in exact_rows.tolist()]
