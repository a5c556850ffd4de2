"""The integer matrix assembly: its matrices of polynomial multiples match
rows built one polynomial at a time, and a malformed matrix or a caller's
bad input raises, under ``python -O`` too."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nodalcert.assembly import (
    IntCOO,
    coo_vstack,
    jacobian_generator_coo,
    trivial_syzygy_coo,
)
from nodalcert.errors import InconsistentResult
from nodalcert.fixtures import fermat, multi_node, one_node
from nodalcert.hodge import ideal_of_points_dim
from nodalcert.milnor import JacobianContext
from nodalcert.monomials import monomial_basis, space_dim
from nodalcert.nodal import ProjectivePoint
from nodalcert.polynomials import (
    HomogeneousPolynomial,
    parse_polynomial,
    partial_derivatives,
    polynomial_vector,
)
from nodalcert.torelli import effective_deformation_check


def _ints(*values):
    return np.array(values, dtype=np.int64)


def test_coo_triplets_of_different_shapes_raise():
    with pytest.raises(InconsistentResult):
        IntCOO((2, 2), _ints(0, 1), _ints(0, 1), _ints(5))


def test_duplicate_coo_cell_raises():
    with pytest.raises(InconsistentResult):
        IntCOO((2, 2), _ints(0, 1, 0), _ints(1, 0, 1), _ints(3, 4, 5))


def test_coo_vstack_of_different_column_counts_raises():
    a = IntCOO((1, 2), _ints(0), _ints(1), _ints(1))
    b = IntCOO((1, 3), _ints(0), _ints(2), _ints(1))
    with pytest.raises(InconsistentResult):
        coo_vstack([a, b])


def test_jacobian_slice_below_the_partials_degree_raises():
    partials = partial_derivatives(one_node(3, 4, 1).f)
    with pytest.raises(ValueError):
        jacobian_generator_coo(partials, 2)


def test_polynomial_of_another_degree_raises():
    ctx = JacobianContext(one_node(3, 4, 1).f)
    with pytest.raises(ValueError):
        effective_deformation_check(ctx, [HomogeneousPolynomial.monomial(3, (2, 1, 1, 1))])


def _scale(polys):
    return math.lcm(1, *(c.denominator for g in polys for c in g.terms.values()))


def _pair_swap_rows(partials, r):
    """The pair-swap syzygy rows built one product at a time: for i < j and
    each monomial h of degree r-d+1, scale*h*g_j in slot i and
    -scale*h*g_i in slot j."""
    n, h_deg, scale = partials[0].n, r - partials[0].degree, _scale(partials)
    nr = space_dim(n, r)
    rows = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for h in monomial_basis(n, h_deg) if h_deg >= 0 else ():
                row = [0] * ((n + 1) * nr)
                for slot, g, sign in ((i, partials[j], 1), (j, partials[i], -1)):
                    row[slot * nr:(slot + 1) * nr] = [int(sign * scale * c) for c in polynomial_vector(g.shift(h))]
                rows.append(row)
    return rows


_RATIONAL_PARTIALS = [
    parse_polynomial("x0^2 + 1/2*x1*x2", 2),
    HomogeneousPolynomial.zero(2, 2),
    parse_polynomial("1/3*x2^2 - x0*x1", 2),
]


@pytest.mark.parametrize(
    "partials, degrees",
    [
        (partial_derivatives(one_node(3, 4, 1).f), range(10)),
        (partial_derivatives(multi_node(3, 5, 2, 404).f), range(7)),
        (partial_derivatives(fermat(3, 4).f), range(10)),
        (partial_derivatives(one_node(2, 7, 3).f), range(10)),
        (_RATIONAL_PARTIALS, range(6)),
        (partial_derivatives(HomogeneousPolynomial.monomial(0, (3,))), range(5)),
    ],
    ids=["one_node(3,4,1)", "multi_node(3,5,2,404)", "fermat(3,4)", "one_node(2,7,3)", "rational-with-zero", "n=0"],
)
def test_trivial_syzygy_rows_are_the_pair_swaps(partials, degrees):
    for r in degrees:
        coo = trivial_syzygy_coo(partials, r)
        expected = _pair_swap_rows(partials, r)
        n = partials[0].n
        assert coo.shape == (len(expected), (n + 1) * space_dim(n, r))
        assert coo.dense_int_rows() == expected


def test_deformation_rows_are_the_scaled_coordinate_vectors(monkeypatch):
    ctx = JacobianContext(one_node(3, 4, 1).f)
    V = [parse_polynomial(t, 3) for t in ("x0^4 + 1/2*x1^4", "1/3*x2^4 - 3/4*x3^4", "x0*x1*x2*x3")]
    ranked = {}
    rank_coo = ctx.engine.rank_coo

    def spy(coo, label):
        ranked[label.split("/")[0]] = coo
        return rank_coo(coo, label)

    monkeypatch.setattr(ctx.engine, "rank_coo", spy)
    assert effective_deformation_check(ctx, V)
    v_rows = [[int(c * 12) for c in polynomial_vector(g)] for g in V]
    assert ranked["deformation-span"].dense_int_rows() == v_rows
    assert ranked["deformation-stack"].dense_int_rows() == ctx.generator_coo(4).dense_int_rows() + v_rows


def test_point_of_the_wrong_length_raises():
    ctx = JacobianContext(one_node(2, 4, 1).f)
    with pytest.raises(ValueError):
        ideal_of_points_dim(ctx, [ProjectivePoint([1, 0])], 2)


_DUPLICATE_CELL = """
import numpy as np
from nodalcert.assembly import IntCOO
from nodalcert.errors import InconsistentResult
cell = np.array([0, 0], dtype=np.int64)
try:
    IntCOO((1, 1), cell, cell, np.array([1, 2], dtype=np.int64))
except InconsistentResult:
    print("raised")
"""


def test_duplicate_cell_check_survives_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DUPLICATE_CELL],
        capture_output=True,
        text=True,
        env=dict(os.environ),
        check=True,
    )
    assert out.stdout.split() == ["raised"]


def test_duplicate_cells_far_apart_in_input_order_raise():
    rng = np.random.default_rng(3)
    cells = rng.permutation(200 * 300)[:5000]
    rows, cols = cells // 300, cells % 300
    IntCOO((200, 300), rows, cols, np.ones(cells.size, dtype=np.int64))
    with pytest.raises(InconsistentResult):
        # the last cell repeats the first, 5000 entries earlier
        IntCOO((200, 300), np.append(rows, rows[0]), np.append(cols, cols[0]), np.ones(cells.size + 1, dtype=np.int64))


def test_transpose_keeps_every_cell_without_checking_them_again(monkeypatch):
    coo = jacobian_generator_coo(partial_derivatives(one_node(3, 4, 1).f), 6)
    checks = []
    original = IntCOO.__post_init__
    monkeypatch.setattr(IntCOO, "__post_init__", lambda self: checks.append(original(self)))
    t = coo.transposed()
    assert checks == []
    assert t.shape == coo.shape[::-1]
    assert np.array_equal(t.dense_mod(7), coo.dense_mod(7).T)
    assert np.array_equal(t.transposed().dense_mod(7), coo.dense_mod(7))


def test_a_coo_of_more_than_2_to_the_31_cells_is_checked_without_dense_memory():
    import tracemalloc

    shape = (1 << 16, (1 << 15) + 1)  # 2^31 + 2^16 cells
    rows = _ints(0, 12345, shape[0] - 1, 7)
    cols = _ints(shape[1] - 1, 999, 0, shape[1] - 1)
    tracemalloc.start()
    try:
        IntCOO(shape, rows, cols, _ints(1, 2, 3, 4))
        with pytest.raises(InconsistentResult):
            IntCOO(shape, np.append(rows, shape[0] - 1), np.append(cols, 0), _ints(1, 2, 3, 4, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
