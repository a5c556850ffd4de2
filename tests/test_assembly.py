"""Guards of the integer matrix assembly: a malformed matrix or a caller's
bad input raises, under ``python -O`` too."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from nodalcert.assembly import (
    IntCOO,
    coo_vstack,
    evaluation_rows,
    jacobian_generator_coo,
    polys_to_exact_rows,
)
from nodalcert.errors import InconsistentResult
from nodalcert.fixtures import one_node
from nodalcert.polynomials import HomogeneousPolynomial, partial_derivatives


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
    with pytest.raises(ValueError):
        polys_to_exact_rows([HomogeneousPolynomial.monomial(2, (1, 1, 0))], 3)


def test_point_of_the_wrong_length_raises():
    with pytest.raises(ValueError):
        evaluation_rows([[Fraction(1), Fraction(0)]], 2, 2)


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
