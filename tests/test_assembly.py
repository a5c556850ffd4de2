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
