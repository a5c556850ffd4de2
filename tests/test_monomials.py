"""Monomial bookkeeping: dimensions, ordered bases, rank lookups."""

from math import comb

import numpy as np
import pytest

from nodalcert import monomials
from nodalcert.errors import InconsistentResult
from nodalcert.monomials import (
    binomial,
    exponent_matrix,
    monomial_basis,
    monomial_index,
    monomial_rank,
    monomial_rank_rows,
    space_dim,
)


@pytest.mark.parametrize("n,k", [(1, 0), (2, 3), (3, 5), (4, 7), (5, 2)])
def test_space_dim_matches_stars_and_bars(n, k):
    assert space_dim(n, k) == comb(n + k, n)


def test_space_dim_negative_degree_is_zero():
    assert space_dim(3, -1) == 0
    assert space_dim(3, -7) == 0


def test_binomial_matches_math_comb():
    for a in range(10):
        for b in range(-2, 12):
            assert binomial(a, b) == (comb(a, b) if 0 <= b <= a else 0)


@pytest.mark.parametrize("n,k", [(2, 4), (3, 3), (4, 2)])
def test_basis_is_complete_and_homogeneous(n, k):
    basis = monomial_basis(n, k)
    assert len(basis) == space_dim(n, k)
    assert len(set(basis)) == len(basis)
    for expo in basis:
        assert len(expo) == n + 1
        assert sum(expo) == k
        assert all(e >= 0 for e in expo)


def test_rank_is_inverse_of_basis_order():
    n, k = 3, 4
    for i, expo in enumerate(monomial_basis(n, k)):
        assert monomial_rank(n, k, expo) == i
    idx = monomial_index(n, k)
    assert idx == {expo: i for i, expo in enumerate(monomial_basis(n, k))}


def test_rank_rows_matches_scalar_rank():
    n, k = 4, 3
    basis = monomial_basis(n, k)
    rows = np.array(basis, dtype=np.int64)
    ranks = monomial_rank_rows(rows, n, k)
    assert ranks.tolist() == [monomial_rank(n, k, e) for e in basis]


def test_exponent_matrix_agrees_with_basis():
    n, k = 3, 2
    mat = exponent_matrix(n, k)
    assert mat.shape == (space_dim(n, k), n + 1)
    assert [tuple(row) for row in mat.tolist()] == list(monomial_basis(n, k))


def test_basis_of_the_wrong_length_raises(monkeypatch):
    monkeypatch.setattr(monomials, "_basis_cached", lambda n, k: ((k, 0),))
    with pytest.raises(InconsistentResult):
        monomial_basis(1, 2)
