"""Exact rational elimination: fraction-free ranks, reduced echelon forms,
kernels, and reduction against an echelon basis."""

from fractions import Fraction

import numpy as np

from nodalcert.exact import bareiss_rank, rref_fraction
from nodalcert.field import FieldConfig, Rationals
from nodalcert.linalg import LinearEngine, kernel_rows


def _random_exact(rng, rows, cols, rank):
    left = rng.integers(-5, 6, size=(rows, rank))
    right = rng.integers(-5, 6, size=(rank, cols))
    prod = left @ right
    return [[Fraction(int(x)) for x in row] for row in prod]


def test_bareiss_rank_on_constructed_ranks():
    rng = np.random.default_rng(5)
    for rows, cols, r in [(8, 6, 3), (6, 9, 5), (7, 7, 7)]:
        A = _random_exact(rng, rows, cols, r)
        ech, pivots = rref_fraction(A)
        assert bareiss_rank(A) == len(pivots)
        # generic products reach the factor rank
        assert len(pivots) <= r


def test_bareiss_handles_rationals_and_zero_rows():
    A = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)],
        [Fraction(0), Fraction(0)],
    ]
    assert bareiss_rank(A) == 1


def test_rref_is_fully_reduced():
    A = [
        [Fraction(2), Fraction(4), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(3), Fraction(6), Fraction(4)],
    ]
    ech, pivots = rref_fraction(A)
    assert pivots == (0, 2)
    for i, c in enumerate(pivots):
        assert ech[i][c] == 1
        # pivot columns are cleared above and below
        for j in range(len(ech)):
            if j != i:
                assert ech[j][c] == 0
    assert list(pivots) == sorted(pivots)


def test_kernel_vectors_annihilate_rows():
    rng = np.random.default_rng(9)
    A = _random_exact(rng, 6, 8, 4)
    F = Rationals()
    pivots, free = F.rref_free(np.array(A, dtype=object))
    ker = kernel_rows(F, pivots, free, 8)
    assert len(ker) == 8 - len(pivots)
    for v in ker:
        for row in A:
            assert sum(a * b for a, b in zip(row, v)) == 0


def _residual(basis, vec):
    """Oracle: the exact vector reduced against the reduced echelon basis,
    each pivot coordinate cleared by its row."""
    res = [Fraction(v) for v in vec]
    for row, pc in zip(basis.payload["exact"], basis.pivots):
        res = [r - res[pc] * b for r, b in zip(res, row)]
    return res


def test_reduce_against_an_exact_basis_kills_members_and_fixes_residues():
    A = [
        [Fraction(1), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(1), Fraction(-1)],
    ]
    engine = LinearEngine(FieldConfig.exact())
    basis = engine.echelon_payload({"exact": np.array(A, dtype=object)}, "rows")
    member = [Fraction(3), Fraction(-2), Fraction(8)]  # 3*r0 - 2*r1
    assert _residual(basis, member) == [Fraction(0)] * 3
    outside = [Fraction(0), Fraction(0), Fraction(1)]
    residue = _residual(basis, outside)
    assert residue != [Fraction(0)] * 3
    # reduction is idempotent
    assert _residual(basis, residue) == residue
