"""The multi-field linear engine: rank/echelon/kernel agreement across
field realizations, the rank ledger, and quotient-coordinate helpers."""

from fractions import Fraction

import numpy as np
import pytest

from nodalcert.assembly import IntCOO, exact_rows_to_int_coo
from nodalcert.errors import FieldDisagreement, InconsistentResult
from nodalcert.field import FieldConfig
from nodalcert.linalg import (
    AmbientSpace,
    LinearEngine,
    RankRecord,
    membership,
    quotient_coordinates,
    reduce_against_basis,
)


def _coo(rows_of_ints) -> IntCOO:
    arr = np.array(rows_of_ints, dtype=np.int64)
    r, c = np.nonzero(arr)
    return IntCOO(arr.shape, rows=r.astype(np.int64), cols=c.astype(np.int64), vals=arr[r, c])


@pytest.fixture(params=["two-prime", "exact"])
def engine(request):
    cfg = FieldConfig.exact() if request.param == "exact" else FieldConfig.prime_pair()
    return LinearEngine(cfg)


def test_rank_coo_and_ledger(engine):
    coo = _coo([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert engine.rank_coo(coo, "demo") == 2
    assert engine.rank_ledger["demo"] == RankRecord(3, 3, 2)
    # replay answers from the ledger without recomputation
    assert engine.rank_coo(coo, "demo") == 2


def test_ledger_label_reuse_with_different_result_is_an_error(engine):
    engine.rank_coo(_coo([[1, 0], [0, 1]]), "label")
    with pytest.raises(InconsistentResult):
        engine._record("label", 2, 2, 1)


def test_ledger_label_reuse_with_a_different_shape_raises(engine):
    # a result check, not an assert: it must also hold under python -O
    engine.rank_coo(_coo([[1, 0], [0, 1]]), "label")
    with pytest.raises(InconsistentResult):
        engine.rank_coo(_coo([[1, 0, 0], [0, 1, 0]]), "label")


def test_echelon_and_kernel_are_consistent(engine):
    coo = _coo([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    amb = AmbientSpace.abstract(4)
    basis = engine.echelon_coo(coo, amb, "span")
    assert basis.dim == 2
    ker = engine.kernel_coo(coo.transposed(), AmbientSpace.abstract(3), "ker")
    # rank-nullity for the transpose acting on 3-space
    assert ker.ambient.dim == 3
    assert ker.dim == 3 - 2


def test_membership_and_quotient_coordinates(engine):
    rows = [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(1)]]
    coo = exact_rows_to_int_coo(rows, 3)
    basis = engine.echelon_coo(coo, AmbientSpace.abstract(3), "basis")
    inside = [Fraction(2), Fraction(3), Fraction(7)]
    outside = [Fraction(0), Fraction(0), Fraction(1)]
    mixed = [Fraction(1), Fraction(1), Fraction(0)]  # (1, 0, 2) + (0, 1, 1) - 3 e_2
    assert membership(basis, inside)
    assert not membership(basis, outside)
    assert not membership(basis, mixed)
    for F in engine.field.realizations:
        assert np.array_equal(reduce_against_basis(basis, outside)[F.key], F.convert([0, 0, 1]))
        assert np.array_equal(reduce_against_basis(basis, mixed)[F.key], F.convert([0, 0, -3]))
        assert np.array_equal(quotient_coordinates(basis, inside)[F.key], F.convert([0]))
        assert np.array_equal(quotient_coordinates(basis, mixed)[F.key], F.convert([-3]))


def test_two_prime_rank_disagreement_is_detected():
    engine = LinearEngine(FieldConfig.prime_pair(5, 7))
    with pytest.raises(FieldDisagreement):
        engine.rank_coo(_coo([[5]]), "bad-rank")


def test_two_prime_pivot_disagreement_is_detected():
    engine = LinearEngine(FieldConfig.prime_pair(5, 7))
    with pytest.raises(FieldDisagreement):
        engine.echelon_coo(_coo([[5, 1]]), AmbientSpace.abstract(2), "bad-pivots")


def test_two_prime_and_exact_agree_on_random_input():
    rng = np.random.default_rng(17)
    arr = (rng.integers(-9, 10, size=(12, 10)) * rng.integers(0, 2, size=(12, 10))).astype(np.int64)
    coo = _coo(arr)
    r1 = LinearEngine(FieldConfig.prime_pair()).rank_coo(coo, "x")
    r2 = LinearEngine(FieldConfig.exact()).rank_coo(coo, "x")
    assert r1 == r2


def test_ambient_space_constructors():
    g = AmbientSpace.graded(3, 2)
    assert g.dim == 10
    s = AmbientSpace.graded_sum(3, 2, 4)
    assert s.dim == 40
    assert AmbientSpace.abstract(7).dim == 7
