"""Multiplication pairing, variable-multiplication kernels, and the
period-map differential with its effectiveness guard."""

from fractions import Fraction

import numpy as np
import pytest

from nodalcert.errors import DegreeTooSmall, NotEffective, UnsupportedDimension
from nodalcert.field import FieldConfig
from nodalcert.fixtures import fermat, one_node
from nodalcert.hodge import ideal_of_points_dim
from nodalcert.milnor import JacobianContext
from nodalcert.monomials import monomial_basis, monomial_rank, monomial_rank_rows
from nodalcert.polynomials import HomogeneousPolynomial, partial_derivatives
from nodalcert.torelli import (
    effective_deformation_check,
    pairing_injective,
    pairing_matrix,
    period_differential,
    quotient_basis,
    variable_multiplication_kernel,
)


def _standard_monomials(ctx, k):
    return [HomogeneousPolynomial.monomial(ctx.n, e) for e in quotient_basis(ctx, k)]


def test_quotient_basis_is_a_standard_monomial_complement(roster):
    ctx = roster.ctx("A")
    std = quotient_basis(ctx, 4)
    assert len(std) == ctx.milnor_dim(4)
    assert set(std) <= set(monomial_basis(3, 4))
    assert all(sum(e) == 4 for e in std)


def test_pairing_shape_and_injectivity(roster):
    ctx = roster.ctx("A")
    payload, shape = pairing_matrix(ctx)
    q1 = ctx.milnor_dim(0)
    q2 = ctx.milnor_dim(4)
    assert shape == (q1 * q2, ctx.milnor_dim(4))
    assert pairing_injective(ctx)
    assert ctx.engine.rank_ledger["pairing"].rank == ctx.milnor_dim(4)


def test_pairing_requires_large_enough_degree():
    f = HomogeneousPolynomial.make(
        3, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}
    )
    ctx = JacobianContext(f, FieldConfig.prime_pair())
    with pytest.raises(DegreeTooSmall):
        pairing_matrix(ctx)


def test_variable_multiplication_kernels_vanish_low(roster):
    ctx = roster.ctx("A")
    for t in range(2 * ctx.d - ctx.n - 1):
        assert variable_multiplication_kernel(ctx, t).dim == 0


def test_socle_is_the_variable_multiplication_kernel(roster):
    ctx = roster.ctx("fermat34")
    T = ctx.socle
    assert variable_multiplication_kernel(ctx, T).dim == 1
    for t in range(4):
        assert variable_multiplication_kernel(ctx, t).dim == 0


def test_effectiveness_check(roster):
    ctx = roster.ctx("A")
    good = _standard_monomials(ctx, ctx.d)
    assert effective_deformation_check(ctx, good)
    # an element of the degree-d ideal slice is not effective
    g0 = partial_derivatives(roster.fixture("A").f)[0]
    bad = [g0.shift((1, 0, 0, 0))]
    assert not effective_deformation_check(ctx, bad)
    # linearly dependent families are not effective either
    assert not effective_deformation_check(ctx, [good[0], good[0]])


def test_effectiveness_rejects_malformed_entries(roster):
    ctx = roster.ctx("A")
    with pytest.raises(ValueError):
        effective_deformation_check(ctx, [HomogeneousPolynomial.zero(3, 4)])
    with pytest.raises(ValueError):
        effective_deformation_check(ctx, [HomogeneousPolynomial.monomial(3, (1, 1, 1, 0))])


def test_period_differential_is_minus_the_pairing(roster):
    for ctx in roster.both_modes("A", one_node(3, 4, 1)):
        V = _standard_monomials(ctx, ctx.d)
        result = period_differential(ctx, V)
        assert result.dim_v == len(V) == ctx.milnor_dim(4)
        assert result.rank == result.dim_v
        assert result.injective
        pairing_payload, pairing_shape = pairing_matrix(ctx)
        assert result.shape == pairing_shape
        assert set(result.payload) == set(ctx.field.keys)
        for F in ctx.field.realizations:
            assert np.array_equal(result.payload[F.key], F.normalize(-pairing_payload[F.key]))


def _period_payload_term_by_term(ctx, V):
    """Minus the pairing on V, summed one term of each element at a time:
    coeff * (classes of the source monomials shifted by the term)."""
    n, d = ctx.n, ctx.d
    k2 = 2 * d - n - 1
    QR2 = ctx.quotient_reduction(k2)
    src = np.array(quotient_basis(ctx, d - n - 1), dtype=np.int64)
    out = {}
    for F in ctx.field.realizations:
        table = QR2[F.key]
        acc = np.zeros((len(V), len(src), table.shape[1]), dtype=F.dtype)
        for j, g in enumerate(V):
            for expo, coeff in g.terms.items():
                ranks = monomial_rank_rows(src + np.array(expo, dtype=np.int64), n, k2)
                acc[j] = F.normalize(acc[j] + F.convert(coeff) * table[ranks])
        out[F.key] = np.ascontiguousarray(F.normalize(-acc).reshape(len(V), -1).T)
    return out


def test_period_differential_of_rational_combinations_sums_its_terms(roster):
    # Quintics have q_1 = 4 source classes. Standard monomials plus elements
    # of the ideal slice keep V effective and give each element many terms.
    x = lambda i: tuple(int(i == j) for j in range(4))
    for ctx in roster.both_modes("C", one_node(3, 5, 1)):
        s, g = _standard_monomials(ctx, ctx.d), ctx.partials
        V = [
            s[0] + s[1].scale(Fraction(1, 2)) - s[2].scale(Fraction(3, 4)) + g[0].shift(x(0)).scale(Fraction(1, 3)),
            s[3].scale(Fraction(2, 3)) - s[0].scale(5) - g[2].shift(x(3)).scale(Fraction(1, 7)),
            s[4],
        ]
        for subspace in (V, V[:1], s[5:9]):
            result = period_differential(ctx, subspace)
            expected = _period_payload_term_by_term(ctx, subspace)
            assert set(result.payload) == set(expected)
            for key, matrix in expected.items():
                assert result.payload[key].dtype == matrix.dtype
                assert result.payload[key].shape == matrix.shape == result.shape
                assert result.payload[key].flags.c_contiguous
                assert np.array_equal(result.payload[key], matrix)
            assert result.rank == len(subspace)


def _residual(F, basis, vec):
    """Oracle: the exact vector reduced in F against the reduced echelon
    basis, each pivot coordinate cleared by its row."""
    res = F.convert(vec)
    for t, pc in enumerate(basis.pivots):
        res = F.normalize(res - res[pc] * basis.payload[F.key][t])
    return res


def test_pairing_entries_are_classes_of_products(roster):
    # reference loop: reduce each product monomial against the ideal slice.
    # Quintics have q_1 = 4 source classes, so the row order matters.
    for ctx in roster.both_modes("C", one_node(3, 5, 1)):
        n, d = ctx.n, ctx.d
        k2 = 2 * d - n - 1
        payload, (rows, _) = pairing_matrix(ctx)
        src, mid = quotient_basis(ctx, d - n - 1), quotient_basis(ctx, d)
        q2 = rows // len(src)
        basis = ctx.jacobian_basis(k2)
        for a, alpha in enumerate(src):
            for j, beta in enumerate(mid):
                vec = [0] * basis.ncols
                vec[monomial_rank(n, k2, tuple(x + y for x, y in zip(alpha, beta)))] = 1
                for F in ctx.field.realizations:
                    coords = _residual(F, basis, vec)[list(basis.free_columns())]
                    assert np.array_equal(payload[F.key][a * q2 : (a + 1) * q2, j], coords)


def test_period_differential_rejects_fourfolds():
    ctx = JacobianContext(fermat(4, 5).f, FieldConfig.prime_pair())
    with pytest.raises(UnsupportedDimension):
        period_differential(ctx, [HomogeneousPolynomial.monomial(4, (5, 0, 0, 0, 0))])


def test_period_differential_rejects_ineffective_subspaces(roster):
    ctx = roster.ctx("A")
    g0 = partial_derivatives(roster.fixture("A").f)[0]
    with pytest.raises(NotEffective):
        period_differential(ctx, [g0.shift((1, 0, 0, 0))])


def test_ledger_tags_count_each_kind_of_check_on_its_own():
    # the tags are part of the ledger labels, so they must not be renumbered
    fx = one_node(3, 4, 1)
    ctx = JacobianContext(fx.f, FieldConfig.prime_pair())
    V = _standard_monomials(ctx, ctx.d)
    for k in (2, 3):
        ideal_of_points_dim(ctx, fx.points, k)
        period_differential(ctx, V)
    tagged = [label for label in ctx.engine.rank_ledger if label.startswith(("ideal-points/", "deformation-", "period-"))]
    assert tagged == [
        "ideal-points/2/1",
        "deformation-span/1",
        "deformation-stack/2",
        "period-differential/3",
        "ideal-points/3/2",
        "deformation-span/4",
        "deformation-stack/5",
        "period-differential/6",
    ]
