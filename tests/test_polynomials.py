"""Exact homogeneous polynomials: arithmetic, parsing, calculus."""

from fractions import Fraction

import pytest

from nodalcert.errors import ParseError
from nodalcert.monomials import monomial_rank, space_dim
from nodalcert.polynomials import (
    HomogeneousPolynomial,
    common_denominator_scale,
    compose_linear,
    euler_combination,
    parse_polynomial,
    partial_derivatives,
    polynomial_vector,
)


def _fermat(n, d):
    terms = {}
    for i in range(n + 1):
        expo = [0] * (n + 1)
        expo[i] = d
        terms[tuple(expo)] = 1
    return HomogeneousPolynomial.make(n, d, terms)


def test_make_drops_zero_coefficients():
    f = HomogeneousPolynomial.make(2, 2, {(2, 0, 0): 1, (0, 2, 0): 0})
    assert set(f.terms) == {(2, 0, 0)}
    assert not f.is_zero
    assert HomogeneousPolynomial.zero(2, 2).is_zero


def test_make_rejects_inhomogeneous_terms():
    with pytest.raises(ValueError):
        HomogeneousPolynomial.make(2, 2, {(1, 0, 0): 1})


def test_parse_round_trips_rendered_text():
    f = HomogeneousPolynomial.make(
        3,
        3,
        {
            (3, 0, 0, 0): Fraction(2, 3),
            (1, 1, 1, 0): -1,
            (0, 0, 1, 2): Fraction(5),
        },
    )
    assert parse_polynomial(f.to_text(), 3) == f


def test_parse_accepts_plain_syntax():
    f = parse_polynomial("x0^2 - 3*x0*x1 + 1/2*x2^2", 2)
    assert f.degree == 2
    assert f.coefficient((2, 0, 0)) == 1
    assert f.coefficient((1, 1, 0)) == -3
    assert f.coefficient((0, 0, 2)) == Fraction(1, 2)


def test_parse_rejects_mixed_degrees_and_junk():
    with pytest.raises(ParseError):
        parse_polynomial("x0^2 + x1", 1)
    with pytest.raises(ParseError):
        parse_polynomial("x0 + spam", 1)
    with pytest.raises(ParseError):
        parse_polynomial("", 1)


def test_addition_and_scaling():
    f = parse_polynomial("x0^2 + x1^2", 1)
    g = parse_polynomial("x0^2 - x1^2", 1)
    assert (f + g) == parse_polynomial("2*x0^2", 1)
    assert (f - f).is_zero
    assert f.scale(Fraction(1, 2)) == parse_polynomial("1/2*x0^2 + 1/2*x1^2", 1)


def test_shift_multiplies_by_a_monomial():
    f = parse_polynomial("x0 + x1", 1)
    assert f.shift((1, 0)) == parse_polynomial("x0^2 + x0*x1", 1)


def test_power_is_repeated_multiplication():
    f = parse_polynomial("x0 + x1", 1)
    assert f.power(2) == parse_polynomial("x0^2 + 2*x0*x1 + x1^2", 1)
    assert f.power(1) == f


def test_evaluate_exactly():
    f = parse_polynomial("x0^2*x1 - 2*x2^3", 2)
    assert f.evaluate([2, 3, 1]) == 12 - 2
    assert f.evaluate([Fraction(1, 2), 4, 0]) == 1


def test_partials_of_power_sum():
    f = _fermat(3, 4)
    parts = partial_derivatives(f)
    assert len(parts) == 4
    for i, g in enumerate(parts):
        expo = [0] * 4
        expo[i] = 3
        assert g == HomogeneousPolynomial.make(3, 3, {tuple(expo): 4})


def test_euler_combination_recovers_degree_times_f():
    f = parse_polynomial("x0^3 + 2*x0*x1*x2 - x2^3", 2)
    assert euler_combination(f) == f.scale(3)


def test_compose_linear_permutation():
    f = parse_polynomial("x0^2*x1 + x2^3", 2)
    # swap x0 and x2
    perm = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert compose_linear(f, perm) == parse_polynomial("x2^2*x1 + x0^3", 2)


def test_polynomial_vector_in_basis_coordinates():
    f = parse_polynomial("x0^2 + 5*x1*x2", 2)
    vec = polynomial_vector(f)
    assert len(vec) == space_dim(2, 2)
    assert sum(1 for c in vec if c) == 2
    assert sorted(c for c in vec if c) == [1, 5]


def test_polynomial_vector_puts_the_last_monomial_last():
    f = parse_polynomial("x0^3 - 2/3*x2^3 + 7*x0*x1*x2", 2)
    vec = polynomial_vector(f)
    assert vec[0] == 1
    assert vec[-1] == Fraction(-2, 3)
    assert vec[monomial_rank(2, 3, (1, 1, 1))] == 7
    assert sum(1 for c in vec if c) == 3
    assert polynomial_vector(HomogeneousPolynomial.make(2, 3, {})) == [0] * space_dim(2, 3)


def test_common_denominator_scale():
    f = parse_polynomial("1/6*x0^2 + 1/4*x1^2", 1)
    g = parse_polynomial("1/3*x0*x1", 1)
    assert common_denominator_scale([f, g]) == 12
