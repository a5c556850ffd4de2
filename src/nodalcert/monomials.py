"""Monomial enumeration and ranking for graded pieces of S = Q[x0..xn].

The session monomial order is fixed once and for all: within a degree,
monomials are sorted by descending lexicographic order on exponent tuples
with x0 > x1 > ... > xn, so x0^k comes first and xn^k last. Every graded
piece S_k is coordinatized by this ordered basis, which makes elimination
pivots (and therefore quotient bases) deterministic.

Column positions come from one sorted key per degree. A degree-k exponent
tuple e has digits 0..k, so it is the base-(k+1) number e_0 e_1 ... e_n, and
lexicographic order on the tuples is numeric order on these numbers. The key
is minus that number, so the session order (descending lex) is ascending
key order, and the position of a monomial is where its key falls among the
basis keys of S_k: one ``np.searchsorted``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import InconsistentResult

Exponents = tuple[int, ...]


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention that out-of-range arguments give 0."""
    if b < 0 or a < 0 or a < b:
        return 0
    return comb(a, b)


def space_dim(n: int, k: int) -> int:
    """dim S_k = C(n+k, n) for n+1 variables; 0 for negative degree."""
    if k < 0:
        return 0
    return comb(n + k, n)


@lru_cache(maxsize=None)
def _basis_cached(n: int, k: int) -> tuple[Exponents, ...]:
    if n == 0:
        return ((k,),)
    out: list[Exponents] = []
    for lead in range(k, -1, -1):
        for rest in _basis_cached(n - 1, k - lead):
            out.append((lead, *rest))
    return tuple(out)


def monomial_basis(n: int, k: int) -> tuple[Exponents, ...]:
    """All degree-k monomials in n+1 variables, in the session order."""
    if n < 0 or k < 0:
        raise ValueError("monomial_basis needs n >= 0 and k >= 0")
    basis = _basis_cached(n, k)
    if len(basis) != space_dim(n, k):
        raise InconsistentResult(f"{len(basis)} monomials of degree {k} in {n + 1} variables, not {space_dim(n, k)}")
    return basis


@lru_cache(maxsize=None)
def exponent_matrix(n: int, k: int) -> np.ndarray:
    """The basis of S_k as an (N, n+1) int64 array, rows in session order."""
    arr = np.array(monomial_basis(n, k), dtype=np.int64).reshape(space_dim(n, k), n + 1)
    arr.flags.writeable = False
    return arr


def monomial_rank(n: int, k: int, expo: Exponents) -> int:
    """Position of a degree-k monomial in the session order, O(n) time.

    Counts the monomials that precede ``expo``: for each position i, those
    sharing the prefix but with a larger exponent at i.
    """
    rank = 0
    rem = k
    for i in range(n):
        gap = rem - expo[i] - 1
        rank += binomial(gap + n - i, n - i)
        rem -= expo[i]
    return rank


@lru_cache(maxsize=None)
def _order_keys(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights -(k+1)^(n-i) and the keys they give the basis of S_k,
    ascending in the session order. int64 while the keys fit, Python ints
    beyond."""
    dtype = np.int64 if (k + 1) ** (n + 1) < 2**63 else object
    weights = np.array([-((k + 1) ** (n - i)) for i in range(n + 1)], dtype=dtype)
    keys = np.asarray(exponent_matrix(n, k), dtype=dtype) @ weights
    keys.flags.writeable = False
    return weights, keys


def monomial_rank_rows(rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """:func:`monomial_rank` of each row of an (M, n+1) exponent array."""
    weights, keys = _order_keys(n, k)
    return np.searchsorted(keys, np.asarray(rows, dtype=weights.dtype).reshape(-1, n + 1) @ weights)
