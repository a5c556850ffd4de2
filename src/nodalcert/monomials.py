"""Monomial enumeration and ranking for graded pieces of S = Q[x0..xn].

The session monomial order is fixed once and for all: within a degree,
monomials are sorted by descending lexicographic order on exponent tuples
with x0 > x1 > ... > xn, so x0^k comes first and xn^k last. Every graded
piece S_k is coordinatized by this ordered basis, which makes elimination
pivots (and therefore quotient bases) deterministic.
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


@lru_cache(maxsize=None)
def monomial_index(n: int, k: int) -> dict[Exponents, int]:
    """Map each degree-k monomial to its position in the session order."""
    return {mono: i for i, mono in enumerate(monomial_basis(n, k))}


@lru_cache(maxsize=None)
def _binom_table(a_max: int, b_max: int) -> np.ndarray:
    table = np.zeros((a_max + 1, b_max + 1), dtype=np.int64)
    for a in range(a_max + 1):
        for b in range(min(a, b_max) + 1):
            table[a, b] = comb(a, b)
    table.flags.writeable = False
    return table


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


def monomial_rank_rows(rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized :func:`monomial_rank` over an (M, n+1) exponent array."""
    rows = np.asarray(rows, dtype=np.int64)
    m = rows.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 0:
        return np.zeros(m, dtype=np.int64)
    table = _binom_table(k + n, n + 1)
    prefix = np.cumsum(rows, axis=1)
    rem = np.empty((m, n), dtype=np.int64)
    rem[:, 0] = k
    rem[:, 1:] = k - prefix[:, :-1][:, : n - 1]
    gaps = rem - rows[:, :n] - 1
    cols = np.arange(n, dtype=np.int64)
    b = n - cols  # choose index per position
    a = gaps + b[None, :]
    # gaps == -1 encodes "no larger exponent possible": a == b-1 < b, and the
    # zero-initialized table already returns 0 there.
    return table[a, b[None, :]].sum(axis=1)
