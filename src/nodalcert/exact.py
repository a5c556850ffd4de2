"""Exact linear algebra over the rationals.

Rank uses fraction-free Bareiss elimination on Python integers. Reduced
echelon forms use a Bareiss forward pass followed by a rational Gauss-Jordan
back pass, so the expensive full-row sweeps stay in integer arithmetic and
fractions only appear on the (much smaller) echelon rows.

Pivot rule everywhere: first nonzero row in the earliest unfinished column —
the same rule the prime-field kernels use, so pivot column sets are directly
comparable across fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

ExactRows = tuple[tuple[Fraction, ...], ...]


def _to_int_matrix(rows: Sequence[Sequence]) -> list[list[int]]:
    """Copy rows to mutable integer rows, clearing denominators per row.

    Row scaling by a positive integer preserves rank, row space, and reduced
    echelon form, so per-row clearing is safe for everything in this module.
    """
    out = []
    for row in rows:
        denom = 1
        for v in row:
            if isinstance(v, Fraction):
                d = v.denominator
                denom = denom * d // math.gcd(denom, d)
        out.append([int(v * denom) if isinstance(v, Fraction) else int(v) * denom for v in row])
    return out


def _bareiss_forward(M: list[list[int]]) -> list[int]:
    """Fraction-free forward elimination of a nonempty integer matrix, in
    place; returns the pivot columns, whose count is the rank. The first
    rank rows of M are then the echelon rows."""
    R, C = len(M), len(M[0])
    prev = 1
    pivots: list[int] = []
    r = 0
    for c in range(C):
        if r >= R:
            break
        piv = -1
        for i in range(r, R):
            if M[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
        pv = M[r][c]
        for i in range(r + 1, R):
            mic = M[i][c]
            row_i = M[i]
            row_r = M[r]
            # Sylvester's identity makes the division exact for every row,
            # including rows with mic == 0 (they still pick up the pv/prev
            # rescaling that keeps later divisions exact).
            for j in range(c + 1, C):
                row_i[j] = (row_i[j] * pv - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pv
        pivots.append(c)
        r += 1
    return pivots


def bareiss_rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of an integer (or Fraction) matrix, fraction-free."""
    M = _to_int_matrix(rows)
    if not M or not M[0]:
        return 0
    return len(_bareiss_forward(M))


def rref_fraction(rows: Sequence[Sequence]) -> tuple[ExactRows, tuple[int, ...]]:
    """Reduced row echelon form over Q.

    Returns (echelon rows as Fraction tuples with unit pivots, pivot column
    indices). Forward elimination is fraction-free Bareiss; the surviving
    echelon rows are then normalized and back-substituted rationally.
    """
    M = _to_int_matrix(rows)
    if not M or not M[0]:
        return (), ()
    C = len(M[0])
    pivots = _bareiss_forward(M)
    r = len(pivots)
    # Rational back pass on the r echelon rows only.
    ech: list[list[Fraction]] = []
    for s in range(r):
        pc = pivots[s]
        pv = M[s][pc]
        ech.append([Fraction(v, pv) for v in M[s]])
    for s in range(r - 1, -1, -1):
        row_s = ech[s]
        pc = pivots[s]
        for t in range(s):
            f = ech[t][pc]
            if f:
                row_t = ech[t]
                for j in range(pc, C):
                    if row_s[j]:
                        row_t[j] -= f * row_s[j]
    return tuple(tuple(row) for row in ech), tuple(pivots)
