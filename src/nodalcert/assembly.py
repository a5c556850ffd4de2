"""Assembly of the structured integer matrices behind every computation.

All maps are assembled once as integer COO triplets (after clearing one
common denominator for the whole matrix — a global scalar that changes
neither ranks, kernels, row spaces, nor pivot columns) and densified per
prime only when an elimination actually runs. Entries are validated to fit
int64 at construction; a single matrix never mixes scales.

Row/column conventions:

* generator matrices (``jacobian_generator_coo``, ``trivial_syzygy_coo``)
  have one row per generator and one column per target monomial — their row
  space is the subspace they span.
* ``.transposed()`` turns a generator matrix into the matrix of the linear
  map acting on column vectors, which is what kernel computations consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InconsistentResult
from .monomials import exponent_matrix, monomial_basis, monomial_rank_rows, space_dim
from .polynomials import HomogeneousPolynomial, common_denominator_scale, polynomial_vector

_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class IntCOO:
    """Sparse integer matrix as coordinate triplets (no duplicate cells)."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        if not self.rows.shape == self.cols.shape == self.vals.shape:
            raise InconsistentResult(f"COO triplets of shapes {self.rows.shape}, {self.cols.shape}, {self.vals.shape}")
        if self.vals.size:
            if int(np.abs(self.vals).max()) >= _INT64_SAFE:
                raise ValueError("integer matrix entries exceed the int64 safety bound")
            # dense_mod would keep one value of a duplicate cell and drop the rest
            keys = self.rows * np.int64(self.shape[1]) + self.cols
            if np.unique(keys).size != keys.size:
                raise InconsistentResult("duplicate COO cell")

    def transposed(self) -> "IntCOO":
        return IntCOO(
            (self.shape[1], self.shape[0]),
            rows=self.cols,
            cols=self.rows,
            vals=self.vals,
        )

    def dense_mod(self, p: int) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        if self.vals.size:
            out[self.rows, self.cols] = self.vals % p
        return out

    def dense_int_rows(self) -> list[list[int]]:
        out = [[0] * self.shape[1] for _ in range(self.shape[0])]
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
            out[r][c] = v
        return out


def coo_vstack(blocks: Sequence[IntCOO]) -> IntCOO:
    """Stack generator matrices sharing a column space."""
    ncols = blocks[0].shape[1]
    if any(b.shape[1] != ncols for b in blocks):
        raise InconsistentResult(f"stacking blocks with column counts {[b.shape[1] for b in blocks]}")
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    rows = np.concatenate([b.rows + off for b, off in zip(blocks, offsets)]) if blocks else np.zeros(0, np.int64)
    cols = np.concatenate([b.cols for b in blocks])
    vals = np.concatenate([b.vals for b in blocks])
    return IntCOO((int(offsets[-1]), ncols), rows, cols, vals)


def _poly_term_arrays(g: HomogeneousPolynomial, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """(term exponent matrix, integer coefficients) for scale * g."""
    items = g.sorted_terms()
    expos = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), g.n + 1)
    vals = np.array([int(c * scale) for _, c in items], dtype=np.int64)
    return expos, vals


def jacobian_generator_coo(partials: Sequence[HomogeneousPolynomial], k: int) -> IntCOO:
    """Generator matrix of the degree-k slice of the ideal spanned by the
    given degree-(d-1) polynomials: rows are u * g_j (j-major, then source
    monomials u of degree k-d+1 in basis order), columns are S_k monomials.
    """
    n = partials[0].n
    dm1 = partials[0].degree
    r = k - dm1
    if r < 0:
        raise ValueError(f"Jacobian slice of degree {k} below the partials' degree {dm1}")
    scale = common_denominator_scale(partials)
    E = exponent_matrix(n, r)
    Ns = E.shape[0]
    N = space_dim(n, k)
    rows_parts = []
    cols_parts = []
    vals_parts = []
    for j, g in enumerate(partials):
        if g.is_zero:
            continue
        t_expos, t_vals = _poly_term_arrays(g, scale)
        T = t_vals.size
        summed = (E[:, None, :] + t_expos[None, :, :]).reshape(Ns * T, n + 1)
        cols_parts.append(monomial_rank_rows(summed, n, k))
        rows_parts.append(np.repeat(np.arange(Ns, dtype=np.int64) + j * Ns, T))
        vals_parts.append(np.tile(t_vals, Ns))
    if not rows_parts:
        return IntCOO(((len(partials)) * Ns, N), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))
    return IntCOO(
        (len(partials) * Ns, N),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
    )


def trivial_syzygy_coo(partials: Sequence[HomogeneousPolynomial], r: int) -> IntCOO:
    """Generator matrix of the obvious relations among the partials in
    degree r: for every pair i < j and every monomial h of degree r-d+1 the
    row places h*g_j in slot i and -h*g_i in slot j of the slot-major
    column space (S_r)^(n+1).
    """
    n = partials[0].n
    dm1 = partials[0].degree
    h_deg = r - dm1
    Nr = space_dim(n, r)
    ncols = (n + 1) * Nr
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    if h_deg < 0:
        return IntCOO((0, ncols), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))
    scale = common_denominator_scale(partials)
    E = exponent_matrix(n, h_deg)
    Nh = E.shape[0]
    term_cache = {}
    for j, g in enumerate(partials):
        if not g.is_zero:
            term_cache[j] = _poly_term_arrays(g, scale)
    rows_parts = []
    cols_parts = []
    vals_parts = []

    def emit(pair_idx: int, slot: int, src: int, sign: int) -> None:
        # rows h (basis order) of pair pair_idx; entries sign * h * g_src in slot
        if src not in term_cache:
            return
        t_expos, t_vals = term_cache[src]
        T = t_vals.size
        summed = (E[:, None, :] + t_expos[None, :, :]).reshape(Nh * T, n + 1)
        local = monomial_rank_rows(summed, n, r)
        cols_parts.append(local + slot * Nr)
        rows_parts.append(np.repeat(np.arange(Nh, dtype=np.int64) + pair_idx * Nh, T))
        vals_parts.append(np.tile(sign * t_vals, Nh))

    for pair_idx, (i, j) in enumerate(pairs):
        emit(pair_idx, i, j, +1)
        emit(pair_idx, j, i, -1)
    nrows = len(pairs) * Nh
    if not rows_parts:
        return IntCOO((nrows, ncols), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))
    return IntCOO(
        (nrows, ncols),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
    )


def polys_to_exact_rows(polys: Sequence[HomogeneousPolynomial], k: int) -> list[list[Fraction]]:
    """Coordinate rows of the given degree-k polynomials over the monomial
    basis of S_k (exact rationals)."""
    N = space_dim(polys[0].n, k) if polys else 0
    rows = []
    for g in polys:
        if g.is_zero:
            rows.append([Fraction(0)] * N)
            continue
        if g.degree != k:
            raise ValueError(f"polynomial of degree {g.degree} in a degree-{k} coordinate matrix")
        rows.append(polynomial_vector(g))
    return rows


def evaluation_rows(points: Sequence[Sequence[Fraction]], n: int, k: int) -> list[list[Fraction]]:
    """Evaluation matrix rows: row per point, column per S_k monomial; the
    kernel of this matrix (acting on coefficient column vectors) is the
    degree-k part of the ideal of the points."""
    basis = monomial_basis(n, k)
    out = []
    for pt in points:
        if len(pt) != n + 1:
            raise ValueError(f"point with {len(pt)} coordinates in P^{n}")
        powers = [[Fraction(1)] * (k + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for e in range(1, k + 1):
                powers[i][e] = powers[i][e - 1] * pt[i]
        row = []
        for expo in basis:
            v = Fraction(1)
            for i, e in enumerate(expo):
                if e:
                    v *= powers[i][e]
            row.append(v)
        out.append(row)
    return out


def exact_rows_to_int_coo(rows: Sequence[Sequence[Fraction]], ncols: int) -> IntCOO:
    """Clear one common denominator across all rows and return the integer
    COO (global scaling preserves rank, kernel, and row space)."""
    denom = 1
    for row in rows:
        for v in row:
            fr = Fraction(v)
            denom = denom * fr.denominator // math.gcd(denom, fr.denominator)
    rr, cc, vv = [], [], []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                iv = int(Fraction(v) * denom)
                rr.append(i)
                cc.append(j)
                vv.append(iv)
    return IntCOO(
        (len(rows), ncols),
        np.array(rr, dtype=np.int64),
        np.array(cc, dtype=np.int64),
        np.array(vv, dtype=np.int64),
    )
