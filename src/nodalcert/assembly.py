"""Assembly of the structured integer matrices behind every computation.

All maps are assembled once as integer COO triplets (after clearing one
common denominator for the whole matrix — a global scalar that changes
neither ranks, kernels, row spaces, nor pivot columns) and densified per
prime only when an elimination actually runs. Entries are validated to fit
int64 at construction; a single matrix never mixes scales.

Row/column conventions:

* generator matrices (``jacobian_generator_coo``, ``trivial_syzygy_coo``)
  have one row per generator and one column per target monomial — their row
  space is the subspace they span. ``jacobian_generator_coo`` is the only
  builder of rows that are monomial multiples of polynomials: the pair-swap
  syzygies re-index its blocks, and a deformation subspace is its
  degree-0 case. (Evaluations at points are made per realization by
  ``milnor.evaluation_rows``: their integer entries outgrow int64.)
* ``.transposed()`` turns a generator matrix into the matrix of the linear
  map acting on column vectors, which is what kernel computations consume;
  only a matrix with every generator row, never one built with a row mask.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistentResult
from .monomials import exponent_matrix, monomial_rank_rows, space_dim
from .polynomials import HomogeneousPolynomial, common_denominator_scale

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
            # dense_mod would keep one value of a duplicate cell and drop the
            # rest; equal cell keys are neighbours once sorted
            keys = self.rows * np.int64(self.shape[1]) + self.cols
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise InconsistentResult("duplicate COO cell")

    def _unchecked(self, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "IntCOO":
        """A matrix of cells taken from this one's, checked already, so it is
        built without the checks of ``__post_init__``."""
        out = copy.copy(self)
        for name, value in (("shape", shape), ("rows", rows), ("cols", cols), ("vals", vals)):
            object.__setattr__(out, name, value)
        return out

    def transposed(self) -> "IntCOO":
        """The transpose."""
        return self._unchecked((self.shape[1], self.shape[0]), self.cols, self.rows, self.vals)

    def occupied_rows(self) -> "IntCOO":
        """The matrix of the rows that hold a cell, in order: the rows left
        out are zero, so its row space, rank, reduced echelon form and kernel
        are this matrix's."""
        used = np.bincount(self.rows, minlength=self.shape[0]) > 0
        if used.all():
            return self
        rows = (np.cumsum(used) - 1)[self.rows]
        return self._unchecked((int(used.sum()), self.shape[1]), rows, self.cols, self.vals)

    def dense_mod(self, p: int, dtype: type = np.int64) -> np.ndarray:
        """A fresh dense matrix of the entries reduced into [0, p), of
        ``dtype``: int64, or int32 for p < 2^31 at half the bytes."""
        out = np.zeros(self.shape, dtype=dtype)
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
    """(term exponent matrix, integer coefficients) for scale * g; raises
    ``ValueError`` before a coefficient can overflow int64."""
    items = g.sorted_terms()
    expos = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), g.n + 1)
    ints = [int(c * scale) for _, c in items]
    if max(map(abs, ints)) >= _INT64_SAFE:
        raise ValueError("integer matrix entries exceed the int64 safety bound")
    return expos, np.array(ints, dtype=np.int64)


def _cells_coo(shape: tuple[int, int], cells: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> IntCOO:
    """The matrix of the given (rows, cols, vals) blocks of cells; no blocks
    give the zero matrix."""
    empty = np.zeros(0, np.int64)
    return IntCOO(shape, *(np.concatenate([empty] + [block[t] for block in cells]) for t in range(3)))


def jacobian_generator_coo(
    polys: Sequence[HomogeneousPolynomial], k: int, keep: np.ndarray | None = None
) -> IntCOO:
    """Generator matrix of the degree-k multiples of the given polynomials
    g_j, all of one degree e, after clearing one common denominator: rows
    are u * g_j (j-major, then source monomials u of degree k-e in basis
    order), columns are S_k monomials. This is the one place where
    polynomials are multiplied by monomials; for the partials it is the
    degree-k slice of the Jacobian ideal. With ``keep`` (one bool per row),
    only the rows where it is True get cells; the others keep their places,
    empty, so the shape is the same.
    """
    n = polys[0].n
    r = k - polys[0].degree
    if r < 0:
        raise ValueError(f"slice of degree {k} below the generators' degree {polys[0].degree}")
    scale = common_denominator_scale(polys)
    E = exponent_matrix(n, r)
    Ns = E.shape[0]
    # (j, kept source rows, term exponents, term coefficients) per nonzero g_j
    blocks = [
        (j, np.arange(Ns, dtype=np.int64) if keep is None else np.flatnonzero(keep[j * Ns : (j + 1) * Ns]),
         *_poly_term_arrays(g, scale))
        for j, g in enumerate(polys)
        if not g.is_zero
    ]
    # the cells are written in place: blocks concatenated into a second copy
    # left their pages resident and raised the peak memory of the elimination
    # that follows (by ~10 MB at the degree-60 slice of a degree-22 curve)
    rows, cols, vals = (np.empty(sum(len(src) * len(t) for _, src, _, t in blocks), dtype=np.int64) for _ in range(3))
    at = 0
    for j, src, t_expos, t_vals in blocks:
        cell = slice(at, at + len(src) * len(t_vals))
        rows[cell] = np.repeat(src + j * Ns, len(t_vals))
        cols[cell] = monomial_rank_rows((E[src, None, :] + t_expos[None, :, :]).reshape(-1, n + 1), n, k)
        vals[cell] = np.tile(t_vals, len(src))
        at = cell.stop
    return IntCOO((len(polys) * Ns, space_dim(n, k)), rows, cols, vals)


def trivial_syzygy_coo(partials: Sequence[HomogeneousPolynomial], r: int) -> IntCOO:
    """Generator matrix of the obvious relations among the partials in
    degree r: for every pair i < j and every monomial h of degree r-d+1 the
    row places h*g_j in slot i and -h*g_i in slot j of the slot-major
    column space (S_r)^(n+1). Its blocks are those of the degree-r
    generator matrix, whose row j*N_h + h is h*g_j.
    """
    n = partials[0].n
    Nr = space_dim(n, r)
    if r < partials[0].degree:
        return _cells_coo((0, (n + 1) * Nr), [])
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    gen = jacobian_generator_coo(partials, r)
    Nh = gen.shape[0] // (n + 1)
    src, h = np.divmod(gen.rows, Nh)
    cells = []
    for pair_idx, (i, j) in enumerate(pairs):
        for slot, s, sign in ((i, j, 1), (j, i, -1)):
            mine = src == s
            cells.append((h[mine] + pair_idx * Nh, gen.cols[mine] + slot * Nr, sign * gen.vals[mine]))
    return _cells_coo((len(pairs) * Nh, (n + 1) * Nr), cells)
