"""Prime-field elimination kernels, in numpy.

Every kernel returns the pivot columns of the reduced row echelon form,
which is unique; the scalar kernel and the panel pass follow one pivot rule
(first nonzero row in the earliest unfinished column).
``benchmarks/bench_elimination.py`` times them on random and Jacobian-slice
matrices.

One scalar kernel and one blocked forward pass, and two drivers that switch
between them at ``_SCALAR_CUTOFF`` entries: ``rank_mod`` (the rank) and
``rref_free_mod`` (the pivot columns and the reduced form's free columns).

* scalar — ``rref_mod``: full reduced row echelon form by row operations, in
  place, on an int64 matrix. Both drivers use it at or below the cutoff.
* blocked — above the cutoff. Right-looking blocked elimination (the
  FFLAS-FFPACK scheme): a 128-wide panel is factored while recording
  multipliers, by the rank-profile recursion of Jeannerod, Pernet and
  Storjohann (JSC 2013): in a transposed copy of the panel, halves are
  factored one after the other down to 16 columns, which go column by
  column, and between halves the left half's pivot rows are finished by
  the inverse of their unit lower-triangular multiplier block and the rows
  below are updated with one product. The row swaps are replayed on the
  rest of the matrix. The panel's pivot rows are then finished in the
  trailing columns with the inverse of the panel's multiplier block, and
  the trailing block below is updated with one more product. This forward
  pass is shared: ``blocked_rank_mod`` stops after it with the rank, and
  ``blocked_rref_free_mod`` goes on to the one back-substitution, to the
  pivot columns and the reduced form's free columns, all that bases need
  (echelons, quotient bases, kernels). The reduced form is the
  identity at the pivot columns and those columns at the others, which
  ``linalg.reduced_rows`` writes; it is unique, so it equals the scalar
  one entry for entry. Every product X @ Y has an inner dimension of at
  most 128 and runs as two float64 products: the narrow factor X is split
  into balanced 16-bit limbs, X = X1 * 2^16 + X0 with X0 in [-2^15, 2^15)
  and X1 in [0, 2^15], and Y stays whole (X1 multiplies 2^16 Y mod p), so
  each dot product is a sum of at most 128 terms bounded by 2^46, hence
  below 2^53 and exact; the two products are summed and reduced modulo p
  in int64. Exactness makes the result independent of BLAS summation
  order, so this is deterministic. The trailing products run over column
  chunks sized so that each float64 product buffer stays near
  ``_PRODUCT_BYTES``; the other temporaries (the transposed panel, the
  multipliers, their limbs and the products inside the panel) are at most
  128 columns or rows wide.

Known pivots. The leading columns of a subspace's vectors are exactly the
pivot columns of its reduced echelon form, so the leading column of every
nonzero row of A is one, known before any elimination. In a Macaulay
matrix such as a Jacobian slice, where the row x^a g_j leads at
x^a LM(g_j), about half of the pivots are known this way (Faugere and
Lachartre, PASCO 2010). So the forward pass starts with them: one row per
distinct leading column is moved to the top in column order and the known
columns to the left, in place (rows cycle by cycle through a one-row
buffer, columns over row chunks), which leaves a unit upper-triangular
block once those rows are scaled. The other rows, sorted by leading
column, lose their known columns by blocked substitution: per block of
128 known columns, multipliers from the inverse of the block's diagonal
block and one fuse over the columns right of it, for only the rows that
lead left of the block's end; no pivot search and no panel. The panel
pass then runs on the Schur complement alone, the remaining rows on the
remaining columns, in place as a view of A. The columns and the pivot rows
are put back in order, so the back-substitution reads a row echelon form
as before. Besides A, the pre-pass makes the leading columns (one int64
per row), row-chunk and one-row copies, and int64 multipliers and their
limbs at most 128 columns wide; no temporary is as large as A. With fewer
than two distinct leading columns, as in a random matrix, where every row
leads in the first column, it leaves A to the panel pass.

The blocked kernels also take an int32 matrix, half the bytes of int64;
every residue below p < 2^31 fits. They read int32 entries into int64 (the
transposed panel, the factor of every product) and write back residues,
so their results and every intermediate matrix are those of an int64 copy;
the drivers give the scalar kernel an int64 copy of an int32 matrix.
``LinearEngine`` runs every elimination in int32, and above
``_CONCURRENT_ENTRIES`` it runs the per-prime step of a prime pair for
both primes at once, the second in a child process forked for the pair
(``linalg._pair``), with OpenBLAS pinned to one thread through
``openblas_threads``.
The kernels themselves start no thread or process and set no BLAS thread
count. Reduced rows and kernel rows of a reduced form's free columns are
written in ``linalg``, for both fields.
"""

from __future__ import annotations

import ctypes
import functools
from types import SimpleNamespace

import numpy as np

from .errors import InconsistentResult

PANEL_WIDTH = 128
# entries; at or below this the scalar rref_mod computes ranks and free
# columns, above it blocked_rank_mod and blocked_rref_free_mod. Measured with
# benchmarks/bench_elimination.py (numpy kernels with the known-pivot
# pre-pass, seeds 1-3, full Jacobian slices; blocked/scalar time). Ranks:
# at 6,720-9,600 entries 0.93-1.34, from 16,800 to 23,100 0.76-0.99
# (blocked wins every run, by at most 3.7 ms) and from 36,960 up
# blocked_rank_mod wins every run (0.32-0.88). Pivot and free columns
# (rref_free_mod): at 36,960 entries the scalar rref wins every run
# (1.03-1.09), at 49,280 0.86-1.15 (blocked wins two runs of three) and
# from 73,920 up the blocked one wins every run (0.44-0.89). Both crossovers
# moved down with the pre-pass (they were near 49,280 and 73,920) and one
# cutoff still serves both: below 40,000 entries a rank loses at most 7 ms
# (both primes) to the blocked kernel, and between 40,000 and 73,920 a
# free-column step loses at most 7 ms to the scalar one.
_SCALAR_CUTOFF = 40_000
# entries; above this LinearEngine ranks a prime pair's two int32 matrices at
# once, the second in a forked child, each on one BLAS thread. Measured on
# Jacobian slices of one_node fixtures (seeds 1, 2, 3), 2-core VM, one BLAS
# thread, at-once / in-turn wall time, fork and reap included, median of 9
# rounds that each time every slice once (both orders in turn):
#
#   entries    slice          at once / in turn
#     36,960   (3,4) k=8      0.78  0.84  0.81
#     37,908   (2,19) k=25    0.81  0.82  0.79
#     49,280   (3,5) k=9      0.77  0.69  0.76
#     73,920   (3,4) k=9      0.72  0.76  0.69
#     86,130   (2,19) k=28    0.74  0.78  0.72
#     96,096   (3,5) k=10     0.71  0.69  0.67
#    137,280   (3,4) k=10     0.68  0.71  0.64
#    174,720   (3,5) k=11     0.66  0.70  0.66
#    300,300   (3,5) k=12     0.65  0.63  0.62
#    492,800   (3,5) k=13     0.61  0.59  0.61
#    777,920   (3,5) k=14     0.55  0.58  0.56
#  1,316,658   (2,19) k=45    0.59  0.56  0.57
#
# Timed slice by slice instead (7 runs of one slice, then the next), small
# pairs often lost: medians 0.82-1.33 from 16,800 to 86,130 entries, 1.06
# at 96,096 and 0.56-0.84 from 137,280 up. A fork and reap alone take
# about 2 ms. So the gate sits at 90,000: below it a pair saves at most
# 31 % of 30-45 ms and sometimes loses, above it it saves 30-45 %.
_CONCURRENT_ENTRIES = 90_000
# bytes of one float64 product buffer in the blocked kernel's column chunks
_PRODUCT_BYTES = 1 << 20
# order up to which _np_unit_lower_inverse eliminates column by column
_INVERSE_BASE = 16
# width up to which _np_panel_block factors column by column; on the
# 1785 x 1378 Jacobian slice 8 and 16 were the fastest, 4 and 32 about
# 10 % slower and 64 25 % slower
_PANEL_BASE = 16

# read only by perfbench/run.py, which prints the backend in its env line;
# they go with the next change to the benchmark
HAS_NUMBA = False
ACTIVE = SimpleNamespace(name="numpy")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _np_reduce(S: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """S mod p for int64 S, into ``out`` (default: S itself), as S - (S // p) * p:
    numpy's floor division by a scalar is several times faster than its
    remainder, and equal to it digit for digit. It allocates a quotient the
    size of S, so whole-matrix reductions in place keep ``%=``."""
    q = S // p
    q *= p
    return np.subtract(S, q, out=S if out is None else out)


def rref_mod(A: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """In-place reduced row echelon form of A over F_p, the scalar kernel;
    A is int64, C-contiguous, with entries already reduced into [0, p).

    Returns (rank, pivot column indices). Entries stay int64; every
    intermediate fits: values < p < 2**31, multipliers < p, so products are
    below 2**62.
    """
    R, C = A.shape
    pivots = []
    r = 0
    for c in range(C):
        if r >= R:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv], :] = A[[piv, r], :]
        inv = pow(int(A[r, c]), -1, p)
        if inv != 1:
            A[r, c:] = _np_reduce(A[r, c:] * inv, p)
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            f = A[rows, c][:, None]
            A[rows, c:] = _np_reduce(A[rows, c:] + (p - f) * A[r, c:], p)
        pivots.append(c)
        r += 1
    return r, np.array(pivots, dtype=np.int64)


def _np_panel(A: np.ndarray, r0: int, c0: int, w: int, p: int, F: np.ndarray) -> tuple[int, np.ndarray]:
    """Factor panel columns [c0, c0+w) over rows [r0, R).

    Eliminates panel columns only (trailing columns untouched), recording the
    multiplier of row i against panel pivot s in F[i-r0, s]. Pivot rows are
    swapped into place r0, r0+1, ...; returns (npiv, global pivot columns).

    The panel is factored in a contiguous transposed copy, so a column is a
    row of length R - r0, by recursive halving (_np_panel_block). The copy
    is int64 whatever the dtype of A, so its products do not overflow. Its
    row swaps are recorded and replayed on the whole rows of A before the
    factored panel is written back: the trailing columns are swapped in
    place, never gathered.
    """
    cend = min(c0 + w, A.shape[1])
    T = np.ascontiguousarray(A[r0:, c0:cend].T, dtype=np.int64)
    swaps: list[tuple[int, int]] = []
    pivcols = _np_panel_block(T, F, 0, cend - c0, 0, p, swaps)
    for i, j in swaps:
        A[[r0 + i, r0 + j]] = A[[r0 + j, r0 + i]]
    A[r0:, c0:cend] = T.T
    return len(pivcols), np.array(pivcols, dtype=np.int64) + c0


def _np_panel_block(
    T: np.ndarray, F: np.ndarray, a: int, b: int, r: int, p: int, swaps: list[tuple[int, int]]
) -> list[int]:
    """Factor columns [a, b) of the transposed panel T (T[c, i] is panel row
    i, column c) with pivot rows from r, the columns left of a already
    factored; returns the pivot columns. The multipliers against the panel's
    pivot t, which sits in row t, go to column t of F.

    Up to _PANEL_BASE columns, scalar elimination column by column. Wider
    blocks are split in halves: once the left half is factored, its pivot
    rows are finished in the right half by the inverse of their unit
    lower-triangular multiplier block, the rows below lose their multiples
    of them with one product, and the right half is factored from the next
    free row. Row swaps act on whole panel rows and whole rows of F (whose
    columns from the current pivot on are still zero), as in the scalar
    order, and are appended to ``swaps``.
    """
    if b - a <= _PANEL_BASE:
        return _np_panel_columns(T, F, a, b, r, p, swaps)
    m = (a + b) // 2
    left = _np_panel_block(T, F, a, m, r, p, swaps)
    k = len(left)
    if k:
        top = T[m:b, r : r + k]
        if k > 1:
            top[...] = _np_mulmod(*_limbs(top), _np_unit_lower_inverse(F[r : r + k, r : r + k], p).T, p)
        if r + k < T.shape[1]:
            _np_fuse(T[m:b, r + k :], *_limbs(top), F[r + k :, r : r + k].T, p)
    return left + _np_panel_block(T, F, m, b, r + k, p, swaps)


def _np_panel_columns(
    T: np.ndarray, F: np.ndarray, a: int, b: int, r: int, p: int, swaps: list[tuple[int, int]]
) -> list[int]:
    """The scalar base case of _np_panel_block: columns [a, b) one by one,
    updating the block's own later columns along rows of T."""
    n = T.shape[1]
    pivcols = []
    for c in range(a, b):
        if r >= n:
            break
        nz = np.flatnonzero(T[c, r:])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            T[:, [r, piv]] = T[:, [piv, r]]
            F[[r, piv]] = F[[piv, r]]
            swaps.append((r, piv))
        inv = pow(int(T[c, r]), -1, p)
        f = _np_reduce(T[c, r + 1 :] * inv, p)
        F[r + 1 :, r] = f
        T[c, r + 1 :] = 0
        if c + 1 < b:
            blk = T[c + 1 : b, r + 1 :]
            _np_reduce(blk + T[c + 1 : b, r, None] * (p - f), p, out=blk)
        pivcols.append(c)
        r += 1
    return pivcols


def _limbs(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced 16-bit limbs (X0, X1) of entries in [0, 2^31), as float64:
    X = X1 * 2^16 + X0 with X0 in [-2^15, 2^15) and X1 in [0, 2^15]."""
    X0 = ((X + 0x8000) & 0xFFFF) - 0x8000
    return X0.astype(np.float64), ((X - X0) >> 16).astype(np.float64)


def _chunk_columns(rows: int) -> int:
    """Column chunk width keeping a (rows x chunk) float64 buffer near
    ``_PRODUCT_BYTES``."""
    return max(1, _PRODUCT_BYTES // (8 * rows))


def _np_limb_product(X0: np.ndarray, X1: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """A fresh int64 S congruent to X @ Y modulo p, from the balanced limbs
    of X (``_limbs``) and Y (int64 or int32) with entries in [0, p):
    S = X1 @ (2^16 Y mod p) + X0 @ Y, two float64 products. The shift is
    taken in int64, where 2^16 Y < 2^47 fits.

    With inner dimension at most PANEL_WIDTH = 2^7, each product is a sum of
    at most 2^7 terms below 2^15 * 2^31 = 2^46 in size, so below 2^53 and
    exact whatever the summation order; |S| < 2^54. A larger inner dimension
    would void that bound, so it raises. The high limb's factor 2^16 is
    reduced on Y, which has at most PANEL_WIDTH rows, not on X1 @ Y, which
    has as many rows as X. One float64 and two int64 result-sized buffers
    are live at most.
    """
    if X0.shape[1] > PANEL_WIDTH:
        raise InconsistentResult(f"limb product with inner dimension {X0.shape[1]} > {PANEL_WIDTH} is not exact")
    P = X1 @ _np_reduce(np.left_shift(Y, 16, dtype=np.int64), p).astype(np.float64)
    S = P.astype(np.int64)
    np.matmul(X0, Y.astype(np.float64), out=P)
    S += P.astype(np.int64)
    return S


def _np_mulmod(X0: np.ndarray, X1: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """(X @ Y) mod p as a fresh int64 array, from the balanced limbs of X
    (``_limbs``) and Y with entries in [0, p): the two float64 products of
    ``_np_limb_product``, reduced. X is the narrow operand, of at most
    PANEL_WIDTH columns, and the only one split; Y stays whole."""
    return _np_reduce(_np_limb_product(X0, X1, Y, p), p)


def _np_unit_lower_inverse(L: np.ndarray, p: int) -> np.ndarray:
    """Inverse over F_p of the unit lower-triangular matrix whose strictly
    lower part is that of the square L (its diagonal and upper part are not
    read); the inverse of a unit upper-triangular U is this of U.T, transposed.

    Recursive 2x2 block inversion, inv([[L11, 0], [L21, L22]]) =
    [[X11, 0], [-X22 L21 X11, X22]], with the off-diagonal block two limb
    products whose left factors are split (order at most PANEL_WIDTH, so
    inner dimensions stay within it); blocks of order at most _INVERSE_BASE
    by forward elimination of [L | I] column by column.
    """
    n = L.shape[0]
    if n <= _INVERSE_BASE:
        X = np.eye(n, dtype=np.int64)
        for t in range(n - 1):
            f = L[t + 1 :, t]
            if f.any():
                X[t + 1 :, : t + 1] = _np_reduce(X[t + 1 :, : t + 1] + (p - f)[:, None] * X[t, : t + 1], p)
        return X
    h = n // 2
    X = np.zeros((n, n), dtype=np.int64)
    X11 = X[:h, :h] = _np_unit_lower_inverse(L[:h, :h], p)
    X22 = X[h:, h:] = _np_unit_lower_inverse(L[h:, h:], p)
    M = _np_mulmod(*_limbs(X22), L[h:, :h], p)
    M = _np_mulmod(*_limbs(M), X11, p)
    X[h:, :h] = (p - M) % p
    return X


def _np_left_multiply(U: np.ndarray, X: np.ndarray, p: int) -> None:
    """U = (X @ U) mod p in place for X of order at most PANEL_WIDTH, one
    limb product per column chunk, with X split."""
    X0, X1 = _limbs(X)
    chunk = _chunk_columns(X.shape[0])
    for j0 in range(0, U.shape[1], chunk):
        U[:, j0 : j0 + chunk] = _np_mulmod(X0, X1, U[:, j0 : j0 + chunk], p)


def _np_triangular(A: np.ndarray, r0: int, npiv: int, ctrail: int, p: int, F: np.ndarray) -> None:
    """Finalize the trailing part of the panel's pivot rows.

    Pivot row s must absorb the updates of pivot rows t < s, i.e. the
    trailing rows are multiplied by L^-1 where L is the unit lower-triangular
    multiplier block F[:npiv, :npiv]; done as one limb product per column
    chunk.
    """
    if ctrail >= A.shape[1] or npiv < 2:
        return
    _np_left_multiply(A[r0 : r0 + npiv, ctrail:], _np_unit_lower_inverse(F[:npiv, :npiv], p), p)


def _np_fuse(T: np.ndarray, X0: np.ndarray, X1: np.ndarray, Y: np.ndarray, p: int) -> None:
    """T -= (X @ Y) mod p in place, from the balanced limbs of X and Y with
    entries in [0, p), by one reduction of T - S (``_np_limb_product``)."""
    S = _np_limb_product(X0, X1, Y, p)
    np.subtract(T, S, out=S)
    _np_reduce(S, p, out=T)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _fuse_product(T: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int) -> None:
    """T -= (X @ Y) mod p in place, one ``_np_fuse`` per column chunk; X has
    at most PANEL_WIDTH columns, is the factor split into limbs and is read
    in full before T is written."""
    X0, X1 = _limbs(X)
    chunk = _chunk_columns(T.shape[0])
    for j0 in range(0, T.shape[1], chunk):
        _np_fuse(T[:, j0 : j0 + chunk], X0, X1, Y[:, j0 : j0 + chunk], p)


def _row_chunk(cols: int) -> int:
    """Rows per chunk keeping a (chunk x cols) int64 temporary near
    ``_PRODUCT_BYTES``."""
    return max(1, _PRODUCT_BYTES // (8 * max(1, cols)))


def _leads(A: np.ndarray) -> np.ndarray:
    """Each row's first nonzero column, or the column count for a zero row;
    read over row chunks, so no bool matrix the size of A is made."""
    R, C = A.shape
    out = np.full(R, C, dtype=np.int64)
    step = _row_chunk(C)
    for r0 in range(0, R if C else 0, step):
        nz = A[r0 : r0 + step] != 0
        lead = nz.argmax(axis=1)
        hit = nz[np.arange(lead.size), lead]
        out[r0 : r0 + step][hit] = lead[hit]
    return out


def _permute_rows(A: np.ndarray, order: np.ndarray) -> None:
    """A[:] = A[order] in place, one cycle of the permutation at a time
    through a one-row buffer; rows that stay are not touched."""
    done = order == np.arange(order.size)
    for start in np.flatnonzero(~done).tolist():
        if done[start]:
            continue
        buf = A[start].copy()
        i = start
        while order[i] != start:
            A[i] = A[order[i]]
            done[i] = True
            i = int(order[i])
        A[i] = buf
        done[i] = True


def _permute_columns(A: np.ndarray, order: np.ndarray) -> None:
    """A[:] = A[:, order] in place, over row chunks."""
    step = _row_chunk(A.shape[1])
    for r0 in range(0, A.shape[0], step):
        A[r0 : r0 + step] = A[r0 : r0 + step][:, order]


def _substitute(A: np.ndarray, nk: int, leads: np.ndarray, p: int) -> None:
    """Clear the first nk columns of rows nk.. of A against its first nk
    rows, whose nk x nk leading block is unit upper triangular, by blocks of
    PANEL_WIDTH columns from the left: a block's multipliers are its entries
    times the inverse of the block's diagonal block (an int64 copy, rows x
    at most PANEL_WIDTH), and one fuse removes their multiples of the
    block's rows from every column right of the block. ``leads`` holds the
    ascending leading columns of rows nk.., so a block touches only the
    rows leading left of its end; the others are zero in its columns. The
    cleared columns are left holding garbage, which the caller zeroes."""
    C = A.shape[1]
    for b0 in range(0, nk, PANEL_WIDTH):
        b1 = min(b0 + PANEL_WIDTH, nk)
        rows = nk + int(np.searchsorted(leads, b1))
        if rows == nk:
            continue
        Y = A[nk:rows, b0:b1].astype(np.int64)
        if b1 - b0 > 1:
            Y = _np_mulmod(*_limbs(Y), _np_unit_lower_inverse(A[b0:b1, b0:b1].T, p).T, p)
        if b1 < C:
            _fuse_product(A[nk:rows, b1:], Y, A[b0:b1, b1:], p)


def _forward(A: np.ndarray, p: int) -> np.ndarray:
    """Blocked forward elimination of A over F_p, in place; returns the pivot
    columns, ascending.

    Leaves a row echelon form: pivot row i holds a nonzero pivot at
    pivots[i] and zeros left of it, and the rows below the rank are zero.

    The known pivots go first (module docstring): their rows, moved to the
    top and scaled to unit leads, clear the other rows by ``_substitute``,
    and the panel pass (``_panels``) eliminates only the Schur complement.
    """
    R, C = A.shape
    lead = _leads(A)
    known, first = np.unique(lead, return_index=True)
    first, known = first[known < C], known[known < C]
    nk = known.size
    if nk < 2:
        return _panels(A, p)
    rest = np.setdiff1d(np.arange(R), first)
    rest = rest[np.argsort(lead[rest], kind="stable")]
    _permute_rows(A, np.concatenate([first, rest]))
    order = np.concatenate([known, np.setdiff1d(np.arange(C), known)])
    moved = bool(np.any(order != np.arange(C)))
    if moved:
        _permute_columns(A, order)
    inv = np.array([pow(int(a), -1, p) for a in A[np.arange(nk), np.arange(nk)]], dtype=np.int64)
    for r0 in range(0, nk, PANEL_WIDTH):
        r1 = min(r0 + PANEL_WIDTH, nk)
        A[r0:r1] = _np_reduce(A[r0:r1] * inv[r0:r1, None], p)
    _substitute(A, nk, np.searchsorted(known, lead[rest]), p)
    schur = _panels(A[nk:, nk:], p) + nk
    rank = nk + schur.size
    A[nk:rank, :nk] = 0
    A[rank:] = 0
    if moved:
        _permute_columns(A[:rank], np.argsort(order))
    pivots = order[np.concatenate([np.arange(nk), schur])]
    merge = np.argsort(pivots, kind="stable")
    _permute_rows(A[:rank], merge)
    return pivots[merge]


def _panels(A: np.ndarray, p: int) -> np.ndarray:
    """The panel pass of ``_forward``: panel by panel, factor (``_np_panel``),
    finish the pivot rows (``_np_triangular``) and update the trailing block
    (``_fuse_product``), in place on A, which may be a view. Returns the
    pivot columns, those of the scalar rref's pivot rule, and leaves the
    row echelon form of ``_forward``."""
    R, C = A.shape
    pivots = [np.zeros(0, dtype=np.int64)]
    r = 0
    c0 = 0
    while c0 < C and r < R:
        cend = min(c0 + PANEL_WIDTH, C)
        F = np.zeros((R - r, cend - c0), dtype=np.int64)
        npiv, pivcols = _np_panel(A, r, c0, cend - c0, p, F)
        if npiv:
            pivots.append(pivcols)
            _np_triangular(A, r, npiv, cend, p, F)
            if r + npiv < R and cend < C:
                _fuse_product(A[r + npiv :, cend:], F[npiv:, :npiv], A[r : r + npiv, cend:], p)
        r += npiv
        c0 = cend
    return np.concatenate(pivots)


def blocked_rank_mod(A: np.ndarray, p: int) -> int:
    """Rank of A over F_p via blocked elimination; destroys A. A must hold
    entries already reduced into [0, p), as int64, or as int32 (half the
    bytes) when p < 2^31. Every step reads int32 entries into int64 before
    it computes, and writes back residues, which fit."""
    if not (A.dtype == np.int64 or (A.dtype == np.int32 and p < 1 << 31)):
        raise InconsistentResult(f"blocked rank of a {A.dtype} matrix modulo {p}")
    return _forward(A, p).size


def blocked_rref_free_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivot columns of the reduced row echelon form of A over F_p and that
    form's free columns, X = U_P^-1 U_free (rank x (cols - rank), int64),
    without forming the rest of it; destroys A, which is int64 or int32 as
    for ``blocked_rank_mod``.

    After the forward pass, U is A's pivot rows scaled to unit pivots, U_P
    its pivot columns (unit upper triangular) and U_free the others. X
    starts as U_free; then, over blocks of up to PANEL_WIDTH pivot rows from
    the bottom up, the block of X is multiplied by the inverse of the
    block's diagonal pivot block and the rows above it lose their pivot
    entries in the block times the block of X, through one fuse per column
    chunk. U's pivot columns are scaled as they are read, at most
    rank x PANEL_WIDTH at a time, so besides X no int64 copy of A is made.
    """
    if not (A.dtype == np.int64 or (A.dtype == np.int32 and p < 1 << 31)):
        raise InconsistentResult(f"blocked kernel of a {A.dtype} matrix modulo {p}")
    pivots = _forward(A, p)
    rank = pivots.size
    inv = np.array([pow(int(a), -1, p) for a in A[np.arange(rank), pivots]], dtype=np.int64)
    X = _np_reduce(np.delete(A[:rank], pivots, axis=1) * inv[:, None], p)
    for b0 in range(PANEL_WIDTH * ((rank - 1) // PANEL_WIDTH), -1, -PANEL_WIDTH):
        b1 = min(b0 + PANEL_WIDTH, rank)
        G = _np_reduce(A[:b1, pivots[b0:b1]] * inv[:b1, None], p)  # U_P[:b1, block]
        if b1 - b0 > 1:
            _np_left_multiply(X[b0:b1], _np_unit_lower_inverse(G[b0:].T, p).T, p)
        if b0:
            _fuse_product(X[:b0], G[:b0], X[b0:b1], p)
    return pivots, X


def rref_free_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivot columns of the reduced row echelon form of A over F_p and that
    form's free columns (rank x (cols - rank), int64); destroys A. At or
    below _SCALAR_CUTOFF entries they are read off ``rref_mod`` of an int64
    copy of an int32 A, above it they come from ``blocked_rref_free_mod``.
    ``linalg.reduced_rows`` and ``linalg.kernel_rows`` turn them into the
    reduced form's rows and its kernel rows."""
    if A.size > _SCALAR_CUTOFF:
        return blocked_rref_free_mod(A, p)
    A = A.astype(np.int64, copy=False)
    rank, pivots = rref_mod(A, p)
    return pivots, np.delete(A[:rank], pivots, axis=1)


def rank_mod(A: np.ndarray, p: int) -> int:
    """Rank over F_p, routing matrices of at most _SCALAR_CUTOFF entries to
    ``rref_mod`` (on an int64 copy of an int32 A) and larger ones to
    blocked_rank_mod; destroys A."""
    if A.size > _SCALAR_CUTOFF:
        return blocked_rank_mod(A, p)
    return rref_mod(A.astype(np.int64, copy=False), p)[0]


@functools.cache
def openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy loaded,
    found among the libraries mapped into this process (as listed in
    /proc/self/maps, so on Linux), or None.

    The setter, ``openblas_set_num_threads_local``, sets the count of the
    whole process in this OpenBLAS (a call from one thread changes what
    another reads), so a caller pins and restores it around all threads."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            return lib.scipy_openblas_get_num_threads64_, lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
    return None
