"""Prime-field elimination kernels.

Two interchangeable implementations of the same algorithms live here: a
numba-jitted hot path and a pure-numpy twin. The active one is picked at
import time — set ``NODALCERT_PURE_NUMPY=1`` (or have numba unavailable) to
run on the numpy path. Both follow the identical pivot rule (first nonzero
row in the earliest unfinished column) and identical arithmetic, so their
outputs are required to be bit-identical; ``benchmarks/bench_elimination.py``
times the kernels on random and Jacobian-slice matrices.

Two elimination strategies, switched at ``_SCALAR_CUTOFF`` entries: on
every Jacobian slice measured the scalar one was faster at or below it and
the blocked one above it, for both the reduced form and the rank.

* scalar — ``rref``: full reduced row echelon form by row operations, in
  place. ``rref_mod`` and ``rank_mod`` use it at or below the cutoff.
* blocked — above the cutoff. Right-looking blocked elimination (the
  FFLAS-FFPACK scheme): a 128-wide panel is factored by scalar elimination
  while recording multipliers; the panel's pivot rows are finished by
  multiplying with the inverse of its unit lower-triangular multiplier
  block, and the trailing block below is updated with one more product
  (the numba twin finishes the pivot rows by row operations instead; the
  result is the same). This forward pass is shared: ``blocked_rank_mod``
  stops after it with the rank, and ``blocked_rref_mod`` goes on to the
  reduced form needed for bases (quotient bases, kernels, membership). It
  scales the pivot rows to unit pivots and, over blocks of up to 128 pivot
  rows from the bottom up, multiplies each block by the inverse of its unit
  upper-triangular pivot block and clears the block's pivot columns in the
  rows above it with one product. The reduced form is unique, so it equals
  the scalar one entry for entry. Every product runs in float64 on 16-bit
  limb splits: each dot product is a sum of at most 128 terms bounded by
  2^32, hence below 2^53 and exact, and the recombination reduces modulo p
  in int64. Exactness makes the result independent of BLAS summation
  order, so this is deterministic. The products run over column chunks
  sized so that each float64 product buffer stays near ``_PRODUCT_BYTES``;
  the other temporaries (multipliers and their limbs) are at most 128
  columns wide.
"""

from __future__ import annotations

import os

import numpy as np

PANEL_WIDTH = 128
# entries; at or below this the scalar rref computes ranks and reduced forms,
# above it blocked_rank_mod and blocked_rref_mod. Measured with
# benchmarks/bench_elimination.py (numpy kernels, seeds 1-3). Ranks: up to
# 36,960 entries the two are within run-to-run noise of each other (time
# ratios 0.87-1.33); from the 224 x 220 Jacobian slice (49,280 entries) up,
# blocked_rank_mod wins every run, by 1.2-6.4x. Reduced forms: up to 36,960
# entries the scalar rref wins every run (blocked/scalar time 1.04-1.64);
# from 49,280 up blocked_rref_mod wins all but one run (0.98 at 73,920), by
# up to 5.9x.
_SCALAR_CUTOFF = 40_000
# bytes of one float64 product buffer in the blocked kernel's column chunks
_PRODUCT_BYTES = 1 << 20
# order up to which _np_unit_lower_inverse eliminates column by column
_INVERSE_BASE = 16

PURE_NUMPY = os.environ.get("NODALCERT_PURE_NUMPY", "") not in ("", "0")

if not PURE_NUMPY:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - exercised only without numba
        PURE_NUMPY = True

HAS_NUMBA = not PURE_NUMPY


# ---------------------------------------------------------------------------
# numpy reference implementation
# ---------------------------------------------------------------------------


def _np_rref(A: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """In-place reduced row echelon form of A over F_p; A entries in [0, p).

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
        inv = pow(int(A[r, c]), p - 2, p)
        if inv != 1:
            A[r, c:] = (A[r, c:] * inv) % p
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            f = A[rows, c][:, None]
            A[rows, c:] = (A[rows, c:] + (p - f) * A[r, c:]) % p
        pivots.append(c)
        r += 1
    return r, np.array(pivots, dtype=np.int64)


def _np_panel(A: np.ndarray, r0: int, c0: int, w: int, p: int, F: np.ndarray) -> tuple[int, np.ndarray]:
    """Factor panel columns [c0, c0+w) over rows [r0, R).

    Eliminates panel columns only (trailing columns untouched), recording the
    multiplier of row i against panel pivot s in F[i-r0, s]. Pivot rows are
    swapped into place r0, r0+1, ...; returns (npiv, global pivot columns).
    """
    R, C = A.shape
    cend = min(c0 + w, C)
    pivcols = []
    npiv = 0
    for c in range(c0, cend):
        rr = r0 + npiv
        if rr >= R:
            break
        nz = np.nonzero(A[rr:, c])[0]
        if nz.size == 0:
            continue
        piv = rr + int(nz[0])
        if piv != rr:
            A[[rr, piv], :] = A[[piv, rr], :]
            if npiv:
                F[[rr - r0, piv - r0], :npiv] = F[[piv - r0, rr - r0], :npiv]
        inv = pow(int(A[rr, c]), p - 2, p)
        below = A[rr + 1 :, c]
        nzb = np.nonzero(below)[0]
        F[rr + 1 - r0 :, npiv] = 0
        if nzb.size:
            rows = nzb + rr + 1
            f = (below[nzb] * inv) % p
            F[rows - r0, npiv] = f
            A[rows, c] = 0
            if c + 1 < cend:
                A[rows, c + 1 : cend] = (
                    A[rows, c + 1 : cend] + (p - f)[:, None] * A[rr, c + 1 : cend]
                ) % p
        pivcols.append(c)
        npiv += 1
    return npiv, np.array(pivcols, dtype=np.int64)


def _limbs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 16-bit limbs of entries in [0, 2^31), as float64."""
    return (M & 0xFFFF).astype(np.float64), (M >> 16).astype(np.float64)


def _chunk_columns(rows: int) -> int:
    """Column chunk width keeping a (rows x chunk) float64 buffer near
    ``_PRODUCT_BYTES``."""
    return max(1, _PRODUCT_BYTES // (8 * rows))


def _np_mulmod(X0: np.ndarray, X1: np.ndarray, Y0: np.ndarray, Y1: np.ndarray, p: int) -> np.ndarray:
    """(X @ Y) mod p as a fresh int64 array, from the 16-bit limbs of X and Y.

    X @ Y = X1@Y1 * 2^32 + (X1@Y0 + X0@Y1) * 2^16 + X0@Y0. With inner
    dimension <= 128 the three limb products are below 2^37, 2^39 and 2^39,
    exact in float64, and the int64 sum with the first term reduced,
    (X1@Y1 mod p) * (2^32 mod p) + ..., stays below 2^62 + 2^55 + 2^39 < 2^63.
    The products are taken one at a time into one float64 buffer and folded
    into two int64 buffers, so at most three result-sized buffers are live.
    """
    P = X1 @ Y1
    acc = np.empty(P.shape, dtype=np.int64)
    np.copyto(acc, P, casting="unsafe")
    acc %= p
    acc *= (1 << 32) % p
    np.matmul(X1, Y0, out=P)
    P += X0 @ Y1
    tmp = np.empty_like(acc)
    np.copyto(tmp, P, casting="unsafe")
    tmp *= (1 << 16) % p
    acc += tmp
    np.matmul(X0, Y0, out=P)
    np.copyto(tmp, P, casting="unsafe")
    acc += tmp
    acc %= p
    return acc


def _np_unit_lower_inverse(L: np.ndarray, p: int) -> np.ndarray:
    """Inverse over F_p of the unit lower-triangular matrix whose strictly
    lower part is that of the square L (its diagonal and upper part are not
    read); the inverse of a unit upper-triangular U is this of U.T, transposed.

    Recursive 2x2 block inversion, inv([[L11, 0], [L21, L22]]) =
    [[X11, 0], [-X22 L21 X11, X22]], with the off-diagonal block a limb-split
    product (order at most 2 * PANEL_WIDTH, so inner dimensions stay within
    128); blocks of order at most _INVERSE_BASE by forward elimination of
    [L | I] column by column.
    """
    n = L.shape[0]
    if n <= _INVERSE_BASE:
        X = np.eye(n, dtype=np.int64)
        for t in range(n - 1):
            f = L[t + 1 :, t]
            if f.any():
                X[t + 1 :, : t + 1] = (X[t + 1 :, : t + 1] + (p - f)[:, None] * X[t, : t + 1]) % p
        return X
    h = n // 2
    X = np.zeros((n, n), dtype=np.int64)
    X11 = X[:h, :h] = _np_unit_lower_inverse(L[:h, :h], p)
    X22 = X[h:, h:] = _np_unit_lower_inverse(L[h:, h:], p)
    M = _np_mulmod(*_limbs(X22), *_limbs(L[h:, :h]), p)
    M = _np_mulmod(*_limbs(M), *_limbs(X11), p)
    X[h:, :h] = (p - M) % p
    return X


def _np_left_multiply(U: np.ndarray, X: np.ndarray, p: int) -> None:
    """U = (X @ U) mod p in place for X of order at most PANEL_WIDTH, one
    limb-split product per column chunk."""
    X0, X1 = _limbs(X)
    chunk = _chunk_columns(X.shape[0])
    for j0 in range(0, U.shape[1], chunk):
        u0, u1 = _limbs(U[:, j0 : j0 + chunk])
        U[:, j0 : j0 + chunk] = _np_mulmod(X0, X1, u0, u1, p)


def _np_triangular(A: np.ndarray, r0: int, npiv: int, ctrail: int, p: int, F: np.ndarray) -> None:
    """Finalize the trailing part of the panel's pivot rows.

    Pivot row s must absorb the updates of pivot rows t < s, i.e. the
    trailing rows are multiplied by L^-1 where L is the unit lower-triangular
    multiplier block F[:npiv, :npiv]; done as one limb-split product per
    column chunk.
    """
    if ctrail >= A.shape[1] or npiv < 2:
        return
    _np_left_multiply(A[r0 : r0 + npiv, ctrail:], _np_unit_lower_inverse(F[:npiv, :npiv], p), p)


def _np_fuse(T: np.ndarray, X0: np.ndarray, X1: np.ndarray, Y0: np.ndarray, Y1: np.ndarray, p: int) -> None:
    """T -= (X @ Y) mod p in place, from the 16-bit limbs of X and Y."""
    red = _np_mulmod(X0, X1, Y0, Y1, p)
    np.subtract(T, red, out=T)
    np.add(T, p, out=T, where=T < 0)


# ---------------------------------------------------------------------------
# numba implementation (compiled lazily, cached on disk)
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True, nogil=True)
    def _nb_mulmod(a, b, p, pinv):
        s = a * b
        q = np.int64(np.float64(s) * pinv)
        t = s - q * p
        if t < 0:
            t += p
        if t >= p:
            t -= p
        if t >= p:
            t -= p
        return t

    @njit(cache=True, nogil=True)
    def _nb_modinv(a, p, pinv):
        result = np.int64(1)
        base = a % p
        e = p - 2
        while e:
            if e & 1:
                result = _nb_mulmod(result, base, p, pinv)
            base = _nb_mulmod(base, base, p, pinv)
            e >>= 1
        return result

    @njit(cache=True, nogil=True)
    def _nb_rref(A, p):
        R, C = A.shape
        pinv = 1.0 / p
        cap = R if R < C else C
        pivots = np.empty(cap, dtype=np.int64)
        r = 0
        for c in range(C):
            if r >= R:
                break
            piv = -1
            for i in range(r, R):
                if A[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(c, C):
                    t = A[r, j]
                    A[r, j] = A[piv, j]
                    A[piv, j] = t
            inv = _nb_modinv(A[r, c], p, pinv)
            if inv != 1:
                for j in range(c, C):
                    a = A[r, j]
                    if a != 0:
                        A[r, j] = _nb_mulmod(a, inv, p, pinv)
            for i in range(R):
                if i == r:
                    continue
                f = A[i, c]
                if f == 0:
                    continue
                negf = p - f
                for j in range(c, C):
                    b = A[r, j]
                    if b != 0:
                        s = A[i, j] + negf * b
                        q = np.int64(np.float64(s) * pinv)
                        t = s - q * p
                        if t < 0:
                            t += p
                        if t >= p:
                            t -= p
                        if t >= p:
                            t -= p
                        A[i, j] = t
            pivots[r] = c
            r += 1
        return r, pivots[:r].copy()

    @njit(cache=True, nogil=True)
    def _nb_panel(A, r0, c0, w, p, F):
        R, C = A.shape
        pinv = 1.0 / p
        cend = c0 + w
        if cend > C:
            cend = C
        pivcols = np.empty(cend - c0, dtype=np.int64)
        npiv = 0
        for c in range(c0, cend):
            rr = r0 + npiv
            if rr >= R:
                break
            piv = -1
            for i in range(rr, R):
                if A[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != rr:
                for j in range(C):
                    t = A[rr, j]
                    A[rr, j] = A[piv, j]
                    A[piv, j] = t
                for s in range(npiv):
                    t = F[rr - r0, s]
                    F[rr - r0, s] = F[piv - r0, s]
                    F[piv - r0, s] = t
            inv = _nb_modinv(A[rr, c], p, pinv)
            for i in range(rr + 1, R):
                a = A[i, c]
                if a == 0:
                    F[i - r0, npiv] = 0
                    continue
                f = _nb_mulmod(a, inv, p, pinv)
                F[i - r0, npiv] = f
                negf = p - f
                A[i, c] = 0
                for j in range(c + 1, cend):
                    b = A[rr, j]
                    if b != 0:
                        s = A[i, j] + negf * b
                        q = np.int64(np.float64(s) * pinv)
                        t = s - q * p
                        if t < 0:
                            t += p
                        if t >= p:
                            t -= p
                        if t >= p:
                            t -= p
                        A[i, j] = t
            pivcols[npiv] = c
            npiv += 1
        return npiv, pivcols[:npiv].copy()

    @njit(cache=True, nogil=True)
    def _nb_triangular(A, r0, npiv, ctrail, p, F):
        R, C = A.shape
        pinv = 1.0 / p
        if ctrail >= C:
            return
        for s in range(1, npiv):
            for t in range(s):
                f = F[s, t]
                if f == 0:
                    continue
                negf = p - f
                for j in range(ctrail, C):
                    b = A[r0 + t, j]
                    if b != 0:
                        v = A[r0 + s, j] + negf * b
                        q = np.int64(np.float64(v) * pinv)
                        u = v - q * p
                        if u < 0:
                            u += p
                        if u >= p:
                            u -= p
                        if u >= p:
                            u -= p
                        A[r0 + s, j] = u
        return

    @njit(cache=True, nogil=True)
    def _nb_fuse(T, P2, P1, P0, p, r32, r16):
        R, C = T.shape
        pinv = 1.0 / p
        for i in range(R):
            for j in range(C):
                v2 = np.int64(P2[i, j])
                q = np.int64(np.float64(v2) * pinv)
                v2 = v2 - q * p
                if v2 < 0:
                    v2 += p
                if v2 >= p:
                    v2 -= p
                if v2 >= p:
                    v2 -= p
                acc = v2 * r32 + np.int64(P1[i, j]) * r16 + np.int64(P0[i, j])
                q = np.int64(np.float64(acc) * pinv)
                red = acc - q * p
                if red < 0:
                    red += p
                if red >= p:
                    red -= p
                if red >= p:
                    red -= p
                t = T[i, j] - red
                if t < 0:
                    t += p
                T[i, j] = t

    def _nb_fuse_limbs(T, X0, X1, Y0, Y1, p):
        """T -= (X @ Y) mod p from limbs: BLAS limb products, jitted fuse."""
        P1 = X1 @ Y0
        P1 += X0 @ Y1
        _nb_fuse(T, X1 @ Y1, P1, X0 @ Y0, p, (1 << 32) % p, (1 << 16) % p)


class _Impl:
    """One complete kernel set; ``rref``/``panel`` mutate A in place and
    ``fuse(T, X0, X1, Y0, Y1, p)`` does T -= (X @ Y) mod p from limbs."""

    def __init__(self, name, rref, panel, triangular, fuse):
        self.name = name
        self.rref = rref
        self.panel = panel
        self.triangular = triangular
        self.fuse = fuse


IMPL_NUMPY = _Impl("numpy", _np_rref, _np_panel, _np_triangular, _np_fuse)
IMPL_NUMBA = (
    _Impl("numba", _nb_rref, _nb_panel, _nb_triangular, _nb_fuse_limbs) if HAS_NUMBA else None
)
ACTIVE: _Impl = IMPL_NUMBA if HAS_NUMBA else IMPL_NUMPY


# ---------------------------------------------------------------------------
# shared drivers
# ---------------------------------------------------------------------------


def rref_mod(A: np.ndarray, p: int, impl: _Impl | None = None) -> tuple[int, np.ndarray]:
    """Reduced row echelon form of A over F_p, in place: scalar at or below
    _SCALAR_CUTOFF entries, blocked_rref_mod above. A must be int64,
    C-contiguous, with entries already reduced into [0, p)."""
    impl = impl or ACTIVE
    if A.size == 0:
        return 0, np.zeros(0, dtype=np.int64)
    if A.size <= _SCALAR_CUTOFF:
        return impl.rref(A, p)
    return blocked_rref_mod(A, p, impl)


def _fuse_product(T: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int, impl: _Impl) -> None:
    """T -= (X @ Y) mod p in place, one ``impl.fuse`` per column chunk; X has
    at most PANEL_WIDTH columns and is read in full before T is written."""
    X0, X1 = _limbs(X)
    chunk = _chunk_columns(T.shape[0])
    for j0 in range(0, T.shape[1], chunk):
        y0, y1 = _limbs(Y[:, j0 : j0 + chunk])
        impl.fuse(T[:, j0 : j0 + chunk], X0, X1, y0, y1, p)


def _forward(A: np.ndarray, p: int, impl: _Impl) -> np.ndarray:
    """Blocked forward elimination of A over F_p, in place; returns the pivot
    columns.

    Leaves a row echelon form: pivot row i holds a nonzero pivot at
    pivots[i] and zeros left of it, and the rows below the rank are zero.
    The pivot rule and hence the pivots are those of the scalar rref.
    """
    R, C = A.shape
    pivots = [np.zeros(0, dtype=np.int64)]
    r = 0
    c0 = 0
    while c0 < C and r < R:
        cend = min(c0 + PANEL_WIDTH, C)
        F = np.zeros((R - r, cend - c0), dtype=np.int64)
        npiv, pivcols = impl.panel(A, r, c0, cend - c0, p, F)
        if npiv:
            pivots.append(pivcols)
            impl.triangular(A, r, npiv, cend, p, F)
            if r + npiv < R and cend < C:
                _fuse_product(A[r + npiv :, cend:], F[npiv:, :npiv], A[r : r + npiv, cend:], p, impl)
        r += npiv
        c0 = cend
    return np.concatenate(pivots)


def blocked_rank_mod(A: np.ndarray, p: int, impl: _Impl | None = None) -> int:
    """Rank of A over F_p via blocked elimination; destroys A. A must be
    int64 with entries already reduced into [0, p)."""
    return _forward(A, p, impl or ACTIVE).size


def blocked_rref_mod(A: np.ndarray, p: int, impl: _Impl | None = None) -> tuple[int, np.ndarray]:
    """Reduced row echelon form of A over F_p by blocked elimination, in
    place; the same rows, pivots and zero rows below the rank as the scalar
    rref, since the reduced form is unique.

    After the forward pass every pivot row is scaled to a unit pivot. Then,
    over blocks of up to PANEL_WIDTH pivot rows from the bottom up, the
    block's rows are multiplied by the inverse of their unit upper-triangular
    pivot block, which clears the block's pivot columns inside it, and the
    rows above it lose their entries in those columns through one fuse per
    column chunk. A block's rows are zero in the pivot columns of the blocks
    below it, cleared before, so the fuse keeps those zero.
    """
    impl = impl or ACTIVE
    pivots = _forward(A, p, impl)
    rank = pivots.size
    inv = np.array([pow(int(a), p - 2, p) for a in A[np.arange(rank), pivots]], dtype=np.int64)
    U = A[:rank]
    U *= inv[:, None]
    U %= p
    for b0 in range(PANEL_WIDTH * ((rank - 1) // PANEL_WIDTH), -1, -PANEL_WIDTH):
        cols = pivots[b0 : b0 + PANEL_WIDTH]
        c = int(cols[0])
        B = A[b0 : b0 + cols.size, c:]
        if cols.size > 1:
            _np_left_multiply(B, _np_unit_lower_inverse(A[b0 : b0 + cols.size, cols].T, p).T, p)
        if b0:
            _fuse_product(A[:b0, c:], A[:b0, cols], B, p, impl)
    return rank, pivots


def rank_mod(A: np.ndarray, p: int, impl: _Impl | None = None) -> int:
    """Rank over F_p, routing matrices of at most _SCALAR_CUTOFF entries to
    plain rref and larger ones to blocked_rank_mod; destroys A."""
    if A.size == 0:
        return 0
    if A.size <= _SCALAR_CUTOFF:
        rank, _ = rref_mod(A, p, impl)
        return rank
    return blocked_rank_mod(A, p, impl)


def kernel_from_rref(rows: np.ndarray, pivots: np.ndarray, ncols: int, p: int) -> np.ndarray:
    """Kernel basis of a map whose RREF (acting on column vectors) is given.

    One kernel row per free column g: 1 at g, -R[t, g] at pivot column t.
    The rows are independent but not echelonized; callers re-echelonize.
    """
    free = np.setdiff1d(np.arange(ncols), pivots)
    out = np.zeros((free.size, ncols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    if rows.shape[0]:
        out[:, pivots] = (p - rows[:, free]).T % p
    return out
