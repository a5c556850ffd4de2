"""Prime-field elimination kernels.

Two interchangeable implementations of the same algorithms live here: a
numba-jitted hot path and a pure-numpy twin. The active one is picked at
import time — set ``NODALCERT_PURE_NUMPY=1`` (or have numba unavailable) to
run on the numpy path. Both follow the identical pivot rule (first nonzero
row in the earliest unfinished column) and identical arithmetic, so their
outputs are required to be bit-identical; ``benchmarks/bench_elimination.py``
times the kernels on random and Jacobian-slice matrices.

Two elimination strategies:

* ``rref`` — full reduced row echelon form, used whenever the basis itself is
  needed (quotient bases, kernels, membership). Scalar, in-place. A
  rank-only request runs it only at or below ``_SCALAR_CUTOFF`` entries;
  above that, ``blocked_rank`` was faster on every Jacobian slice measured.
* ``blocked_rank`` — rank only, above the cutoff. Right-looking blocked
  elimination (the FFLAS-FFPACK scheme): a 128-wide panel is factored by
  scalar elimination while recording multipliers; the panel's pivot rows
  are finished by multiplying with the inverse of its unit lower-triangular
  multiplier block, and the trailing block below is updated with one more
  product (the numba twin finishes the pivot rows by row operations
  instead; the result is the same). Every product runs in float64 on
  16-bit limb splits: each dot product is a sum of at most 128 terms
  bounded by 2^32, hence below 2^53 and exact, and the recombination
  reduces modulo p in int64. Exactness makes the result independent of
  BLAS summation order, so this is deterministic. The products run over
  column chunks sized so that each float64 product buffer stays near
  ``_PRODUCT_BYTES``; temporaries are bounded by that budget, not by the
  matrix.
"""

from __future__ import annotations

import os

import numpy as np

PANEL_WIDTH = 128
# entries; at or below this plain rref computes ranks, above it blocked_rank.
# Measured with benchmarks/bench_elimination.py (numpy kernels, seeds 1-3):
# up to 36,960 entries the two are within run-to-run noise of each other
# (time ratios 0.87-1.33); from the 224 x 220 Jacobian slice (49,280 entries)
# up, blocked_rank wins every run, by 1.2-6.4x.
_SCALAR_CUTOFF = 40_000
# bytes of one float64 product buffer in the blocked kernel's column chunks
_PRODUCT_BYTES = 1 << 20

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


def _np_unit_lower_inverse(F: np.ndarray, npiv: int, p: int) -> np.ndarray:
    """Inverse over F_p of the unit lower-triangular L with L[s, t] = F[s, t]
    for t < s < npiv, by forward elimination of [L | I] column by column."""
    X = np.eye(npiv, dtype=np.int64)
    for t in range(npiv - 1):
        f = F[t + 1 : npiv, t]
        if f.any():
            X[t + 1 :, : t + 1] = (X[t + 1 :, : t + 1] + (p - f)[:, None] * X[t, : t + 1]) % p
    return X


def _np_triangular(A: np.ndarray, r0: int, npiv: int, ctrail: int, p: int, F: np.ndarray) -> None:
    """Finalize the trailing part of the panel's pivot rows.

    Pivot row s must absorb the updates of pivot rows t < s, i.e. the
    trailing rows are multiplied by L^-1 where L is the unit lower-triangular
    multiplier block F[:npiv, :npiv]; done as one limb-split product per
    column chunk.
    """
    C = A.shape[1]
    if ctrail >= C or npiv < 2:
        return
    L0, L1 = _limbs(_np_unit_lower_inverse(F, npiv, p))
    U = A[r0 : r0 + npiv, ctrail:]
    chunk = _chunk_columns(npiv)
    for j0 in range(0, C - ctrail, chunk):
        j1 = min(j0 + chunk, C - ctrail)
        u0, u1 = _limbs(U[:, j0:j1])
        U[:, j0:j1] = _np_mulmod(L0, L1, u0, u1, p)


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
    """Reduced row echelon form of A over F_p, in place. A must be int64,
    C-contiguous, with entries already reduced into [0, p)."""
    impl = impl or ACTIVE
    if A.size == 0:
        return 0, np.zeros(0, dtype=np.int64)
    return impl.rref(A, p)


def blocked_rank_mod(A: np.ndarray, p: int, impl: _Impl | None = None) -> int:
    """Rank of A over F_p via blocked elimination; destroys A. A must be
    int64 with entries already reduced into [0, p)."""
    impl = impl or ACTIVE
    R, C = A.shape
    if R == 0 or C == 0:
        return 0
    r = 0
    c0 = 0
    while c0 < C and r < R:
        w = min(PANEL_WIDTH, C - c0)
        cend = min(c0 + w, C)
        F = np.zeros((R - r, w), dtype=np.int64)
        npiv, _ = impl.panel(A, r, c0, w, p, F)
        if npiv:
            impl.triangular(A, r, npiv, cend, p, F)
            RB = R - r - npiv
            CT = C - cend
            if RB > 0 and CT > 0:
                U = A[r : r + npiv, cend:]
                F0, F1 = _limbs(F[npiv:, :npiv])
                chunk = _chunk_columns(RB)
                for j0 in range(0, CT, chunk):
                    j1 = min(j0 + chunk, CT)
                    u0, u1 = _limbs(U[:, j0:j1])
                    impl.fuse(A[r + npiv :, cend + j0 : cend + j1], F0, F1, u0, u1, p)
        r += npiv
        c0 = cend
    return r


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
    rank = rows.shape[0]
    pivset = set(int(c) for c in pivots)
    free = [c for c in range(ncols) if c not in pivset]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    for idx, g in enumerate(free):
        out[idx, g] = 1
        if rank:
            out[idx, pivots] = (p - rows[:, g]) % p
    return out
