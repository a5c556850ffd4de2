"""Modular elimination kernels: the blocked kernels must agree bit-for-bit
with the scalar RREF, and every rank with exact arithmetic."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nodalcert import _kernels
from nodalcert._kernels import (
    PANEL_WIDTH,
    blocked_rank_mod,
    blocked_rref_free_mod,
    rank_mod,
    rref_free_mod,
    rref_mod,
)
from nodalcert.assembly import jacobian_generator_coo
from nodalcert.errors import InconsistentResult
from nodalcert.exact import bareiss_rank
from nodalcert.field import DEFAULT_PRIMES, PrimeField, Rationals
from nodalcert.fixtures import one_node
from nodalcert.linalg import annihilator, kernel_rows, reduced_rows
from nodalcert.polynomials import partial_derivatives

P = DEFAULT_PRIMES[0]


def _mulmod(left, right, p):
    """Exact (left @ right) mod p in int64: the right factor is split into
    16-bit limbs so no partial sum reaches 2^63 (inner dimension < 2^15)."""
    hi = (left @ (right >> 16)) % p
    lo = (left @ (right & 0xFFFF)) % p
    return (hi * (1 << 16) + lo) % p


def _factors(rng, rows, cols, rank, low, high):
    """left (rows x rank) and right (rank x cols) with unit lower and unit
    upper triangular leading rank x rank blocks, so that left @ right has
    rank exactly ``rank`` over Q and over every F_p."""
    left = rng.integers(low, high, size=(rows, rank), dtype=np.int64)
    right = rng.integers(low, high, size=(rank, cols), dtype=np.int64)
    eye = np.eye(rank, dtype=np.int64)
    left[:rank] = np.tril(left[:rank], -1) + eye
    right[:, :rank] = np.triu(right[:, :rank], 1) + eye
    return left, right


def _shuffled(rng, M):
    return np.ascontiguousarray(M[rng.permutation(M.shape[0])][:, rng.permutation(M.shape[1])])


def _random_with_rank(rng, rows, cols, rank, p=P):
    """A rows x cols matrix over F_p with entries spread over [0, p) and
    rank exactly ``rank``."""
    out = _shuffled(rng, _mulmod(*_factors(rng, rows, cols, rank, 0, p), p))
    assert rref_mod(out.copy(), p)[0] == rank
    return out


def _integer_with_rank(rng, rows, cols, rank):
    """A small-entry integer matrix of rank exactly ``rank`` over Q."""
    left, right = _factors(rng, rows, cols, rank, -3, 4)
    return _shuffled(rng, left @ right)


def test_rref_finds_the_pivot_columns():
    A = np.array([[2, 4, 6], [1, 2, 4], [0, 0, 5]], dtype=np.int64) % P
    rank, pivots = rref_mod(A.copy(), P)
    assert rank == 2
    assert pivots.tolist() == [0, 2]
    B = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
    rank_b, pivots_b = rref_mod(B, P)
    assert rank_b == 2 and pivots_b.tolist() == [0, 1]


def test_rref_rank_matches_exact_rank():
    rng = np.random.default_rng(7)
    for rows, cols, r in [(12, 9, 5), (9, 14, 7), (10, 10, 10)]:
        A = _integer_with_rank(rng, rows, cols, r)
        exact = bareiss_rank(A.tolist())
        got, _ = rref_mod(A % P, P)
        assert got == exact == r


def test_blocked_rank_agrees_with_scalar_rref():
    rng = np.random.default_rng(11)
    for rows, cols, r in [
        (200, 150, 60),
        (150, 200, 90),
        (PANEL_WIDTH + 40, PANEL_WIDTH + 17, PANEL_WIDTH + 3),
        (300, 300, 299),
    ]:
        for p in DEFAULT_PRIMES:
            A = _random_with_rank(rng, rows, cols, r, p)
            scalar, _ = rref_mod(A.copy(), p)
            blocked = blocked_rank_mod(A.copy(), p)
            assert blocked == scalar == r


def test_blocked_rank_with_short_and_empty_panels():
    # zero columns leave panels with fewer pivots than PANEL_WIDTH, or none
    rng = np.random.default_rng(13)
    A = _random_with_rank(rng, 300, 3 * PANEL_WIDTH, 200)
    A[:, 20:100] = 0
    A[:, PANEL_WIDTH : 2 * PANEL_WIDTH] = 0
    scalar, pivots = rref_mod(A.copy(), P)
    assert np.count_nonzero(pivots < PANEL_WIDTH) < PANEL_WIDTH
    assert not np.any((pivots >= PANEL_WIDTH) & (pivots < 2 * PANEL_WIDTH))
    assert blocked_rank_mod(A.copy(), P) == scalar


@pytest.mark.parametrize("k", [12, 13, 14])
def test_blocked_rank_on_rank_deficient_jacobian_slices(k):
    # one_node:3,5 has socle degree 12: from there on the slice misses
    # exactly one monomial dimension, the node
    coo = jacobian_generator_coo(partial_derivatives(one_node(3, 5, 1).f), k)
    for p in DEFAULT_PRIMES:
        A = coo.dense_mod(p)
        scalar, _ = rref_mod(A.copy(), p)
        assert blocked_rank_mod(A.copy(), p) == scalar == coo.shape[1] - 1


def test_product_form_triangular_step_matches_row_operations():
    rng = np.random.default_rng(17)
    npiv, ctrail, cols = PANEL_WIDTH, 10, 300
    A = rng.integers(0, P, size=(npiv + 5, cols), dtype=np.int64)
    F = rng.integers(0, P, size=(npiv + 5, PANEL_WIDTH), dtype=np.int64)
    F[rng.random(F.shape) < 0.3] = 0
    expected = A.copy()
    for s in range(1, npiv):
        for t in range(s):
            f = int(F[s, t])
            expected[s, ctrail:] = (expected[s, ctrail:] + (P - f) * expected[t, ctrail:]) % P
    got = A.copy()
    _kernels._np_triangular(got, 0, npiv, ctrail, P, F)
    assert np.array_equal(got, expected)


def _edge_operands(rng, p):
    """X (rows x PANEL_WIDTH) and Y (PANEL_WIDTH x cols) at the limb split's
    worst case: uniform rows of p - 1 and of the limb edges 2^15 - 1, 2^15,
    2^16 - 1 and 2^31 - 2^15 (low limb -2^15 under a high limb of 2^15),
    rows mixing them at random, and Y of p - 1, p - 2 and random residues."""
    edges = np.array([p - 1, (1 << 15) - 1, 1 << 15, (1 << 16) - 1, (1 << 31) - (1 << 15)], dtype=np.int64)
    uniform = np.repeat(edges, PANEL_WIDTH).reshape(edges.size, PANEL_WIDTH)
    X = np.vstack([uniform, rng.choice(edges, size=(40, PANEL_WIDTH))])
    Y = rng.integers(0, p, size=(PANEL_WIDTH, 60), dtype=np.int64)
    Y[:, :20] = p - 1
    Y[:, 20:40] = rng.choice(np.array([p - 1, p - 2], dtype=np.int64), size=(PANEL_WIDTH, 20))
    return X, Y


@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_limb_products_are_exact_at_the_worst_case(p):
    rng = np.random.default_rng(53)
    X, Y = _edge_operands(rng, p)
    expected = (X.astype(object) @ Y.astype(object)) % p
    got = _kernels._np_mulmod(*_kernels._limbs(X), Y, p)
    assert got.dtype == np.int64 and np.array_equal(got.astype(object), expected)
    T = rng.integers(0, p, size=expected.shape, dtype=np.int64)
    fused = T.copy()
    _kernels._np_fuse(fused, *_kernels._limbs(X), Y, p)
    assert np.array_equal(fused.astype(object), (T.astype(object) - expected) % p)


def test_limb_products_refuse_an_inner_dimension_beyond_the_panel():
    X = np.ones((3, PANEL_WIDTH + 1), dtype=np.int64)
    Y = np.ones((PANEL_WIDTH + 1, 4), dtype=np.int64)
    with pytest.raises(InconsistentResult):
        _kernels._np_mulmod(*_kernels._limbs(X), Y, P)
    with pytest.raises(InconsistentResult):
        _kernels._fuse_product(np.zeros((3, 4), dtype=np.int64), X, Y, P)


def _column_panel(A, r0, c0, w, p, F):
    """The panel factored column by column on A itself, the reference for
    the recursive panel: same contract as ``_kernels._np_panel``."""
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
                A[rows, c + 1 : cend] = (A[rows, c + 1 : cend] + (p - f)[:, None] * A[rr, c + 1 : cend]) % p
        pivcols.append(c)
        npiv += 1
    return npiv, np.array(pivcols, dtype=np.int64)


def _assert_panel_is_column_panel(A, r0, c0, w, p):
    """The recursive panel and the column-by-column one leave the same A and
    F and return the same pivot columns; returns (npiv, A before, A after)."""
    width = min(w, A.shape[1] - c0)
    expected, got = A.copy(), A.copy()
    F_expected = np.zeros((A.shape[0] - r0, width), dtype=np.int64)
    F_got = np.zeros_like(F_expected)
    npiv, pivcols = _column_panel(expected, r0, c0, w, p, F_expected)
    got_npiv, got_pivcols = _kernels._np_panel(got, r0, c0, w, p, F_got)
    assert got_npiv == npiv
    assert got_pivcols.dtype == pivcols.dtype and np.array_equal(got_pivcols, pivcols)
    assert np.array_equal(got, expected)
    assert np.array_equal(F_got, F_expected)
    return npiv, A, got


def _sparse(rng, rows, cols, p, density=0.3):
    """A rows x cols matrix over F_p with about ``density`` of it nonzero."""
    A = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    A[rng.random(A.shape) >= density] = 0
    return A


@pytest.mark.parametrize("w", [1, _kernels._PANEL_BASE, _kernels._PANEL_BASE + 1, 2 * _kernels._PANEL_BASE + 1, PANEL_WIDTH])
def test_recursive_panel_matches_the_column_panel(w):
    rng = np.random.default_rng(59 + w)
    for p in DEFAULT_PRIMES:
        for r0, c0 in [(0, 0), (5, 9)]:
            # sparse: zero leading entries force row swaps in most columns
            assert _assert_panel_is_column_panel(_sparse(rng, 300, c0 + w + 40, p), r0, c0, w, p)[0] == w
            _assert_panel_is_column_panel(_random_with_rank(rng, 200, c0 + w + 40, min(w, 150) // 2 + 1, p), r0, c0, w, p)


def test_recursive_panel_with_fewer_rows_than_columns():
    rng = np.random.default_rng(61)
    for p in DEFAULT_PRIMES:
        for rows, r0 in [(10, 0), (40, 3), (PANEL_WIDTH - 1, 0)]:
            A = _sparse(rng, rows, PANEL_WIDTH + 30, p, 0.5)
            assert _assert_panel_is_column_panel(A, r0, 0, PANEL_WIDTH, p)[0] == rows - r0


def test_recursive_panel_with_zero_columns_and_an_all_zero_panel():
    rng = np.random.default_rng(67)
    half = PANEL_WIDTH // 2
    for p in DEFAULT_PRIMES:
        A = _sparse(rng, 250, PANEL_WIDTH + 50, p)
        A[:, 3:20] = 0  # in the left half
        A[:, half + 5 : half + 40] = 0  # in the right half
        A[:, PANEL_WIDTH - 1] = 0  # the panel's last column
        assert _assert_panel_is_column_panel(A, 0, 0, PANEL_WIDTH, p)[0] == PANEL_WIDTH - 17 - 35 - 1
        Z = _sparse(rng, 250, PANEL_WIDTH + 50, p)
        Z[:, :PANEL_WIDTH] = 0
        npiv, before, after = _assert_panel_is_column_panel(Z, 0, 0, PANEL_WIDTH, p)
        assert npiv == 0 and np.array_equal(after, before)


def test_recursive_panel_with_a_rank_drop_inside_the_first_half():
    rng = np.random.default_rng(71)
    for p in DEFAULT_PRIMES:
        A = _random_with_rank(rng, 260, PANEL_WIDTH + 60, 180, p)
        A[:, 12] = 3 * A[:, 4] % p
        A[:, 30] = (A[:, 4] + A[:, 7]) % p
        assert _assert_panel_is_column_panel(A, 0, 0, PANEL_WIDTH, p)[0] == PANEL_WIDTH - 2


def test_recursive_panel_replays_row_swaps_on_the_trailing_columns():
    rng = np.random.default_rng(73)
    for p in DEFAULT_PRIMES:
        A = _sparse(rng, 300, PANEL_WIDTH + 80, p, 0.2)
        # the first rows are zero in the panel: every early pivot is swapped up
        A[:40, :PANEL_WIDTH] = 0
        A[:40, PANEL_WIDTH:] = rng.integers(1, p, size=(40, 80), dtype=np.int64)
        npiv, before, after = _assert_panel_is_column_panel(A, 0, 0, PANEL_WIDTH, p)
        assert npiv == PANEL_WIDTH
        assert not np.array_equal(after[:, PANEL_WIDTH:], before[:, PANEL_WIDTH:])
        assert np.array_equal(np.sort(after[:, PANEL_WIDTH:], axis=0), np.sort(before[:, PANEL_WIDTH:], axis=0))


def _column_elimination_inverse(L, p):
    """The unit lower-triangular inverse by forward elimination of [L | I]
    column by column, the reference for the block recursion."""
    n = L.shape[0]
    X = np.eye(n, dtype=np.int64)
    for t in range(n - 1):
        f = L[t + 1 :, t]
        if f.any():
            X[t + 1 :, : t + 1] = (X[t + 1 :, : t + 1] + (p - f)[:, None] * X[t, : t + 1]) % p
    return X


@pytest.mark.parametrize("n", [1, 2, 16, 17, 33, 100, PANEL_WIDTH])
def test_unit_triangular_inverse_matches_column_elimination(n):
    rng = np.random.default_rng(29 + n)
    for p in DEFAULT_PRIMES:
        # diagonal and upper part are garbage: only the strictly lower part is read
        L = rng.integers(0, p, size=(n, n), dtype=np.int64)
        L[rng.random(L.shape) < 0.2] = 0
        X = _kernels._np_unit_lower_inverse(L, p)
        assert np.array_equal(X, _column_elimination_inverse(L, p))
        unit = np.tril(L, -1) + np.eye(n, dtype=np.int64)
        assert np.array_equal(_mulmod(X, unit, p), np.eye(n, dtype=np.int64))
        # the unit upper-triangular matrix with L's strictly upper part, by transpose
        Y = _kernels._np_unit_lower_inverse(L.T, p).T
        upper = np.triu(L, 1) + np.eye(n, dtype=np.int64)
        assert np.array_equal(_mulmod(upper, Y, p), np.eye(n, dtype=np.int64))


def _assert_blocked_rref_is_scalar_rref(A, p):
    """The blocked reduced form, ``reduced_rows`` of ``blocked_rref_free_mod``
    (which takes any size), and the scalar ``rref_mod`` of A agree in rank,
    pivots and every entry, the scalar form's zero rows below the rank
    included; returns (rank, pivots)."""
    scalar = A.copy()
    rank, pivots = rref_mod(scalar, p)
    got_pivots, X = blocked_rref_free_mod(A.copy(), p)
    assert got_pivots.dtype == pivots.dtype and np.array_equal(got_pivots, pivots)
    blocked = reduced_rows(PrimeField(p), got_pivots, X, A.shape[1])
    assert blocked.dtype == scalar.dtype and np.array_equal(blocked, scalar[:rank])
    assert not scalar[rank:].any()
    return rank, pivots


@pytest.mark.parametrize(
    "rows, cols, rank",
    [
        (60, 127, 60),
        (300, 127, 127),
        (100, 128, 0),
        (300, 128, 128),
        (90, 128, 90),
        (200, 129, 129),
        (100, 129, 70),
        (129, 257, 129),
        (300, 257, 257),
        (300, 257, 0),
        (200, 257, 150),
        (400, 257, 200),
    ],
)
def test_blocked_rref_matches_scalar_rref(rows, cols, rank):
    rng = np.random.default_rng(31 + rows + cols + rank)
    for p in DEFAULT_PRIMES:
        A = _random_with_rank(rng, rows, cols, rank, p)
        assert _assert_blocked_rref_is_scalar_rref(A, p)[0] == rank


def test_blocked_rref_with_a_rank_drop_inside_the_first_panel():
    rng = np.random.default_rng(37)
    for p in DEFAULT_PRIMES:
        A = _random_with_rank(rng, 300, 257, 220, p)
        A[:, 50] = 2 * A[:, 10] % p
        A[:, 60:70] = 0
        _, pivots = _assert_blocked_rref_is_scalar_rref(A, p)
        assert np.count_nonzero(pivots < PANEL_WIDTH) < PANEL_WIDTH - 10


@pytest.mark.parametrize("k", [12, 13, 14])
def test_blocked_rref_on_jacobian_slices(k):
    coo = jacobian_generator_coo(partial_derivatives(one_node(3, 5, 1).f), k)
    for p in DEFAULT_PRIMES:
        A = coo.dense_mod(p)
        assert A.size > _kernels._SCALAR_CUTOFF
        rank, _ = _assert_blocked_rref_is_scalar_rref(A, p)
        assert rank == coo.shape[1] - 1


def test_rref_free_mod_on_both_sides_of_the_scalar_cutoff(monkeypatch):
    rng = np.random.default_rng(41)
    side = int(_kernels._SCALAR_CUTOFF**0.5)
    mats = {n: _random_with_rank(rng, n, n, n - 7) for n in (side - 8, side + 8)}
    blocked_calls = []

    def spy(A, p):
        blocked_calls.append(A.shape)
        return blocked_rref_free_mod(A, p)

    monkeypatch.setattr(_kernels, "blocked_rref_free_mod", spy)
    for n, A in mats.items():
        expected = A.copy()
        expected_rank, expected_pivots = rref_mod(expected, P)
        pivots, free = rref_free_mod(A.astype(np.int32), P)
        assert pivots.size == expected_rank == n - 7
        assert np.array_equal(pivots, expected_pivots)
        assert np.array_equal(free, np.delete(expected[:expected_rank], expected_pivots, axis=1))
    assert blocked_calls == [(side + 8, side + 8)]


def test_rank_mod_on_both_sides_of_the_scalar_cutoff():
    rng = np.random.default_rng(19)
    side = int(_kernels._SCALAR_CUTOFF**0.5)
    assert (side - 8) ** 2 <= _kernels._SCALAR_CUTOFF < (side + 8) ** 2
    for n in (side - 8, side + 8):
        A = _random_with_rank(rng, n, n, n - 7)
        assert rank_mod(A, P) == n - 7


def test_blocked_rank_with_extreme_entries():
    # stress the limb-splitting reduction with entries at the modulus edge
    A = np.full((140, 140), P - 1, dtype=np.int64)
    A[np.diag_indices(140)] = 1
    scalar, _ = rref_mod(A.copy(), P)
    assert blocked_rank_mod(A.copy(), P) == scalar


def test_rank_mod_handles_degenerate_shapes():
    assert rank_mod(np.zeros((0, 5), dtype=np.int64), P) == 0
    assert rank_mod(np.zeros((5, 0), dtype=np.int64), P) == 0
    assert rank_mod(np.zeros((4, 4), dtype=np.int64), P) == 0


FIELDS = pytest.mark.parametrize("F", [PrimeField(P), Rationals()], ids=["fp", "exact"])


def _field_matrix(F, rng, rows, cols, rank):
    """A matrix of F's dtype and rank exactly ``rank``: entries spread over
    [0, p) in F_p, small integers over Q."""
    if isinstance(F, Rationals):
        return _integer_with_rank(rng, rows, cols, rank).astype(object)
    return _random_with_rank(rng, rows, cols, rank, F.p)


@FIELDS
def test_kernel_rows_annihilate_the_matrix(F):
    rng = np.random.default_rng(3)
    A = _field_matrix(F, rng, 20, 15, 8)
    original = A.astype(object)
    pivots, free = F.rref_free(A)
    ker = kernel_rows(F, pivots, free, 15)
    assert len(pivots) == 8
    assert ker.shape == (15 - 8, 15)
    assert not F.normalize(original @ ker.T.astype(object)).any()
    # the kernel rows are independent
    assert len(F.rref_free(ker.copy())[0]) == 15 - 8


def test_kernel_from_blocked_rref_annihilates_the_matrix():
    rng = np.random.default_rng(43)
    A = _random_with_rank(rng, 260, 200, 150)
    assert A.size > _kernels._SCALAR_CUTOFF
    F = PrimeField(P)
    pivots, free = F.rref_free(A.copy())
    ker = kernel_rows(F, pivots, free, 200)
    assert len(pivots) == 150
    assert ker.shape == (50, 200)
    assert not _mulmod(A, ker.T, P).any()
    assert rref_mod(ker.copy(), P)[0] == 50


@FIELDS
def test_kernel_rows_match_one_row_per_free_column(F):
    rng = np.random.default_rng(47)
    for rows, cols, rank in [(20, 15, 8), (10, 12, 0), (12, 12, 12), (30, 40, 25)]:
        pivots, X = F.rref_free(_field_matrix(F, rng, rows, cols, rank))
        expected = np.zeros((cols - rank, cols), dtype=F.dtype)
        free = [c for c in range(cols) if c not in set(pivots)]
        for idx, g in enumerate(free):
            expected[idx, g] = 1
            for t, pc in enumerate(pivots):
                expected[idx, pc] = -X[t, idx] if isinstance(F, Rationals) else (F.p - X[t, idx]) % F.p
        got = kernel_rows(F, pivots, X, cols)
        assert got.dtype == F.dtype
        assert np.array_equal(got, expected)


def _reference_kernel(A, p):
    """Pivots and kernel rows of A from the scalar reduced form of an int64
    copy, which shares no code with the blocked back-substitution."""
    R = A.astype(np.int64)
    rank, pivots = rref_mod(R, p)
    return pivots.tolist(), kernel_rows(PrimeField(p), pivots, np.delete(R[:rank], pivots, axis=1), A.shape[1])


def _assert_kernel_step_is_kernel_rows_of_rref(A, p):
    """The blocked kernel step, fed to kernel_rows, gives the reference's
    pivots and kernel rows entry for entry; so does ``annihilator``, on
    whichever side of the scalar cutoff A falls. Returns the rank."""
    pivots, expected = _reference_kernel(A, p)
    got_pivots, X = blocked_rref_free_mod(A.copy(), p)
    assert got_pivots.tolist() == pivots
    assert X.dtype == np.int64 and X.shape == (len(pivots), A.shape[1] - len(pivots))
    got = kernel_rows(PrimeField(p), got_pivots, X, A.shape[1])
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    via_field = annihilator(PrimeField(p), A.copy())
    assert list(via_field[0]) == pivots and np.array_equal(via_field[1], expected)
    return len(pivots)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize(
    "rows, cols, rank",
    [
        (60, 127, 60),
        (300, 127, 127),
        (340, 127, 90),
        (100, 128, 0),
        (90, 128, 90),
        (300, 128, 128),
        (330, 128, 101),
        (200, 129, 129),
        (100, 129, 70),
        (129, 257, 129),
        (300, 257, 257),
        (300, 257, 0),
        (200, 257, 150),
        (400, 257, 200),
    ],
)
def test_the_kernel_step_gives_the_kernel_rows_of_the_reduced_form(rows, cols, rank, dtype):
    rng = np.random.default_rng(97 + rows + cols + rank)
    for p in DEFAULT_PRIMES:
        A = _random_with_rank(rng, rows, cols, rank, p).astype(dtype)
        assert _assert_kernel_step_is_kernel_rows_of_rref(A, p) == rank


@pytest.mark.parametrize("k", [12, 13, 14])
def test_the_kernel_step_on_jacobian_slices(k):
    coo = jacobian_generator_coo(partial_derivatives(one_node(3, 5, 1).f), k)
    for p in DEFAULT_PRIMES:
        A = coo.dense_mod(p, np.int32)
        assert A.size > _kernels._SCALAR_CUTOFF
        assert _assert_kernel_step_is_kernel_rows_of_rref(A, p) == coo.shape[1] - 1


def test_the_kernel_step_refuses_an_int32_matrix_past_its_range_or_another_dtype():
    A = np.eye(140, dtype=np.int64)
    with pytest.raises(InconsistentResult):
        blocked_rref_free_mod(A.astype(np.int32), (1 << 31) + 11)
    for dtype in (np.int16, np.float64, object):
        with pytest.raises(InconsistentResult):
            blocked_rref_free_mod(A.astype(dtype), P)


@FIELDS
def test_annihilator_handles_degenerate_shapes(F):
    for shape in [(0, 5), (5, 0), (4, 4)]:
        pivots, rows = annihilator(F, np.zeros(shape, dtype=F.dtype))
        assert pivots == () and rows.shape == (shape[1], shape[1])
        assert np.array_equal(rows, np.eye(shape[1], dtype=F.dtype))


def test_elimination_benchmark_runs_without_disagreements():
    # a subprocess, so the script's one-BLAS-thread settings stay out of this one
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_elimination.py"
    out = subprocess.run([sys.executable, str(script), "--quick"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["disagreements"] == 0


def _rank_inputs(rng, p):
    """Blocked-rank inputs at the int32 edge: all p - 1, mixes of p - 1 and
    2^31 - 2^15 (the largest residue whose low limb is -2^15), and
    rank-deficient random matrices."""
    edge = np.array([p - 1, (1 << 31) - (1 << 15)], dtype=np.int64)
    yield np.full((300, 260), p - 1, dtype=np.int64)
    yield rng.choice(edge, size=(300, 260))
    mixed = _random_with_rank(rng, 300, 260, 200, p)
    mixed[rng.random(mixed.shape) < 0.3] = edge[1]
    yield mixed
    yield _random_with_rank(rng, 300, 260, 150, p)
    yield _random_with_rank(rng, 2 * PANEL_WIDTH + 9, 3 * PANEL_WIDTH, 2 * PANEL_WIDTH - 5, p)


def test_blocked_rank_of_int32_and_int64_copies_equals_the_scalar_rank():
    rng = np.random.default_rng(79)
    for p in DEFAULT_PRIMES:
        for A in _rank_inputs(rng, p):
            scalar, _ = rref_mod(A.copy(), p)
            assert blocked_rank_mod(A.copy(), p) == scalar
            assert blocked_rank_mod(A.astype(np.int32), p) == scalar
            assert rank_mod(A.astype(np.int32), p) == scalar


def test_rank_mod_upcasts_a_small_int32_matrix_for_the_scalar_rref():
    rng = np.random.default_rng(83)
    A = _random_with_rank(rng, 40, 30, 21)
    A[:, 0] = P - 1
    assert A.size <= _kernels._SCALAR_CUTOFF
    assert rank_mod(A.astype(np.int32), P) == rref_mod(A, P)[0]


@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_limb_product_of_an_int32_factor_of_p_minus_1_entries_is_exact(p):
    rng = np.random.default_rng(89)
    X, _ = _edge_operands(rng, p)
    Y = np.full((PANEL_WIDTH, 50), p - 1, dtype=np.int32)
    S = _kernels._np_limb_product(*_kernels._limbs(X), Y, p)
    expected = [[sum(int(a) * (p - 1) for a in row) % p] * Y.shape[1] for row in X.tolist()]
    assert S.dtype == np.int64 and (S % p).tolist() == expected


def test_blocked_rank_refuses_an_int32_matrix_past_its_range_or_another_dtype():
    A = np.eye(140, dtype=np.int64)
    with pytest.raises(InconsistentResult):
        blocked_rank_mod(A.astype(np.int32), (1 << 31) + 11)
    for dtype in (np.int16, np.uint32, np.uint64, np.float64, object):
        with pytest.raises(InconsistentResult):
            blocked_rank_mod(A.astype(dtype), P)
