"""Modular elimination kernels: the accelerated and plain implementations
must agree bit-for-bit, and both must agree with exact arithmetic."""

import os
import subprocess
import sys

import numpy as np
import pytest

from nodalcert import _kernels
from nodalcert._kernels import (
    HAS_NUMBA,
    IMPL_NUMPY,
    PANEL_WIDTH,
    blocked_rank_mod,
    blocked_rref_mod,
    kernel_from_rref,
    rank_mod,
    rref_mod,
)
from nodalcert.assembly import jacobian_generator_coo
from nodalcert.exact import bareiss_rank
from nodalcert.field import DEFAULT_PRIMES
from nodalcert.fixtures import one_node
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
    """Blocked and scalar RREF of A agree in rank, pivots and every entry,
    the zero rows below the rank included; returns (rank, pivots)."""
    scalar, blocked = A.copy(), A.copy()
    rank, pivots = IMPL_NUMPY.rref(scalar, p)
    got_rank, got_pivots = blocked_rref_mod(blocked, p, IMPL_NUMPY)
    assert got_rank == rank
    assert got_pivots.dtype == pivots.dtype and np.array_equal(got_pivots, pivots)
    assert np.array_equal(blocked, scalar)
    assert not blocked[rank:].any()
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
        rank, _ = _assert_blocked_rref_is_scalar_rref(coo.dense_mod(p), p)
        assert rank == coo.shape[1] - 1


def test_rref_mod_on_both_sides_of_the_scalar_cutoff(monkeypatch):
    rng = np.random.default_rng(41)
    side = int(_kernels._SCALAR_CUTOFF**0.5)
    mats = {n: _random_with_rank(rng, n, n, n - 7) for n in (side - 8, side + 8)}
    blocked_calls = []

    def spy(A, p, impl=None):
        blocked_calls.append(A.shape)
        return blocked_rref_mod(A, p, impl)

    monkeypatch.setattr(_kernels, "blocked_rref_mod", spy)
    for n, A in mats.items():
        expected = A.copy()
        expected_rank, expected_pivots = IMPL_NUMPY.rref(expected, P)
        rank, pivots = rref_mod(A, P)
        assert rank == expected_rank == n - 7
        assert np.array_equal(pivots, expected_pivots)
        assert np.array_equal(A, expected)
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


def test_kernel_from_rref_annihilates_the_matrix():
    rng = np.random.default_rng(3)
    A = _random_with_rank(rng, 20, 15, 8)
    original = A.copy()
    rank, pivots = rref_mod(A, P)
    ker = kernel_from_rref(A[:rank], pivots, 15, P)
    assert rank == 8
    assert ker.shape == (15 - rank, 15)
    assert not _mulmod(original, ker.T, P).any()
    # the kernel rows are independent
    got, _ = rref_mod(ker.copy(), P)
    assert got == 15 - rank


def test_kernel_from_blocked_rref_annihilates_the_matrix():
    rng = np.random.default_rng(43)
    A = _random_with_rank(rng, 260, 200, 150)
    original = A.copy()
    rank, pivots = blocked_rref_mod(A, P)
    ker = kernel_from_rref(A[:rank], pivots, 200, P)
    assert rank == 150
    assert ker.shape == (50, 200)
    assert not _mulmod(original, ker.T, P).any()
    assert rref_mod(ker.copy(), P)[0] == 50


def test_kernel_from_rref_matches_one_row_per_free_column():
    rng = np.random.default_rng(47)
    for rows, cols, rank in [(20, 15, 8), (10, 12, 0), (12, 12, 12), (30, 40, 25)]:
        A = _random_with_rank(rng, rows, cols, rank)
        got_rank, pivots = rref_mod(A, P)
        expected = np.zeros((cols - rank, cols), dtype=np.int64)
        free = [c for c in range(cols) if c not in set(pivots.tolist())]
        for idx, g in enumerate(free):
            expected[idx, g] = 1
            if rank:
                expected[idx, pivots] = (P - A[:rank, g]) % P
        got = kernel_from_rref(A[:rank], pivots, cols, P)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


@pytest.mark.skipif(not HAS_NUMBA, reason="accelerated backend not active")
def test_numba_and_numpy_backends_agree_bitwise():
    from nodalcert._kernels import IMPL_NUMBA

    rng = np.random.default_rng(23)
    for rows, cols, r in [(40, 60, 25), (170, 140, 100)]:
        A = _random_with_rank(rng, rows, cols, r)
        a1, a2 = A.copy(), A.copy()
        r1, piv1 = rref_mod(a1, P, impl=IMPL_NUMPY)
        r2, piv2 = rref_mod(a2, P, impl=IMPL_NUMBA)
        assert r1 == r2
        assert piv1.tolist() == piv2.tolist()
        assert np.array_equal(a1, a2)
        b1 = blocked_rank_mod(A.copy(), P, impl=IMPL_NUMPY)
        b2 = blocked_rank_mod(A.copy(), P, impl=IMPL_NUMBA)
        assert b1 == b2 == r1
        e1, e2 = A.copy(), A.copy()
        q1, qiv1 = blocked_rref_mod(e1, P, impl=IMPL_NUMPY)
        q2, qiv2 = blocked_rref_mod(e2, P, impl=IMPL_NUMBA)
        assert q1 == q2 == r1
        assert qiv1.tolist() == qiv2.tolist() == piv1.tolist()
        assert np.array_equal(e1, e2) and np.array_equal(e1, a1)


def test_pure_numpy_env_flag_disables_acceleration():
    env = dict(os.environ, NODALCERT_PURE_NUMPY="1")
    out = subprocess.run(
        [sys.executable, "-c", "from nodalcert._kernels import HAS_NUMBA; print(HAS_NUMBA)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"
