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
