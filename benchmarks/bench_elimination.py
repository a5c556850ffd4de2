"""Time the modular elimination kernels on random and Jacobian-slice matrices.

Runs the scalar reduced row echelon form (``rref_mod``, read off to its
pivot and free columns as ``rref_free_mod`` does at or below
``_SCALAR_CUTOFF`` entries), the blocked one (``blocked_rref_free_mod``, the
pivot columns and the reduced form's free columns that ``rref_free_mod``
returns above the cutoff; here at every size) and the blocked rank-only
elimination (``blocked_rank_mod``) on two kinds of input, modulo both
default primes:

* random matrices of a requested rank, built exactly over F_p in shapes
  like the Jacobian slices the pipeline eliminates;
* real Jacobian generator slices (``jacobian_generator_coo``) of seeded
  nodal fixtures, which are rank-deficient by the node count.

BLAS runs on one thread. Times are the sum over both primes, best of three
runs (two with ``--quick``) for matrices of at most one million entries,
one run for larger ones. The table shows which
kernel is faster at each size; ``rank_mod`` and ``rref_free_mod`` both
switch from scalar to blocked above ``_SCALAR_CUTOFF`` entries. The last line of
output is one JSON object with every timing.

On the blocked slices (above ``_SCALAR_CUTOFF`` entries) three more columns
time int32 copies, as the engine eliminates them: ``i32/64`` is the time of
their blocked rank in turn over that of the int64 copies, ``kern/rank``
the time of the annihilator step (``linalg.annihilator``: the blocked
forward pass and the back-substitution on the free columns only, fed to
``kernel_rows``) over that of their blocked rank, and ``once/turn`` the
wall time of both primes ranked at once (``linalg._pair``, the
engine's concurrent pair: the second prime in a forked child process,
which copies its own matrix, fork and reap included) over their time in
turn. The engine ranks the primes at once above ``_CONCURRENT_ENTRIES``
entries, from where the median ``once/turn`` of repeated runs was below 1;
single runs are noisy. Without a second core, ``os.fork`` or OpenBLAS
thread control the pair is not timed.

Any disagreement — a rank differing between kernels, a random matrix whose
rank is not the requested one, blocked pivots or free columns differing
from the scalar RREF's, or annihilator pivots or vectors differing from the
``kernel_rows`` of the scalar RREF — is reported and makes the script
exit 1.

Usage:
    python3 benchmarks/bench_elimination.py [--quick] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread, as in perfbench/run.py: on a 2-core VM a threaded BLAS
# made a 128 x 128 x 165 float64 product about 100 times slower (16.0 ms
# against 0.15 ms). Set before numpy loads BLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nodalcert import _kernels  # noqa: E402
from nodalcert._kernels import blocked_rank_mod, blocked_rref_free_mod, rref_mod  # noqa: E402
from nodalcert.assembly import jacobian_generator_coo  # noqa: E402
from nodalcert.field import DEFAULT_PRIMES, PrimeField  # noqa: E402
from nodalcert.fixtures import one_node  # noqa: E402
from nodalcert.linalg import _can_rank_at_once, _pair, annihilator, kernel_rows  # noqa: E402
from nodalcert.polynomials import partial_derivatives  # noqa: E402

# (label, rows, cols, rank): random matrices in Jacobian-slice shapes.
RANDOM_CASES = [
    ("random, quartic (3,4) k=8", 224, 165, 164),
    ("random, quintic (3,5) k=12", 660, 455, 440),
    ("random, quintic 4-fold k=10", 2002, 1001, 1000),
]
# (n, d, degrees): slices of one_node:n,d,seed=<--seed>.
JACOBIAN_CASES = [
    (3, 4, (6, 7, 8, 9, 10)),
    (3, 5, (7, 8, 9, 10, 11, 12, 13, 14)),
    (2, 19, (45, 51, 53)),
]
QUICK_RANDOM = RANDOM_CASES[:2]
QUICK_JACOBIAN = [(3, 4, (6, 7, 8, 9, 10)), (3, 5, (7, 8, 9, 10, 11, 12))]
REPEAT_ENTRIES = 1_000_000
REPEATS = 3
QUICK_REPEATS = 2


def mulmod(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """Exact (left @ right) mod p for entries in [0, p), p < 2^31.

    Splits both factors into 16-bit limbs; every limb product sum is below
    2^53 for inner dimensions up to 2^21, so float64 products are exact.
    """
    l0, l1 = (left & 0xFFFF).astype(np.float64), (left >> 16).astype(np.float64)
    r0, r1 = (right & 0xFFFF).astype(np.float64), (right >> 16).astype(np.float64)
    hi = (l1 @ r1).astype(np.int64) % p
    mid = (l1 @ r0 + l0 @ r1).astype(np.int64) % p
    lo = (l0 @ r0).astype(np.int64) % p
    return ((hi * ((1 << 32) % p)) % p + (mid << 16) % p + lo) % p


def random_with_rank(rng: np.random.Generator, rows: int, cols: int, rank: int, p: int) -> np.ndarray:
    """A rows x cols matrix over F_p of rank exactly ``rank``.

    It is left @ right with the leading rank x rank blocks unit lower and
    unit upper triangular (so their product is invertible), then rows and
    columns are shuffled.
    """
    left = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
    right = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
    eye = np.eye(rank, dtype=np.int64)
    left[:rank] = np.tril(left[:rank], -1) + eye
    right[:, :rank] = np.triu(right[:, :rank], 1) + eye
    out = mulmod(left, right, p)
    return np.ascontiguousarray(out[rng.permutation(rows)][:, rng.permutation(cols)])


def scalar_rref(M: np.ndarray, p: int):
    """``rref_mod`` read off to its pivot and free columns."""
    rank, pivots = rref_mod(M, p)
    return rank, (pivots, np.delete(M[:rank], pivots, axis=1))


def blocked_rref(M: np.ndarray, p: int):
    pivots, free = blocked_rref_free_mod(M, p)
    return pivots.size, (pivots, free)


# Each returns (rank, (pivot columns, free columns) or None).
ALGORITHMS = {
    "scalar": scalar_rref,
    "blocked_rref": blocked_rref,
    "blocked": lambda M, p: (blocked_rank_mod(M, p), None),
}


def best_time(algo, A: np.ndarray, p: int, repeats: int):
    """Best wall time of ``repeats`` runs on fresh copies of A, the rank,
    and (pivot columns, free columns) for the RREF kernels, else None."""
    best = float("inf")
    for _ in range(repeats):
        M = A.copy()
        t0 = time.perf_counter()
        rank, echelon = algo(M, p)
        best = min(best, time.perf_counter() - t0)
    return best, rank, echelon


def best_pair_time(mats: dict[int, np.ndarray], repeats: int) -> tuple[float, list[int]]:
    """Best wall time of ``repeats`` runs of the engine's concurrent pair on
    fresh copies of the two primes' matrices, each made in the process that
    ranks it, and the two ranks."""
    fields = [PrimeField(p) for p in mats]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        ranks = _pair(fields, lambda F: F.rank(mats[F.p].copy()))
        best = min(best, time.perf_counter() - t0)
    return best, ranks


def best_annihilator_time(A: np.ndarray, p: int, repeats: int):
    """Best wall time of ``repeats`` annihilator steps on fresh copies of A,
    and the step's pivots and vectors."""
    best = float("inf")
    for _ in range(repeats):
        M = A.copy()
        t0 = time.perf_counter()
        pivots, vectors = annihilator(PrimeField(p), M)
        best = min(best, time.perf_counter() - t0)
    return best, pivots, vectors


def inputs(seed: int, quick: bool):
    """Yield (label, {p: matrix}, requested rank or None)."""
    rng = np.random.default_rng(seed)
    for label, rows, cols, rank in QUICK_RANDOM if quick else RANDOM_CASES:
        yield label, {p: random_with_rank(rng, rows, cols, rank, p) for p in DEFAULT_PRIMES}, rank
    for n, d, degrees in QUICK_JACOBIAN if quick else JACOBIAN_CASES:
        partials = partial_derivatives(one_node(n, d, seed).f)
        for k in degrees:
            coo = jacobian_generator_coo(partials, k)
            yield f"one_node:{n},{d},seed={seed} k={k}", {p: coo.dense_mod(p) for p in DEFAULT_PRIMES}, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="only the small cases")
    parser.add_argument("--seed", type=int, default=1, help="seed of the random matrices and fixtures")
    args = parser.parse_args(argv)

    # warm BLAS so start-up does not pollute the table
    warm = random_with_rank(np.random.default_rng(0), 64, 64, 60, DEFAULT_PRIMES[0])
    for algo in ALGORITHMS.values():
        algo(warm.copy(), DEFAULT_PRIMES[0])

    pair = _can_rank_at_once()
    header = (f"{'case':<30} {'shape':>11} {'entries':>9} {'rank':>6}"
              f" {'scalar':>14} {'b.rref':>14} {'b.rank':>14} {'ratio':>6} {'i32/64':>6} {'kern/rank':>9}"
              f" {'once/turn':>9}")
    print(f"primes {DEFAULT_PRIMES}, seed {args.seed}, _SCALAR_CUTOFF {_kernels._SCALAR_CUTOFF},"
          f" _CONCURRENT_ENTRIES {_kernels._CONCURRENT_ENTRIES}, {BLAS_THREADS} BLAS thread,"
          f" pair {'timed' if pair else 'not timed'}")
    print(header)
    print("-" * len(header))
    records = []
    disagreements = 0
    for label, mats, requested in inputs(args.seed, args.quick):
        rows, cols = next(iter(mats.values())).shape
        repeats = (QUICK_REPEATS if args.quick else REPEATS) if rows * cols <= REPEAT_ENTRIES else 1
        record = {"case": label, "rows": rows, "cols": cols, "entries": rows * cols, "requested_rank": requested}
        ranks: dict[int, set[int]] = {p: set() for p in mats}
        reference: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # p -> (pivots, free columns)
        echelon_differs = kernel_differs = False
        secs = dict.fromkeys(ALGORITHMS, 0.0)
        for aname, algo in ALGORITHMS.items():
            for p, A in mats.items():
                dt, got, echelon = best_time(algo, A, p, repeats)
                secs[aname] += dt
                ranks[p].add(got)
                if echelon is not None:
                    ref = reference.setdefault(p, echelon)
                    echelon_differs |= not all(map(np.array_equal, echelon, ref))
            record[f"{aname}_s"] = round(secs[aname], 6)
        line = (f" {secs['scalar']:>13.4f}s {secs['blocked_rref']:>13.4f}s {secs['blocked']:>13.4f}s"
                f" {secs['scalar'] / secs['blocked_rref']:>6.2f}")
        if rows * cols > _kernels._SCALAR_CUTOFF:
            mats32 = {p: A.astype(np.int32) for p, A in mats.items()}
            int32_s = 0.0
            for p, A in mats32.items():
                dt, got, _ = best_time(ALGORITHMS["blocked"], A, p, repeats)
                int32_s += dt
                ranks[p].add(got)
            record["blocked_int32_s"] = round(int32_s, 6)
            line += f" {int32_s / secs['blocked']:>6.2f}"
            kernel_s = 0.0
            for p, A in mats32.items():
                dt, pivots, vectors = best_annihilator_time(A, p, repeats)
                kernel_s += dt
                ranks[p].add(len(pivots))
                ref_pivots, free = reference[p]
                expected = kernel_rows(PrimeField(p), ref_pivots, free, cols)
                kernel_differs |= pivots != tuple(ref_pivots.tolist()) or not np.array_equal(vectors, expected)
            record["annihilator_int32_s"] = round(kernel_s, 6)
            line += f" {kernel_s / int32_s:>9.2f}"
            if pair:
                pair_s, got = best_pair_time(mats32, repeats)
                for p, r in zip(mats32, got):
                    ranks[p].add(r)
                record["pair_int32_s"] = round(pair_s, 6)
                line += f" {pair_s / int32_s:>9.2f}"
        bad_rank = any(len(v) != 1 or (requested is not None and v != {requested}) for v in ranks.values())
        record["ranks"] = {str(p): sorted(v) for p, v in ranks.items()}
        record["echelon_differs"] = echelon_differs
        record["kernel_differs"] = kernel_differs
        rank_text = "?" if bad_rank else "/".join(sorted({str(min(v)) for v in ranks.values()}))
        print(f"{label:<30} {rows:>5}x{cols:<5} {rows * cols:>9} {rank_text:>6}" + line
              + ("  RANK DISAGREEMENT" if bad_rank else "") + ("  RREF DISAGREEMENT" if echelon_differs else "")
              + ("  KERNEL DISAGREEMENT" if kernel_differs else ""),
              flush=True)
        disagreements += bad_rank or echelon_differs or kernel_differs
        records.append(record)
    print("scalar = rref_mod and its free columns, b.rref = blocked_rref_free_mod, b.rank = blocked_rank_mod; "
          "ratio = scalar time / b.rref time (above 1: the blocked RREF is faster); "
          "i32/64 = b.rank time on int32 / on int64 copies; "
          "kern/rank = annihilator step time / b.rank time, both on int32 copies; "
          "once/turn = int32 b.rank wall time of both primes at once (the second in a forked child) / in turn")
    if disagreements:
        print(f"{disagreements} case(s) with disagreeing ranks, RREFs or kernels", file=sys.stderr)
    print(json.dumps({
        "seed": args.seed,
        "primes": list(DEFAULT_PRIMES),
        "scalar_cutoff": _kernels._SCALAR_CUTOFF,
        "concurrent_entries": _kernels._CONCURRENT_ENTRIES,
        "disagreements": disagreements,
        "cases": records,
    }))
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
