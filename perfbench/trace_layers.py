"""Per-layer tracing by wrapping nodalcert's public functions from outside.

Each wrapper is installed where its caller looks the name up (a module
global, a package attribute or a class attribute), so calls made inside the
library are seen as well as calls made by the benchmark. A wrapper counts
every call and adds the wall time of the outermost active call of its key,
so a function that re-enters itself, or two functions sharing one key, are
not counted twice. Kernel wrappers also add computed work counts.

The exact.* keys count only calls made by the linalg engine, that is the
exact field backend. nodal's point checks also call bareiss_rank, on the
n x n chart Hessian of each claimed node, in every field mode; that time is
part of nodal.local_checks.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import nodalcert
from nodalcert import _kernels, assembly, exact, hodge, koszul, linalg, milnor, nodal, report


def elimination_gop(rows: int, cols: int, rank: int) -> float:
    """Computed operation count of eliminating rank pivots from a rows x cols
    matrix: sum over i < rank of 2 (rows - i) (cols - i), in units of 1e9."""
    i = np.arange(rank, dtype=np.float64)
    return float((2.0 * (rows - i) * (cols - i)).sum()) / 1e9


def _rref_extra(tracer: "Tracer", key: str, args: tuple, result) -> None:
    rows, cols = args[0].shape
    tracer.add_kernel_work(key, rows, cols, int(result[0]))


def _blocked_extra(tracer: "Tracer", key: str, args: tuple, result) -> None:
    rows, cols = args[0].shape
    tracer.add_kernel_work(key, rows, cols, int(result))


def _exact_extra(tracer: "Tracer", key: str, args: tuple, result) -> None:
    tracer.count_elimination()


def _dense_mod_extra(tracer: "Tracer", key: str, args: tuple, result) -> None:
    rows, cols = args[0].shape
    tracer.stats["assembly.dense_mod.bytes"] += 8 * rows * cols


# Keys counted only inside a linalg engine call (see the module docstring).
ENGINE_ONLY = {"exact.bareiss_rank", "exact.rref_fraction"}

# (owner, attribute, metric key, extra accounting). Owners are where the
# caller resolves the name: module globals for calls inside the library,
# package attributes for calls made by the benchmark, class attributes for
# methods.
TARGETS = [
    (_kernels, "rref_mod", "kernels.rref_mod", _rref_extra),
    (_kernels, "blocked_rank_mod", "kernels.blocked_rank_mod", _blocked_extra),
    (exact, "bareiss_rank", "exact.bareiss_rank", _exact_extra),
    (exact, "rref_fraction", "exact.rref_fraction", _exact_extra),
    (milnor, "jacobian_generator_coo", "assembly.jacobian_generator_coo", None),
    (koszul, "trivial_syzygy_coo", "assembly.trivial_syzygy_coo", None),
    (assembly.IntCOO, "dense_mod", "assembly.dense_mod", _dense_mod_extra),
    (assembly.IntCOO, "dense_int_rows", "assembly.dense_int_rows", None),
    (linalg.LinearEngine, "rank_coo", "linalg.rank_coo", None),
    (linalg.LinearEngine, "rank_payload", "linalg.rank_payload", None),
    (linalg.LinearEngine, "echelon_coo", "linalg.echelon_coo", None),
    (linalg.LinearEngine, "echelon_payload", "linalg.echelon_payload", None),
    (linalg.LinearEngine, "kernel_payload", "linalg.kernel_payload", None),
    (milnor.JacobianContext, "jacobian_dim", "milnor.jacobian_dim", None),
    (milnor.JacobianContext, "jacobian_basis", "milnor.jacobian_basis", None),
    (milnor.JacobianContext, "quotient_reduction", "milnor.quotient_reduction", None),
    (hodge, "saturation_graded", "milnor.saturation_graded", None),
    (nodalcert, "saturation_graded", "milnor.saturation_graded", None),
    (nodal, "tjurina_count", "milnor.tjurina_count", None),
    (nodalcert, "coincidence_threshold", "milnor.coincidence_threshold", None),
    (nodalcert, "certify_nodal", "nodal.certify_nodal", None),
    (nodal, "is_singular_at", "nodal.local_checks", None),
    (nodal, "hessian_rank_at", "nodal.local_checks", None),
    (nodalcert, "koszul_cohomology_dim", "koszul.koszul_cohomology_dim", None),
    (nodalcert, "min_relation_degree", "koszul.min_relation_degree", None),
    (nodalcert, "pairing_injective", "torelli.pairing_injective", None),
    (nodalcert, "variable_multiplication_kernel", "torelli.variable_multiplication_kernel", None),
    (nodalcert, "period_differential", "torelli.period_differential", None),
    (nodalcert, "hodge_graded_dims", "hodge.hodge_graded_dims", None),
    (nodalcert, "ideal_of_points_dim", "hodge.ideal_of_points_dim", None),
    (report.RunReport, "render_json", "report.render_json", None),
]

FIXTURE_TARGET = (nodalcert, "make_fixture", "fixtures.make_fixture", None)


class Tracer:
    """Accumulates per-key call counts, busy seconds and work counts."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ---------------------------------------------------------

    def in_engine(self) -> bool:
        """Whether a linalg engine method is on the call stack."""
        return any(depth and key.startswith("linalg.") for key, depth in self._depth.items())

    def count_elimination(self) -> None:
        """One kernel run; counted toward elims_per_label only when a linalg
        engine method asked for it."""
        if self.in_engine():
            self.stats["linalg.eliminations"] += 1

    def add_kernel_work(self, key: str, rows: int, cols: int, rank: int) -> None:
        self.stats[key + ".entries"] += rows * cols
        self.stats[key + ".gop"] += elimination_gop(rows, cols, rank)
        self.count_elimination()

    # -- patching -----------------------------------------------------------

    def _wrap(self, original, key: str, extra):
        stats, depth = self.stats, self._depth

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if key in ENGINE_ONLY and not self.in_engine():
                return original(*args, **kwargs)
            outermost = depth[key] == 0
            depth[key] += 1
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                depth[key] -= 1
            stats[key + ".calls"] += 1
            if outermost:
                stats[key + ".s"] += elapsed
            if extra is not None:
                extra(self, key, args, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for owner, attr, key, extra in targets:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, key, extra))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
