"""Field-dispatched exact linear algebra with a per-run rank ledger.

The engine runs every elimination in each realization of its field
configuration (see ``field``) and insists the answers agree:

* prime-pair mode (default): each rank/echelon runs modulo two independent
  31-bit primes; ranks and pivot column sets must match or
  ``FieldDisagreement`` is raised. Ranks over a prime field never exceed the
  rational rank, and agreement of two independent primes on both the rank
  and the pivot structure is the certification standard used throughout.
* exact mode: fraction-free Bareiss / rational echelon over Q. Slower, used
  to replay selected computations and confirm the prime-pair answers.

Every rank the engine computes is recorded in an ordered ledger
(label -> (rows, cols, rank)) so a replay in another field can be compared
record by record. Labels are stable names of the mathematical object, not of
the field, so ledgers from different fields line up.

Payloads map each field key to a 2-D numpy matrix of that realization's
dtype: int64 entries in [0, p) for a prime key, ``dtype=object`` rationals
for the exact key. A matrix made only to be ranked has the realization's
``rank_dtype`` instead, int32 for a prime key.

A prime-pair rank of more than ``_kernels._CONCURRENT_ENTRIES`` entries
ranks its two primes at once when the process has at least two cores, can
fork, runs no other Python thread and the OpenBLAS that numpy loaded lets
its thread count be set: the calling process forks a child, which inherits
the COO or payload copy-on-write, moves off the caller's core, makes only
the second prime's int32 matrix, ranks it and writes the rank (or its
exception) to a pipe, while the caller makes and ranks the first prime's;
OpenBLAS is pinned to one thread until both are done, and the child is
reaped before the rank returns or raises. Otherwise the primes run in
turn. The ranks, their agreement check and the ledger are the same either
way. The engine itself is not thread-safe: a caller uses it from one
thread.

A kernel runs the realization's reduced echelon form and then one function
for every field, ``kernel_rows``, before the rows are echelonized; the
quotient tables of ``milnor`` are those rows, transposed.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from . import _kernels
from .assembly import IntCOO
from .errors import FieldDisagreement, InconsistentResult
from .field import FieldConfig, Realization, realization

Payload = Mapping[str, np.ndarray]


@dataclass(frozen=True)
class SubspaceBasis:
    """Reduced-echelon basis of a subspace, one payload per field key.

    ``pivots`` are the echelon pivot columns (shared across keys — the
    engine refuses to build a basis whose realizations disagree). Each
    payload is a dim x ncols matrix of its realization's dtype (int64 for
    prime keys, ``dtype=object`` rationals for the exact key); row t has a
    unit at pivots[t] and zeros at the other pivot columns.
    """

    ncols: int
    pivots: tuple[int, ...]
    payload: Payload

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> tuple[int, ...]:
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ncols) if c not in pivset)


@dataclass(frozen=True)
class RankRecord:
    rows: int
    cols: int
    rank: int


@functools.cache
def _can_rank_at_once() -> bool:
    """Whether a pair can rank its two primes at once: the process can fork,
    may run on at least two cores, and OpenBLAS can be pinned to one
    thread."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and _kernels.openblas_threads() is not None
    )


@functools.cache
def _sched_getcpu() -> Callable[[], int]:
    """libc's ``sched_getcpu``: the CPU the calling thread runs on."""
    return ctypes.CDLL(None).sched_getcpu


def _rank_in_child(
    F: Realization, matrix: Callable[[Realization], np.ndarray], read_end: int, write_end: int, parent_cpu: int
) -> NoReturn:
    """The forked child of a pair: close the parent's ``read_end``, move off
    ``parent_cpu``, rank ``matrix(F)`` and write the pickled rank, or the
    exception it raised, to ``write_end``. It never returns into the
    caller's stack: it ends with ``os._exit`` on every path, which also
    leaves the buffers of the parent's open files unflushed. An exception
    that does not survive pickling is replaced by an ``InconsistentResult``
    naming its type.

    Left to itself, the scheduler of a 2-core VM often kept the child on its
    parent's core for the whole rank, and the pair took 1.2-1.7 times as
    long as the two ranks in turn."""
    status = 1
    try:
        os.close(read_end)
        away = os.sched_getaffinity(0) - {parent_cpu}
        if away:
            os.sched_setaffinity(0, away)
        try:
            reply = pickle.dumps(F.rank(matrix(F)))
        except BaseException as exc:
            try:
                reply = pickle.dumps(exc)
                pickle.loads(reply)
            except Exception:
                reply = pickle.dumps(
                    InconsistentResult(f"the rank modulo {F.p} raised {type(exc).__qualname__}, which does not pickle")
                )
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


def _rank_pair(fields: Sequence[Realization], matrix: Callable[[Realization], np.ndarray]) -> list[int]:
    """The ranks of ``matrix(F)`` for the two realizations at once: the
    second in a forked child (``_rank_in_child``), the first in this
    process, with OpenBLAS pinned to one thread from before the fork until
    both are done. The child is reaped before this returns or raises; it is
    killed first when the first rank raises. The child's exception is
    re-raised here, and a child that ends without a result raises
    ``InconsistentResult``. If the fork fails, the primes run in turn."""
    get_threads, set_threads = _kernels.openblas_threads()
    threads = get_threads()
    set_threads(1)
    try:
        read_end, write_end = os.pipe()
        cpu = _sched_getcpu()()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return [F.rank(matrix(F)) for F in fields]
        if pid == 0:
            _rank_in_child(fields[1], matrix, read_end, write_end, cpu)
        os.close(write_end)
        try:
            with os.fdopen(read_end, "rb") as pipe:
                first = fields[0].rank(matrix(fields[0]))
                reply = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    finally:
        set_threads(threads)
    try:
        second = pickle.loads(reply)
    except Exception:
        raise InconsistentResult(
            f"the rank modulo {fields[1].p} ended without a result (exit status {os.waitstatus_to_exitcode(status)})"
        ) from None
    if isinstance(second, BaseException):
        raise second
    return [first, second]


def kernel_rows(F: Realization, pivots: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """Kernel rows, of F's dtype, of the map x -> M x whose reduced echelon
    rows over F are ``rows`` with pivot columns ``pivots``: one row per free
    column g, with 1 at g and -rows[t, g] at pivots[t]. The rows are
    independent but not echelonized."""
    pivots = np.array(pivots, dtype=np.int64)
    free = np.delete(np.arange(rows.shape[1]), pivots)
    out = np.zeros((len(free), rows.shape[1]), dtype=F.dtype)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = F.normalize(-rows[:, free]).T
    return out


class LinearEngine:
    """Runs eliminations in every realization of a field configuration."""

    def __init__(self, field: FieldConfig):
        self.field = field
        self.rank_ledger: dict[str, RankRecord] = {}
        self._span_cache: dict[str, SubspaceBasis] = {}

    # -- internal ---------------------------------------------------------

    def _cached_rank(self, label: str, shape: tuple[int, int]) -> int | None:
        rec = self.rank_ledger.get(label)
        if rec is None:
            return None
        if (rec.rows, rec.cols) != tuple(shape):
            raise InconsistentResult(
                f"ledger label {label!r} holds a {rec.rows}x{rec.cols} rank, asked for {shape[0]}x{shape[1]}"
            )
        return rec.rank

    def _record(self, label: str, rows: int, cols: int, rank: int) -> None:
        rec = RankRecord(rows, cols, rank)
        old = self.rank_ledger.get(label)
        if old is not None and old != rec:
            raise InconsistentResult(f"ledger label {label!r} reused with a different result: {old} vs {rec}")
        self.rank_ledger[label] = rec

    def _eliminate(
        self,
        op: str,
        label: str,
        shape: tuple[int, int],
        matrix: Callable[[Realization], np.ndarray],
    ) -> int | SubspaceBasis:
        """Run ``op`` ("rank", "rref" or "kernel", which turns the reduced
        echelon rows into ``kernel_rows``) in every realization on the fresh
        ``shape`` matrix ``matrix(F)``, which the kernel may overwrite;
        insist the realizations agree on the rank or the pivot columns;
        record the rank under ``label``. A rank is answered from the ledger,
        and a large prime-pair rank runs both primes at once (module
        docstring); a basis (the span for "rref", the echelonized kernel for
        "kernel", both of ``shape[1]`` coordinates) from the span cache,
        which it then fills."""
        if op == "rank":
            cached = self._cached_rank(label, shape)
            if cached is not None:
                return cached
        elif label in self._span_cache:
            return self._span_cache[label]
        fields = self.field.realizations
        checks: dict[str, object] = {}
        payload: dict[str, np.ndarray] = {}
        at_once = op == "rank" and len(fields) == 2 and shape[0] * shape[1] > _kernels._CONCURRENT_ENTRIES
        if at_once and _can_rank_at_once() and threading.active_count() == 1:
            # forking a process that runs other threads is unsafe
            ranks = _rank_pair(fields, matrix)
            checks = {F.key: rank for F, rank in zip(fields, ranks)}
        else:
            for F in fields:
                if op == "rank":
                    checks[F.key] = F.rank(matrix(F))
                else:
                    checks[F.key], payload[F.key] = F.rref(matrix(F))
                    if op == "kernel":
                        # replaces the reduced form, freed before the kernel is echelonized
                        payload[F.key] = kernel_rows(F, checks[F.key], payload[F.key])
        first = next(iter(checks.values()))
        if any(v != first for v in checks.values()):
            what = "rank" if op == "rank" else "pivot columns"
            raise FieldDisagreement(
                f"{what} for {label!r} differs across fields: "
                + ", ".join(f"{k}={v!r}" for k, v in checks.items())
            )
        rank = int(first) if op == "rank" else len(first)
        self._record(label, shape[0], shape[1], rank)
        if op == "rank":
            return rank
        if op == "kernel":
            basis = self.echelon_payload(payload, label + "/kernel")
        else:
            basis = SubspaceBasis(shape[1], first, payload)
        self._span_cache[label] = basis
        return basis

    @staticmethod
    def _matrices(payload: Payload, copy: bool = True) -> Callable[[Realization], np.ndarray]:
        """The kernels' matrices of a payload: copies, unless the caller
        hands its matrices over to be overwritten."""
        as_matrix = np.array if copy else np.asarray
        return lambda F: as_matrix(payload[F.key], dtype=F.dtype, order="C")

    # -- public entry points ------------------------------------------------

    def rank_coo(self, coo: IntCOO, label: str) -> int:
        return self._eliminate("rank", label, coo.shape, lambda F: F.dense(coo, F.rank_dtype))

    def rank_payload(self, payload: Payload, label: str) -> int:
        return self._eliminate(
            "rank",
            label,
            _payload_shape(payload, label),
            lambda F: np.array(payload[F.key], dtype=F.rank_dtype, order="C"),
        )

    def echelon_coo(self, coo: IntCOO, label: str) -> SubspaceBasis:
        return self._eliminate("rref", label, coo.shape, lambda F: F.dense(coo))

    def echelon_payload(self, payload: Payload, label: str) -> SubspaceBasis:
        return self._eliminate("rref", label, _payload_shape(payload, label), self._matrices(payload))

    def kernel_payload(self, payload: Payload, label: str) -> SubspaceBasis:
        """Echelonized kernel basis of the map x -> M x for each realization.

        Consumes the payload: a C-contiguous matrix of its realization's
        dtype is eliminated in place, so callers pass matrices built for the
        call."""
        return self._eliminate("kernel", label, _payload_shape(payload, label), self._matrices(payload, copy=False))

    def kernel_coo(self, coo: IntCOO, label: str) -> SubspaceBasis:
        return self._eliminate("kernel", label, coo.shape, lambda F: F.dense(coo))


def _payload_shape(payload: Payload, label: str) -> tuple[int, int]:
    """The one shape of a payload's matrices; raises ``InconsistentResult``
    unless they are all 2-D and of one shape."""
    shapes = {np.shape(matrix) for matrix in payload.values()}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise InconsistentResult(f"payload {label!r} holds matrices of shapes {sorted(shapes)}")
    return shapes.pop()


# ---------------------------------------------------------------------------
# basis-level operations (engine-independent; work on any SubspaceBasis)
# ---------------------------------------------------------------------------


def reduce_against_basis(basis: SubspaceBasis, vec: Sequence[Fraction]) -> dict[str, np.ndarray]:
    """Residual of an exact vector after eliminating pivot coordinates, per key."""
    out = {}
    for key, rows in basis.payload.items():
        F = realization(key)
        res = F.convert(vec)
        for t, pc in enumerate(basis.pivots):
            if res[pc]:
                res = F.normalize(res - res[pc] * rows[t])
        out[key] = res
    return out


def membership(basis: SubspaceBasis, vec: Sequence[Fraction]) -> bool:
    """Whether the exact vector lies in the subspace (agreement enforced)."""
    answers = {key: not np.any(res) for key, res in reduce_against_basis(basis, vec).items()}
    vals = set(answers.values())
    if len(vals) > 1:
        raise FieldDisagreement(f"membership differs across fields: {answers}")
    return vals.pop()


def quotient_coordinates(basis: SubspaceBasis, vec: Sequence[Fraction]) -> dict[str, np.ndarray]:
    """Coordinates of the class of vec over the standard complement basis
    (the non-pivot coordinates), one vector per field key."""
    free = list(basis.free_columns())
    return {key: res[free] for key, res in reduce_against_basis(basis, vec).items()}
