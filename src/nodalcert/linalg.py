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

The engine has three ops, rank, reduced echelon form and kernel, each
taking ``(matrix, label)`` where the matrix is an ``IntCOO`` or a payload,
and each under two names (``rank_coo`` and ``rank_payload``, and so on):
perfbench's tracer patches and counts each name apart. The shape comes
from the matrix, and one step per field densifies it and runs the op: a
COO through ``Realization.dense``, a payload by copying its matrix, so the
engine never writes into a caller's payload. Payloads map each field key
to a 2-D numpy matrix of that realization's dtype: int64 entries in
[0, p) for a prime key, ``dtype=object`` rationals for the exact key. A
matrix made only to be ranked has the realization's ``rank_dtype``
instead, int32 for a prime key. A matrix of more than ``_ENTRY_CAP``
entries raises ``NoStabilization`` before any dense matrix is made.

A prime-pair rank of more than ``_kernels._CONCURRENT_ENTRIES`` entries
runs the step of its two primes at once when the process has at least two
cores, can fork, runs no other Python thread and the OpenBLAS that numpy
loaded lets its thread count be set: the calling process forks a child,
which inherits the matrix copy-on-write, moves off the caller's core, runs
the second prime's step (it makes only that prime's int32 matrix) and
writes the rank (or its exception) to a pipe, while the caller runs the
first prime's; OpenBLAS is pinned to one thread until both are done, and
the child is reaped before the rank returns or raises. Otherwise, and for
every echelon and kernel, the primes run in turn. The ranks, their
agreement check and the ledger are the same either way. The engine itself
is not thread-safe: a caller uses it from one thread.

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
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _kernels
from .assembly import IntCOO
from .errors import FieldDisagreement, InconsistentResult, NoStabilization
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


# max dense entries of one matrix the engine eliminates, checked before it
# makes any (JacobianContext.slice_over_cap checks slices against it earlier):
# a rank of both primes at once holds one int32 matrix per process, the
# caller's and its forked child's: 1.6 GB each at the cap, 3.2 GB between them
_ENTRY_CAP = 400_000_000


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


def _pair(fields: Sequence[Realization], step: Callable[[Realization], object]) -> list:
    """``step(F)`` for the two realizations at once: the second in a forked
    child, which moves off this process's core, the first here, with
    OpenBLAS pinned to one thread until both are done; in turn if the fork
    fails. (Left to itself, the scheduler of a 2-core VM often kept the
    child on its parent's core, and a rank pair took 1.2-1.7 times as long
    as in turn.) The child writes its pickled result or exception to a pipe
    and ends with ``os._exit`` on every path, so it never returns into the
    caller's stack nor flushes the parent's file buffers. It is reaped
    before this returns or raises, killed first if the first step raises.
    Its exception is re-raised here; one that does not pickle, or a child
    that ends without a result, raises ``InconsistentResult``."""
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
            return [step(F) for F in fields]
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                away = os.sched_getaffinity(0) - {cpu}
                if away:
                    os.sched_setaffinity(0, away)
                try:
                    reply = pickle.dumps(step(fields[1]))
                except BaseException as exc:
                    try:
                        reply = pickle.dumps(exc)
                        pickle.loads(reply)
                    except Exception:
                        what = f"the step modulo {fields[1].p} raised {type(exc).__qualname__}"
                        reply = pickle.dumps(InconsistentResult(f"{what}, which does not pickle"))
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(reply)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        try:
            with os.fdopen(read_end, "rb") as pipe:
                first = step(fields[0])
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
            f"the step modulo {fields[1].p} ended without a result (exit status {os.waitstatus_to_exitcode(status)})"
        ) from None
    if isinstance(second, BaseException):
        raise second
    return [first, second]


def _dense(F: Realization, matrix: IntCOO | Payload, dtype: type) -> np.ndarray:
    """A fresh C-contiguous ``dtype`` matrix for F, which a kernel may
    overwrite: the COO densified, or a copy of the payload's matrix."""
    if isinstance(matrix, IntCOO):
        return F.dense(matrix, dtype)
    return np.array(matrix[F.key], dtype=dtype, order="C")


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
        self._span_cache: dict[str, tuple[str, SubspaceBasis]] = {}  # label -> (op, basis)

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

    def _eliminate(self, op: str, matrix: IntCOO | Payload, label: str) -> int | SubspaceBasis:
        """Run ``op`` ("rank", "rref" or "kernel", which turns the reduced
        echelon rows into ``kernel_rows``) on ``matrix`` (a COO or a
        payload) in every realization, one ``step`` per field; insist the
        realizations agree on the rank or the pivot columns; record the rank
        under ``label``. A rank is answered from the ledger, and a large
        prime-pair rank runs both steps at once (module docstring); a basis
        (the span for "rref", the echelonized kernel for "kernel", both of
        ``shape[1]`` coordinates) from the span cache, which it then fills.
        A hit of another op or another shape raises ``InconsistentResult``."""
        shape = matrix.shape if isinstance(matrix, IntCOO) else _payload_shape(matrix, label)
        if op == "rank":
            cached = self._cached_rank(label, shape)
            if cached is not None:
                return cached
        elif label in self._span_cache:
            self._cached_rank(label, shape)  # raises unless the shapes agree
            held, basis = self._span_cache[label]
            if held != op:
                raise InconsistentResult(f"span cache label {label!r} holds a {held} basis, asked for {op}")
            return basis
        if shape[0] * shape[1] > _ENTRY_CAP:
            size = f"{shape[0]} x {shape[1]} ({shape[0] * shape[1]} entries)"
            raise NoStabilization(f"the matrix {label!r} is {size}, past the feasible size cap of {_ENTRY_CAP}")

        def step(F: Realization) -> tuple:
            if op == "rank":
                return F.rank(_dense(F, matrix, F.rank_dtype)), None
            pivots, rows = F.rref(_dense(F, matrix, F.dtype))
            return pivots, rows if op == "rref" else kernel_rows(F, pivots, rows)

        fields = self.field.realizations
        at_once = op == "rank" and len(fields) == 2 and shape[0] * shape[1] > _kernels._CONCURRENT_ENTRIES
        if at_once and _can_rank_at_once() and threading.active_count() == 1:
            # forking a process that runs other threads is unsafe
            results = _pair(fields, step)
        else:
            results = [step(F) for F in fields]
        first = results[0][0]
        if any(check != first for check, _ in results):
            what = "rank" if op == "rank" else "pivot columns"
            raise FieldDisagreement(
                f"{what} for {label!r} differs across fields: "
                + ", ".join(f"{F.key}={check!r}" for F, (check, _) in zip(fields, results))
            )
        rank = int(first) if op == "rank" else len(first)
        self._record(label, shape[0], shape[1], rank)
        if op == "rank":
            return rank
        payload = {F.key: rows for F, (_, rows) in zip(fields, results)}
        if op == "kernel":
            basis = self.echelon_payload(payload, label + "/kernel")
        else:
            basis = SubspaceBasis(shape[1], first, payload)
        self._span_cache[label] = (op, basis)
        return basis

    # -- public entry points ------------------------------------------------
    # Three ops, each taking a COO or a payload. Each has a second name bound
    # to it, because perfbench/trace_layers.py patches and counts every name
    # apart; callers keep the name that says what they pass.

    def rank_coo(self, matrix: IntCOO | Payload, label: str) -> int:
        return self._eliminate("rank", matrix, label)

    def echelon_coo(self, matrix: IntCOO | Payload, label: str) -> SubspaceBasis:
        return self._eliminate("rref", matrix, label)

    def kernel_coo(self, matrix: IntCOO | Payload, label: str) -> SubspaceBasis:
        """Echelonized kernel basis of the map x -> M x for each realization."""
        return self._eliminate("kernel", matrix, label)

    rank_payload, echelon_payload, kernel_payload = rank_coo, echelon_coo, kernel_coo


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
