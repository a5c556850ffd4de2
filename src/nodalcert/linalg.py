"""Field-dispatched exact linear algebra with a per-run rank ledger.

The engine runs every elimination in each realization of its field
configuration (see ``field``) and insists the answers agree:

* prime-pair mode (default): each elimination runs modulo two independent
  31-bit primes; ranks, or else pivot column sets, must match or
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
from the matrix, and one step per field densifies it into the
realization's ``rank_dtype`` (int32 for a prime key) and runs the op: a
COO through ``Realization.dense``, a payload by copying its matrix, so the
engine never writes into a caller's payload. Payloads map each field key
to a 2-D numpy matrix of that realization's dtype: int64 entries in
[0, p) for a prime key, ``dtype=object`` rationals for the exact key. A
matrix of more than ``_ENTRY_CAP`` entries raises ``NoStabilization``
before any is made.

A fourth op, ``annihilator_coo``, serves ``milnor``'s Jacobian slices and
quotient tables: the rank and, per field, the kernel rows of x -> M x,
not echelonized. ``derived_rank`` records a rank that ``milnor`` derives
from such rows without building the matrix, under the same size cap and
agreement check.

A rank is one step, ``Realization.rank``, answered from the ledger once
recorded. Every other op is one step too, ``Realization.rref_free``: the
pivot columns and only the reduced form's free columns, which over F_p
above the scalar cutoff never makes the rest of the form (see
``_kernels.blocked_rref_free_mod``). The realizations must agree on the
pivot columns, and the engine holds that settled result under the label,
so one elimination answers every echelon, kernel and annihilator asked of
it: an echelon is ``reduced_rows`` of the held result, an annihilator its
``kernel_rows``, and a kernel those rows echelonized under
``label + "/kernel"``.

A prime-pair elimination of more than ``_kernels._CONCURRENT_ENTRIES``
entries runs the step of its two primes at once when the process has at
least two cores, can fork, runs no other Python thread and the OpenBLAS
that numpy loaded lets its thread count be set: the calling process forks
a child, which inherits the matrix copy-on-write, moves off the caller's
core, runs the second prime's step (it makes only that prime's int32
matrix) and writes the rank (or the pivot columns and the free columns,
rank x h for a quotient of dimension h) or its exception to a pipe, while
the caller runs the first prime's; OpenBLAS is pinned to one thread until
both are done, and the child is reaped before the step's result returns
or raises. Otherwise the primes run in turn. The results, their agreement
check and the ledger are the same either way. The engine itself is not
thread-safe: a caller uses it from one thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _kernels
from .assembly import IntCOO
from .errors import FieldDisagreement, InconsistentResult, NoStabilization
from .field import FieldConfig, Realization

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


def _dense(F: Realization, matrix: IntCOO | Payload) -> np.ndarray:
    """A fresh C-contiguous ``rank_dtype`` matrix for F, which a kernel may
    overwrite: the COO densified, or a copy of the payload's matrix."""
    if isinstance(matrix, IntCOO):
        return F.dense(matrix)
    return np.array(matrix[F.key], dtype=F.rank_dtype, order="C")


def reduced_rows(F: Realization, pivots: Sequence[int], free: np.ndarray, ncols: int) -> np.ndarray:
    """The reduced echelon rows, of F's dtype, on ``ncols`` coordinates with
    pivot columns ``pivots`` and, at the other columns in order, the
    columns ``free`` (as ``Realization.rref_free`` returns them): row t has
    1 at pivots[t] and 0 at the other pivot columns. The mirror of
    ``kernel_rows``."""
    pivots = np.array(pivots, dtype=np.int64)
    out = np.zeros((len(pivots), ncols), dtype=F.dtype)
    out[:, np.delete(np.arange(ncols), pivots)] = free
    out[np.arange(len(pivots)), pivots] = 1
    return out


def kernel_rows(F: Realization, pivots: Sequence[int], free: np.ndarray, ncols: int) -> np.ndarray:
    """Kernel rows, of F's dtype, of the map x -> M x on ``ncols``
    coordinates whose reduced echelon form over F has pivot columns
    ``pivots`` and, at the other columns g in order, the columns ``free``
    (as ``Realization.rref_free`` returns them): one row per free column g,
    with 1 at g and -free[t, g] at pivots[t]. The rows are independent but
    not echelonized."""
    pivots = np.array(pivots, dtype=np.int64)
    others = np.delete(np.arange(ncols), pivots)
    out = np.zeros((len(others), ncols), dtype=F.dtype)
    out[np.arange(len(others)), others] = 1
    out[:, pivots] = F.normalize(-free).T
    return out


def annihilator(F: Realization, mat: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The pivot columns of mat's reduced echelon form over F and the
    ``kernel_rows`` of mat, from ``F.rref_free``: the rest of the reduced
    form is never made. Overwrites mat. For matrices the engine does not
    hold, such as ``milnor``'s compatibility systems."""
    pivots, free = F.rref_free(mat)
    return pivots, kernel_rows(F, pivots, free, mat.shape[1])


class LinearEngine:
    """Runs eliminations in every realization of a field configuration."""

    def __init__(self, field: FieldConfig):
        self.field = field
        self.rank_ledger: dict[str, RankRecord] = {}
        # label -> (pivot columns, {field key: free columns}): the settled
        # result of the one elimination that answers every op but a rank
        self._held: dict[str, tuple[tuple[int, ...], dict[str, np.ndarray]]] = {}

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

    def _settle(self, what: str, label: str, shape: tuple[int, int], results: list) -> int:
        """Insist that the realizations' ``(check, data)`` results agree on
        their check (``what``: "rank" or "pivot columns"), else raise
        ``FieldDisagreement``; record the rank under ``label`` and return it."""
        first = results[0][0]
        if any(check != first for check, _ in results):
            raise FieldDisagreement(
                f"{what} for {label!r} differs across fields: "
                + ", ".join(f"{F.key}={check!r}" for F, (check, _) in zip(self.field.realizations, results))
            )
        rank = int(first) if what == "rank" else len(first)
        self._record(label, shape[0], shape[1], rank)
        return rank

    def _run(self, label: str, shape: tuple[int, int], step: Callable[[Realization], tuple]) -> list:
        """``step(F)`` in every realization, once the size cap is checked; a
        large prime pair runs both at once (module docstring)."""
        _check_size(label, shape)
        fields = self.field.realizations
        at_once = len(fields) == 2 and shape[0] * shape[1] > _kernels._CONCURRENT_ENTRIES
        if at_once and _can_rank_at_once() and threading.active_count() == 1:
            # forking a process that runs other threads is unsafe
            return _pair(fields, step)
        return [step(F) for F in fields]

    def _eliminate(self, op: str, matrix: IntCOO | Payload, label: str) -> int | SubspaceBasis | tuple:
        """Run ``op`` ("rank"; "rref"; "annihilator", the kernel rows; or
        "kernel", which echelonizes them) on ``matrix`` (a COO or a payload)
        in every realization; insist the realizations agree on the rank (for
        the other ops, the pivot columns); record the rank under ``label``.
        A rank is answered from the ledger. Every other op is written from
        the held result of ``label``, the pivot columns and each
        realization's free columns from ``F.rref_free``, which the first
        such op on the label settles and holds; a later op of another shape
        raises ``InconsistentResult``."""
        shape = matrix.shape if isinstance(matrix, IntCOO) else _payload_shape(matrix, label)
        if op == "rank":
            cached = self._cached_rank(label, shape)
            if cached is not None:
                return cached
            results = self._run(label, shape, lambda F: (F.rank(_dense(F, matrix)), None))
            return self._settle("rank", label, shape, results)
        fields = self.field.realizations
        if label in self._held:
            self._cached_rank(label, shape)  # raises unless the shapes agree
        else:
            results = self._run(label, shape, lambda F: F.rref_free(_dense(F, matrix)))
            self._settle("pivot columns", label, shape, results)
            self._held[label] = (results[0][0], {F.key: free for F, (_, free) in zip(fields, results)})
        pivots, free = self._held[label]
        if op == "rref":
            return SubspaceBasis(
                shape[1], pivots, {F.key: reduced_rows(F, pivots, free[F.key], shape[1]) for F in fields}
            )
        rows = {F.key: kernel_rows(F, pivots, free[F.key], shape[1]) for F in fields}
        if op == "annihilator":
            return len(pivots), rows
        return self.echelon_payload(rows, label + "/kernel")

    # -- public entry points ------------------------------------------------
    # Three ops, each taking a COO or a payload. Each has a second name bound
    # to it, because perfbench/trace_layers.py patches and counts every name
    # apart; callers keep the name that says what they pass. The annihilator
    # and the derived rank serve JacobianContext alone.

    def rank_coo(self, matrix: IntCOO | Payload, label: str) -> int:
        return self._eliminate("rank", matrix, label)

    def echelon_coo(self, matrix: IntCOO | Payload, label: str) -> SubspaceBasis:
        return self._eliminate("rref", matrix, label)

    def kernel_coo(self, matrix: IntCOO | Payload, label: str) -> SubspaceBasis:
        """Echelonized kernel basis of the map x -> M x for each realization."""
        return self._eliminate("kernel", matrix, label)

    def annihilator_coo(self, matrix: IntCOO, label: str) -> tuple[int, dict[str, np.ndarray]]:
        """The rank of M, recorded under ``label``, and per field key the
        ``kernel_rows`` of x -> M x, not echelonized: for a generator matrix,
        the functionals vanishing on its row space. Written from the label's
        held elimination, as an echelon of it is."""
        return self._eliminate("annihilator", matrix, label)

    def derived_rank(
        self, label: str, shape: tuple[int, int], step: Callable[[Realization], tuple[int, np.ndarray]]
    ) -> tuple[int, dict[str, np.ndarray]]:
        """Record under ``label`` the rank of a ``shape`` matrix that is never
        made: ``step(F)`` gives it, with rows of the caller's choosing, in
        each realization from what the caller holds, through F's own ops and
        outside the ledger. The size cap and the agreement check are those of
        an elimination. Returns the rank and the rows per field key."""
        _check_size(label, shape)
        results = [step(F) for F in self.field.realizations]
        rank = self._settle("rank", label, shape, results)
        return rank, {F.key: rows for F, (_, rows) in zip(self.field.realizations, results)}

    rank_payload, echelon_payload, kernel_payload = rank_coo, echelon_coo, kernel_coo


def _check_size(label: str, shape: tuple[int, int]) -> None:
    """Raise ``NoStabilization`` for a matrix of more than ``_ENTRY_CAP``
    entries, before any of it is made."""
    if shape[0] * shape[1] > _ENTRY_CAP:
        size = f"{shape[0]} x {shape[1]} ({shape[0] * shape[1]} entries)"
        raise NoStabilization(f"the matrix {label!r} is {size}, past the feasible size cap of {_ENTRY_CAP}")


def _payload_shape(payload: Payload, label: str) -> tuple[int, int]:
    """The one shape of a payload's matrices; raises ``InconsistentResult``
    unless they are all 2-D and of one shape."""
    shapes = {np.shape(matrix) for matrix in payload.values()}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise InconsistentResult(f"payload {label!r} holds matrices of shapes {sorted(shapes)}")
    return shapes.pop()
