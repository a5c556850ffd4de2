"""Field-dispatched exact linear algebra with a per-run rank ledger.

The engine runs every elimination in each configured field realization and
insists the answers agree:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import _kernels, exact
from .assembly import IntCOO
from .errors import FieldDisagreement, InconsistentResult
from .field import FieldConfig, fraction_mod
from .monomials import space_dim

Payload = Mapping[str, object]


@dataclass(frozen=True)
class AmbientSpace:
    """Names the coordinate system a subspace lives in."""

    kind: str  # "graded" | "graded-sum" | "abstract"
    n: int
    degree: int
    copies: int = 1
    dim_override: int = -1

    @property
    def dim(self) -> int:
        if self.dim_override >= 0:
            return self.dim_override
        return self.copies * space_dim(self.n, self.degree)

    @staticmethod
    def graded(n: int, degree: int) -> "AmbientSpace":
        return AmbientSpace("graded", n, degree)

    @staticmethod
    def graded_sum(n: int, degree: int, copies: int) -> "AmbientSpace":
        return AmbientSpace("graded-sum", n, degree, copies)

    @staticmethod
    def abstract(dim: int) -> "AmbientSpace":
        return AmbientSpace("abstract", -1, -1, 1, dim)


@dataclass(frozen=True)
class SubspaceBasis:
    """Reduced-echelon basis of a subspace, one payload per field key.

    ``pivots`` are the echelon pivot columns (shared across keys — the
    engine refuses to build a basis whose realizations disagree). Payload
    rows are int64 arrays for prime keys and Fraction row tuples for the
    exact key; in either case row t has a unit at pivots[t] and zeros at the
    other pivot columns.
    """

    ambient: AmbientSpace
    pivots: tuple[int, ...]
    payload: Mapping[str, object]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> tuple[int, ...]:
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ambient.dim) if c not in pivset)


@dataclass(frozen=True)
class RankRecord:
    rows: int
    cols: int
    rank: int


def exact_vector_mod(vec: Sequence[Fraction], p: int) -> np.ndarray:
    return np.array([fraction_mod(Fraction(v), p) for v in vec], dtype=np.int64)


def exact_rows_mod(rows: Sequence[Sequence[Fraction]], p: int) -> np.ndarray:
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    return np.array([[fraction_mod(Fraction(v), p) for v in row] for row in rows], dtype=np.int64)


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
            raise RuntimeError(f"ledger label {label!r} reused with a different result: {old} vs {rec}")
        self.rank_ledger[label] = rec

    def _agree(self, label: str, results: dict[str, object], what: str) -> object:
        vals = list(results.values())
        first = vals[0]
        if any(v != first for v in vals):
            raise FieldDisagreement(
                f"{what} for {label!r} differs across fields: "
                + ", ".join(f"{k}={v!r}" for k, v in results.items())
            )
        return first

    def _dense_for_key(self, coo: IntCOO, key: str):
        if key == "exact":
            return coo.dense_int_rows()
        p = int(key.split(":", 1)[1])
        return coo.dense_mod(p)

    # -- ranks ------------------------------------------------------------

    def rank_coo(self, coo: IntCOO, label: str) -> int:
        cached = self._cached_rank(label, coo.shape)
        if cached is not None:
            return cached
        ranks: dict[str, object] = {}
        for key in self.field.keys:
            if key == "exact":
                ranks[key] = exact.bareiss_rank(coo.dense_int_rows())
            else:
                p = int(key.split(":", 1)[1])
                ranks[key] = _kernels.rank_mod(coo.dense_mod(p), p)
        rank = int(self._agree(label, ranks, "rank"))
        self._record(label, coo.shape[0], coo.shape[1], rank)
        return rank

    def rank_payload(self, payload: Payload, shape: tuple[int, int], label: str) -> int:
        cached = self._cached_rank(label, shape)
        if cached is not None:
            return cached
        ranks: dict[str, object] = {}
        for key in self.field.keys:
            mat = payload[key]
            if key == "exact":
                ranks[key] = exact.bareiss_rank(mat)  # type: ignore[arg-type]
            else:
                p = int(key.split(":", 1)[1])
                ranks[key] = _kernels.rank_mod(np.array(mat, dtype=np.int64, copy=True), p)
        rank = int(self._agree(label, ranks, "rank"))
        self._record(label, shape[0], shape[1], rank)
        return rank

    # -- echelon bases ------------------------------------------------------

    def _echelon_payloads(self, payload: Payload, label: str) -> tuple[tuple[int, ...], dict[str, object]]:
        pivs: dict[str, object] = {}
        rows_out: dict[str, object] = {}
        for key in self.field.keys:
            mat = payload[key]
            if key == "exact":
                ech, pivots = exact.rref_fraction(mat)  # type: ignore[arg-type]
                pivs[key] = tuple(pivots)
                rows_out[key] = ech
            else:
                p = int(key.split(":", 1)[1])
                dense = np.array(mat, dtype=np.int64, copy=True)
                if dense.ndim != 2:
                    dense = dense.reshape(0, 0)
                rank, pivots = _kernels.rref_mod(dense, p)
                pivs[key] = tuple(int(c) for c in pivots)
                rows_out[key] = dense[:rank].copy()
        pivots = self._agree(label, pivs, "pivot columns")
        return tuple(pivots), rows_out  # type: ignore[return-value]

    def echelon_payload(self, payload: Payload, ambient: AmbientSpace, label: str) -> SubspaceBasis:
        if label in self._span_cache:
            return self._span_cache[label]
        pivots, rows_out = self._echelon_payloads(payload, label)
        self._record(label, max(self._payload_rows(payload)), ambient.dim, len(pivots))
        basis = SubspaceBasis(ambient, pivots, rows_out)
        self._span_cache[label] = basis
        return basis

    @staticmethod
    def _payload_rows(payload: Payload) -> list[int]:
        out = []
        for v in payload.values():
            out.append(len(v) if isinstance(v, (tuple, list)) else v.shape[0])  # type: ignore[union-attr]
        return out or [0]

    def echelon_coo(self, coo: IntCOO, ambient: AmbientSpace, label: str) -> SubspaceBasis:
        if label in self._span_cache:
            return self._span_cache[label]
        payload = {key: self._dense_for_key(coo, key) for key in self.field.keys}
        pivots, rows_out = self._echelon_payloads(payload, label)
        self._record(label, coo.shape[0], coo.shape[1], len(pivots))
        basis = SubspaceBasis(ambient, pivots, rows_out)
        self._span_cache[label] = basis
        return basis

    def echelon_exact_rows(
        self, rows: Sequence[Sequence[Fraction]], ambient: AmbientSpace, label: str
    ) -> SubspaceBasis:
        payload: dict[str, object] = {}
        for key in self.field.keys:
            if key == "exact":
                payload[key] = tuple(tuple(Fraction(v) for v in row) for row in rows)
            else:
                p = int(key.split(":", 1)[1])
                payload[key] = exact_rows_mod(rows, p)
        return self.echelon_payload(payload, ambient, label)

    # -- kernels ------------------------------------------------------------

    def kernel_payload(self, payload: Payload, shape: tuple[int, int], ambient: AmbientSpace, label: str) -> SubspaceBasis:
        """Echelonized kernel basis of the map x -> M x for each realization."""
        if label in self._span_cache:
            return self._span_cache[label]
        if ambient.dim != shape[1]:
            raise InconsistentResult(
                f"kernel {label!r}: ambient dimension {ambient.dim} differs from the map's {shape[1]} columns"
            )
        kernels: dict[str, object] = {}
        map_pivs: dict[str, object] = {}
        for key in self.field.keys:
            mat = payload[key]
            if key == "exact":
                ech, pivots = exact.rref_fraction(mat)  # type: ignore[arg-type]
                map_pivs[key] = tuple(pivots)
                kernels[key] = exact.kernel_from_rref_fraction(ech, tuple(pivots), shape[1])
            else:
                p = int(key.split(":", 1)[1])
                dense = np.array(mat, dtype=np.int64, copy=True)
                rank, pivots = _kernels.rref_mod(dense, p)
                map_pivs[key] = tuple(int(c) for c in pivots)
                kernels[key] = _kernels.kernel_from_rref(dense[:rank], pivots, shape[1], p)
        map_pivots = self._agree(label, map_pivs, "pivot columns")
        self._record(label, shape[0], shape[1], len(map_pivots))  # type: ignore[arg-type]
        basis = self.echelon_payload(kernels, ambient, label + "/kernel")
        self._span_cache[label] = basis
        return basis

    def kernel_coo(self, coo: IntCOO, ambient: AmbientSpace, label: str) -> SubspaceBasis:
        payload = {key: self._dense_for_key(coo, key) for key in self.field.keys}
        return self.kernel_payload(payload, coo.shape, ambient, label)


# ---------------------------------------------------------------------------
# basis-level operations (engine-independent; work on any SubspaceBasis)
# ---------------------------------------------------------------------------


def reduce_against_basis(basis: SubspaceBasis, vec: Sequence[Fraction]) -> dict[str, object]:
    """Residual of an exact vector after eliminating pivot coordinates, per key."""
    out: dict[str, object] = {}
    for key, rows in basis.payload.items():
        if key == "exact":
            out[key] = exact.reduce_vector(rows, basis.pivots, vec)  # type: ignore[arg-type]
        else:
            p = int(key.split(":", 1)[1])
            res = exact_vector_mod(vec, p)
            arr = rows  # type: ignore[assignment]
            for t, pc in enumerate(basis.pivots):
                f = int(res[pc])
                if f:
                    res = (res + (p - f) * arr[t]) % p  # type: ignore[operator]
            out[key] = res
    return out


def membership(basis: SubspaceBasis, vec: Sequence[Fraction]) -> bool:
    """Whether the exact vector lies in the subspace (agreement enforced)."""
    answers = {}
    for key, res in reduce_against_basis(basis, vec).items():
        if key == "exact":
            answers[key] = all(v == 0 for v in res)  # type: ignore[union-attr]
        else:
            answers[key] = not np.any(res)  # type: ignore[arg-type]
    vals = set(answers.values())
    if len(vals) > 1:
        raise FieldDisagreement(f"membership differs across fields: {answers}")
    return vals.pop()


def quotient_coordinates(basis: SubspaceBasis, vec: Sequence[Fraction]) -> dict[str, object]:
    """Coordinates of the class of vec over the standard complement basis
    (the non-pivot coordinates), one vector per field key."""
    free = basis.free_columns()
    out: dict[str, object] = {}
    for key, res in reduce_against_basis(basis, vec).items():
        if key == "exact":
            out[key] = tuple(res[c] for c in free)  # type: ignore[index]
        else:
            out[key] = np.asarray(res)[list(free)].copy()  # type: ignore[index]
    return out
