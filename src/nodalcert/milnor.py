"""Graded invariants of the partial-derivative ideal of a hypersurface.

Everything here reduces to ranks of structured integer matrices: the
degree-k slice of the ideal spanned by the partials is the row space of a
generator matrix, the quotient algebra dimension is the codimension, and
the saturation slice is the kernel of "multiply by every monomial of one
fixed degree chosen to land past the socle, then reduce mod the ideal".

The smooth reference sequence — the coefficients of ((1-t^(d-1))/(1-t))^(n+1)
— is the Hilbert function every smooth hypersurface of the same (n, d)
realizes; comparing against it detects and quantifies singularity.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from . import linalg
from .assembly import IntCOO, jacobian_generator_coo
from .errors import InconsistentResult, NoStabilization
from .field import FieldConfig
from .linalg import LinearEngine, SubspaceBasis, kernel_rows
from .monomials import exponent_matrix, monomial_rank_rows, space_dim
from .polynomials import HomogeneousPolynomial, partial_derivatives


# Returned by coincidence_threshold when no deviation exists through the
# socle degree plus one: the Hilbert-function signature of a smooth
# hypersurface.
SMOOTH = "Smooth"


def socle_degree(n: int, d: int) -> int:
    return (n + 1) * (d - 2)


@lru_cache(maxsize=None)
def _smooth_reference_series(n: int, d: int) -> tuple[int, ...]:
    """Coefficients of (1 + t + ... + t^(d-2))^(n+1)."""
    base = [1] * (d - 1)
    out = [1]
    for _ in range(n + 1):
        new = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(base):
                    new[i + j] += a * b
        out = new
    return tuple(out)


def smooth_reference_dim(n: int, d: int, k: int) -> int:
    """Dimension of the degree-k Milnor algebra slice of any smooth
    degree-d hypersurface in P^n."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if k < 0:
        return 0
    series = _smooth_reference_series(n, d)
    return series[k] if k < len(series) else 0


def _empty_rows(field: FieldConfig, ncols: int) -> dict[str, np.ndarray]:
    return {F.key: np.zeros((0, ncols), dtype=F.dtype) for F in field.realizations}


class JacobianContext:
    """Caches bases, dimensions, and quotient-reduction tables for one
    hypersurface over one field configuration. Generator matrices are not
    cached: each use assembles its slice again, so no slice outlives the
    elimination that needs it.

    Single-threaded by design for its callers: parallel drivers give each
    worker its own context. (Inside one rank call the engine may rank the
    second prime in a child process it forks; see ``linalg``.) The engine's
    rank ledger accumulates every elimination run through this context, in
    order, for replay comparisons.
    """

    def __init__(self, f: HomogeneousPolynomial, field: FieldConfig | None = None):
        if f.is_zero or f.degree < 2:
            raise ValueError("expected a homogeneous polynomial of degree >= 2")
        self.f = f
        self.n = f.n
        self.d = f.degree
        self.field = field or FieldConfig.prime_pair()
        self.field.check_degree_bound(self.n, self.d)
        self.engine = LinearEngine(self.field)
        self.partials = partial_derivatives(f)
        self._monomial_partials = all(len(g.terms) <= 1 for g in self.partials)
        self._dims: dict[int, int] = {}
        self._qr: dict[int, dict[str, np.ndarray]] = {}
        self._tags: Counter[str] = Counter()

    def next_tag(self, kind: str) -> int:
        """The next ledger tag of ``kind`` (1, 2, ...): distinct labels for
        the successive checks of one kind on this context."""
        self._tags[kind] += 1
        return self._tags[kind]

    # -- raw ideal slices ---------------------------------------------------

    def generator_coo(self, k: int) -> IntCOO:
        return jacobian_generator_coo(self.partials, k)

    def slice_over_cap(self, k: int) -> str:
        """Why the degree-k generator matrix is too large to assemble and
        rank, or "" when its dense entry count is within the engine's cap
        (``linalg._ENTRY_CAP``). Checked before any matrix is assembled, by
        every caller that scans degrees upward: certification,
        tjurina_count and the hilbert command's probe."""
        rows, cols = (self.n + 1) * space_dim(self.n, k - self.d + 1), space_dim(self.n, k)
        if rows * cols <= linalg._ENTRY_CAP:
            return ""
        return f"the degree-{k} ideal slice is {rows} x {cols} ({rows * cols} entries), past the feasible size cap"

    def _monomial_dim(self, k: int) -> int:
        """Monomial-ideal fast path: count degree-k monomials divisible by
        at least one (monomial) partial."""
        E = exponent_matrix(self.n, k)
        hit = np.zeros(E.shape[0], dtype=bool)
        for g in self.partials:
            if g.is_zero:
                continue
            expo = next(iter(g.terms))
            ge = np.array(expo, dtype=np.int64)
            hit |= np.all(E >= ge[None, :], axis=1)
        return int(hit.sum())

    def jacobian_dim(self, k: int) -> int:
        """Dimension of the degree-k slice of the partials' ideal."""
        if k < self.d - 1:
            return 0
        if k in self._dims:
            return self._dims[k]
        if self._monomial_partials:
            dim = self._monomial_dim(k)
        else:
            dim = self.engine.rank_coo(self.generator_coo(k), f"jacobian/{k}")
        self._dims[k] = dim
        return dim

    def jacobian_basis(self, k: int) -> SubspaceBasis:
        """Echelonized basis of the degree-k ideal slice."""
        if k < self.d - 1:
            return self.engine.echelon_payload(_empty_rows(self.field, space_dim(self.n, k)), f"jacobian/{k}")
        basis = self.engine.echelon_coo(self.generator_coo(k), f"jacobian/{k}")
        self._dims.setdefault(k, basis.dim)
        return basis

    def milnor_dim(self, k: int) -> int:
        """Hilbert function of the quotient algebra at degree k."""
        if k < 0:
            return 0
        return space_dim(self.n, k) - self.jacobian_dim(k)

    def smooth_dim(self, k: int) -> int:
        return smooth_reference_dim(self.n, self.d, k)

    @property
    def socle(self) -> int:
        return socle_degree(self.n, self.d)

    # -- quotient reduction tables --------------------------------------------

    def quotient_reduction(self, k: int) -> dict[str, np.ndarray]:
        """Per-field table (N_k x q_k) sending a monomial index to the
        coordinates of its class over the standard complement monomials of
        the degree-k ideal slice. A pivot row of the slice's reduced echelon
        form writes its pivot monomial through the complement, so the table
        is the transpose of that form's kernel rows."""
        if k not in self._qr:
            basis = self.jacobian_basis(k)
            self._qr[k] = {
                F.key: np.ascontiguousarray(kernel_rows(F, basis.pivots, basis.payload[F.key]).T)
                for F in self.field.realizations
            }
        return self._qr[k]


# ---------------------------------------------------------------------------
# Hilbert-function scans
# ---------------------------------------------------------------------------


def coincidence_threshold(ctx: JacobianContext) -> int | str:
    """Largest degree through which the quotient Hilbert function matches
    the smooth reference; ``SMOOTH`` if they agree through the socle
    degree plus one (after which both vanish identically)."""
    top = ctx.socle + 1
    for k in range(top + 1):
        if ctx.milnor_dim(k) != ctx.smooth_dim(k):
            if k == 0:
                raise ValueError("Hilbert functions differ already at degree 0")
            return k - 1
    return SMOOTH


def dims_match_reference_through(ctx: JacobianContext, q: int) -> bool:
    """Whether the quotient Hilbert function equals the smooth reference for
    every degree <= q (a one-sided, cheap bound on coincidence_threshold)."""
    return all(ctx.milnor_dim(k) == ctx.smooth_dim(k) for k in range(q + 1))


def tjurina_count(ctx: JacobianContext) -> int:
    """Stabilized value of the quotient Hilbert function: scan upward from
    the socle degree until three consecutive degrees agree. Raises
    NoStabilization before assembling a slice past the size cap."""
    bound = ctx.socle + 3 * ctx.d
    k = ctx.socle
    while k + 2 <= bound:
        over = ctx.slice_over_cap(k + 2)
        if over:
            raise NoStabilization(over)
        a, b, c = ctx.milnor_dim(k), ctx.milnor_dim(k + 1), ctx.milnor_dim(k + 2)
        if a == b == c:
            return a
        k += 1
    raise NoStabilization(f"quotient dimensions did not stabilize by degree {bound}")


# ---------------------------------------------------------------------------
# degreewise saturation
# ---------------------------------------------------------------------------


def _colon_step_kernel(
    ctx: JacobianContext, W: SubspaceBasis, k0: int, m: int, label: str
) -> SubspaceBasis:
    """Vectors v in the standard complement of W (inside S_k0) with
    v * (every degree-m monomial) inside the ideal slice at k0 + m.

    Returned in ambient S_k0 coordinates (complement columns lifted back).
    """
    n = ctx.n
    free = np.array(W.free_columns(), dtype=np.int64)
    if len(free) == 0:
        return ctx.engine.echelon_payload(_empty_rows(ctx.field, W.ncols), label + "/empty")
    # column u stacks the classes of u * b over the degree-m monomials b
    payload = _multiplication_payload(
        ctx.quotient_reduction(k0 + m), exponent_matrix(n, m), exponent_matrix(n, k0)[free], n, k0 + m
    )
    ker = ctx.engine.kernel_payload(payload, label)
    # lift kernel rows from complement coordinates back into S_k0
    lifted = {}
    for key, rows in ker.payload.items():
        lifted[key] = np.zeros((len(rows), W.ncols), dtype=rows.dtype)
        lifted[key][:, free] = rows
    return ctx.engine.echelon_payload(lifted, label + "/lifted")


def _multiplication_payload(
    QR: dict[str, np.ndarray], shifts: np.ndarray, expos: np.ndarray, n: int, k: int
) -> dict[str, np.ndarray]:
    """Per-field matrix with a column per monomial of ``expos`` and a row
    per (shift, class coordinate) pair, rows flattened shift-major: the
    entry is the coordinate of x^(shift + expo) in the degree-k quotient
    table QR. No matrix shares memory with QR."""
    ns, ne = len(shifts), len(expos)
    ranks = monomial_rank_rows((shifts[:, None, :] + expos[None, :, :]).reshape(ns * ne, n + 1), n, k)
    q = next(iter(QR.values())).shape[1]  # the number of standard monomials
    return {
        key: table[ranks].reshape(ns, ne, q).transpose(0, 2, 1).reshape(ns * q, ne)
        for key, table in QR.items()
    }


_SATURATION_DIM_CAP = 5000


def saturation_graded(ctx: JacobianContext, k: int) -> SubspaceBasis:
    """Degree-k slice of the saturation {v : v * S_m inside the ideal, m >> 0}.

    For an ideal whose zero locus is a finite set of points, the ideal slice
    equals its saturation slice in every degree past the socle degree (the
    quotient Hilbert function is constant there and the ideal is squeezed
    against the vanishing ideal of the points).  A single colon step into
    that stable range therefore captures the whole saturation slice: v is in
    the saturation iff v * (every degree-M monomial) lands in the ideal,
    with M chosen so k + M is past the socle.  Intermediate chain levels
    {v : v * S_m in the ideal} for smaller m can be strictly smaller, so no
    stationarity heuristic on the chain is sound.
    """
    stab = socle_degree(ctx.n, ctx.d) + 1
    if k >= stab:
        return ctx.jacobian_basis(k)
    if space_dim(ctx.n, stab) > _SATURATION_DIM_CAP:
        raise NoStabilization(
            f"saturation at degree {k} needs the degree-{stab} ideal slice "
            f"({space_dim(ctx.n, stab)} columns), past the feasible size cap"
        )
    M = stab - k
    W = ctx.jacobian_basis(k)
    ker = _colon_step_kernel(ctx, W, k, M, f"saturation/{k}/colon{M}")
    if ker.dim:
        W = _basis_union(ctx, W, ker, f"saturation/{k}/union")
    return W


def _basis_union(
    ctx: JacobianContext, a: SubspaceBasis, b: SubspaceBasis, label: str
) -> SubspaceBasis:
    if a.ncols != b.ncols:
        raise InconsistentResult(f"basis union {label!r}: bases of {a.ncols} and {b.ncols} coordinates")
    payload = {key: np.vstack([a.payload[key], b.payload[key]]) for key in a.payload}
    return ctx.engine.echelon_payload(payload, label)
