"""Multiplication pairing and period-differential certificates.

The central object is the multiplication pairing

    (S/J)_(d-n-1)  x  (S/J)_d  ->  (S/J)_(2d-n-1)

realized as one matrix: a column per standard monomial class of degree d, a
row per (degree-(d-n-1) standard monomial, coordinate of the target class)
pair, rows flattened source-major. Full column rank means multiplication by
classes of degree d acts injectively — the paper-level statement this
package certifies on nodal inputs.

The period differential is the same pairing restricted to an effective
deformation subspace V of S_d, with the sign flipped (the differential of
the period map is minus the multiplication action); its certificate demands
full column rank on V after checking V really is effective (meets the
degree-d ideal slice only in zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assembly import coo_vstack, jacobian_generator_coo
from .errors import DegreeTooSmall, NotEffective, UnsupportedDimension
from .linalg import SubspaceBasis
from .milnor import JacobianContext, _multiplication_payload
from .monomials import monomial_basis
from .polynomials import HomogeneousPolynomial


def quotient_basis(ctx: JacobianContext, k: int) -> tuple[tuple[int, ...], ...]:
    """Standard-monomial basis (exponent tuples) of the degree-k quotient:
    the monomials at the standard columns of the degree-k quotient table
    (``JacobianContext.standard_columns``), the non-pivot columns of the
    ideal slice's echelon basis."""
    mons = monomial_basis(ctx.n, k)
    return tuple(mons[g] for g in ctx.standard_columns(k))


def pairing_matrix(ctx: JacobianContext) -> tuple[dict[str, np.ndarray], tuple[int, int]]:
    """Matrix of the multiplication pairing (per field key) with shape
    (q_(d-n-1) * q_(2d-n-1), q_d); raises DegreeTooSmall when d < n + 1."""
    if ctx.d < ctx.n + 1:
        raise DegreeTooSmall(
            f"pairing needs degree >= n+1 = {ctx.n + 1}, got {ctx.d}"
        )
    n, d = ctx.n, ctx.d
    k2 = 2 * d - n - 1
    QR2 = ctx.quotient_reduction(k2)
    src = _expos(quotient_basis(ctx, d - n - 1), n)
    mid = _expos(quotient_basis(ctx, d), n)
    payload = _multiplication_payload(QR2, src, mid, n, k2)
    return payload, next(iter(payload.values())).shape


def pairing_injective(ctx: JacobianContext) -> bool:
    """Whether multiplication by degree-d classes is injective: the pairing
    matrix has full column rank q_d."""
    payload, _ = pairing_matrix(ctx)
    rank = ctx.engine.rank_payload(payload, "pairing")
    return rank == ctx.milnor_dim(ctx.d)


def variable_multiplication_kernel(ctx: JacobianContext, t: int) -> SubspaceBasis:
    """Kernel of v -> (x_0 v, ..., x_n v) on the degree-t quotient classes,
    in standard-monomial coordinates of the degree-t quotient."""
    n = ctx.n
    std = _expos(quotient_basis(ctx, t), n)
    payload = _multiplication_payload(ctx.quotient_reduction(t + 1), np.eye(n + 1, dtype=np.int64), std, n, t + 1)
    return ctx.engine.kernel_payload(payload, f"varmul/{t}")


def effective_deformation_check(ctx: JacobianContext, V: Sequence[HomogeneousPolynomial]) -> bool:
    """Whether span(V) inside S_d meets the degree-d ideal slice only in
    zero (and V itself is independent): rank [ideal gens ; V] must equal
    dim J_d + |V|."""
    d = ctx.d
    if not V:
        raise ValueError("the deformation subspace is empty")
    for g in V:
        if g.is_zero or g.degree != d or g.n != ctx.n:
            raise ValueError("deformation entries must be nonzero of degree d in the same variables")
    generators = ctx.generator_coo(d)
    v_coo = jacobian_generator_coo(V, d)
    v_rank = ctx.engine.rank_coo(v_coo, f"deformation-span/{ctx.next_tag('deformation')}")
    stacked = coo_vstack([generators, v_coo])
    total = ctx.engine.rank_coo(stacked, f"deformation-stack/{ctx.next_tag('deformation')}")
    return v_rank == len(V) and total == ctx.jacobian_dim(d) + len(V)


@dataclass(frozen=True)
class PeriodDifferentialResult:
    payload: dict[str, np.ndarray]
    rank: int
    dim_v: int

    @property
    def shape(self) -> tuple[int, int]:
        return next(iter(self.payload.values())).shape

    @property
    def injective(self) -> bool:
        return self.rank == self.dim_v


def period_differential(
    ctx: JacobianContext, V: Sequence[HomogeneousPolynomial]
) -> PeriodDifferentialResult:
    """Matrix of the period-map differential on the deformation subspace V:
    minus the multiplication pairing evaluated on each element of V.

    Supported ambient dimensions are n >= 3 odd and n >= 6 even; n = 4 (and
    every n < 3) raises UnsupportedDimension. V must pass the effectiveness
    check or NotEffective is raised.
    """
    n, d = ctx.n, ctx.d
    if n < 3 or n == 4:
        raise UnsupportedDimension(f"period differential not certified for n = {n}")
    if d < n + 1:
        raise DegreeTooSmall(f"pairing needs degree >= n+1 = {n + 1}, got {d}")
    if not effective_deformation_check(ctx, V):
        raise NotEffective("deformation subspace meets the degree-d ideal slice")
    k2 = 2 * d - n - 1
    # one column per term of V, then each element's columns summed
    expos = [e for g in V for e in g.terms]
    coeffs = [c for g in V for c in g.terms.values()]
    starts = np.cumsum([0] + [len(g.terms) for g in V[:-1]])
    by_term = _multiplication_payload(
        ctx.quotient_reduction(k2), _expos(quotient_basis(ctx, d - n - 1), n), _expos(expos, n), n, k2
    )
    payload = {
        F.key: F.normalize(-np.add.reduceat(F.normalize(by_term[F.key] * F.convert(coeffs)), starts, axis=1))
        for F in ctx.field.realizations
    }
    rank = ctx.engine.rank_payload(payload, f"period-differential/{ctx.next_tag('deformation')}")
    return PeriodDifferentialResult(payload, rank, len(V))


def _expos(monomials: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    return np.array(monomials, dtype=np.int64).reshape(len(monomials), n + 1)
