"""Top graded pieces of the Hodge filtration on primitive cohomology.

For a nodal hypersurface the top piece is always a quotient-algebra slice;
the next piece depends on the ambient dimension:

* n = 3: the degree-(2d-4) slice of the saturation modulo the ideal slice
  (surfaces see the nodes through the saturation),
* n = 4: not identified by the certified statements — reported as absent,
* n >= 5: again a plain quotient-algebra slice.

``ideal_of_points_dim`` is the comparison target for the n = 3 case: the
dimension of the degree-k vanishing ideal of the node set, computed from
the rank of the point-evaluation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .assembly import jacobian_generator_coo
from .errors import MixedParameters
from .milnor import JacobianContext, saturation_graded
from .monomials import monomial_basis, space_dim
from .nodal import ProjectivePoint
from .polynomials import HomogeneousPolynomial


@dataclass(frozen=True)
class HodgeGradedDims:
    n: int
    d: int
    gr_top: int
    gr_next: int | None  # None: not identified for this ambient dimension

    @property
    def next_absent(self) -> bool:
        return self.gr_next is None


def hodge_graded_dims(ctx: JacobianContext) -> HodgeGradedDims:
    """Dimensions of the top two graded pieces of the Hodge filtration on
    the primitive middle cohomology of a nodal hypersurface."""
    n, d = ctx.n, ctx.d
    gr_top = ctx.milnor_dim(d - n - 1)
    if n == 4:
        gr_next = None
    elif n == 3:
        sat = saturation_graded(ctx, 2 * d - 4)
        gr_next = sat.dim - ctx.jacobian_dim(2 * d - 4)
    else:
        gr_next = ctx.milnor_dim(2 * d - n - 1)
    return HodgeGradedDims(n, d, gr_top, gr_next)


def ideal_of_points_dim(
    ctx: JacobianContext, points: Sequence[ProjectivePoint], k: int
) -> int:
    """Dimension of the degree-k part of the vanishing ideal of the points:
    dim S_k minus the rank of the evaluation matrix, whose row for a point
    P is the polynomial sum_u P^u x^u over the degree-k monomials u."""
    n = ctx.n
    N = space_dim(n, k)
    if not points:
        return N
    if any(pt.n != n for pt in points):
        raise ValueError("point dimension mismatch")
    basis = monomial_basis(n, k)
    rows = []
    for pt in points:
        # P = (integer coordinates) / den, so P^u = (integer product) / den^k
        den = math.lcm(*(c.denominator for c in pt.coords))
        powers = [[int(c * den) ** e for e in range(k + 1)] for c in pt.coords]
        den_k = den**k
        values = {u: Fraction(math.prod(p[e] for p, e in zip(powers, u)), den_k) for u in basis}
        rows.append(HomogeneousPolynomial.make(n, k, values))
    rank = ctx.engine.rank_coo(jacobian_generator_coo(rows, k), f"ideal-points/{k}/{ctx.next_tag('ideal-points')}")
    return N - rank


def corollary_constancy_check(
    items: Sequence[tuple[int, HodgeGradedDims]]
) -> bool:
    """Whether the graded dimensions are constant within each node-count
    group. All entries must share one (n, d); otherwise MixedParameters."""
    if not items:
        return True
    params = {(dims.n, dims.d) for _, dims in items}
    if len(params) > 1:
        raise MixedParameters(f"inputs mix parameters: {sorted(params)}")
    groups: dict[int, set[tuple[int, int | None]]] = {}
    for count, dims in items:
        groups.setdefault(count, set()).add((dims.gr_top, dims.gr_next))
    return all(len(vals) == 1 for vals in groups.values())
