"""Nodality certification: exact point-local checks plus global counting.

A certified-nodal verdict combines two ingredients:

* point-local, exact over Q: every claimed point is singular (all partials
  vanish) and has a full-rank chart Hessian — an ordinary node.
* global, over the configured fields: the m claimed points exhaust the
  singular locus. One argument, Gotzmann's persistence theorem, shows it
  from the quotient dimensions h(k) of S/J at a fixed list of degrees.

  - m = 0: h(T+1) = 0 one past the socle degree T means the ideal slice
    is everything, so the partials have no common zero.
  - m >= 1: h(K) = h(K+1) = m with K = max(T, m). Since m <= K, Macaulay's
    growth bound gives the ideal I generated by the degree-K slice at most
    m^<K> = m quotient dimensions in degree K+1, and at least m because
    I is inside J there. By Gotzmann's persistence theorem it has exactly
    m in every later degree, so its zero locus is a length-m subscheme. It
    contains every singular point, and the m listed points (each checked
    singular and distinct) already fill it.

  Both routes read these degrees. The literal route (small inputs) also
  reads one degree more, T+2 or K+2; the argument does not need it, and
  it is kept so a literal certificate's rank ledger still holds that
  slice. Any h != m gives a Failed verdict, never a weaker claim.

  Only the first degree's slice is eliminated (K, or T+1 for m = 0, both
  at least T), to its annihilator. Once h = m there, the later degrees
  need no computation. Every generator of the ideal vanishes at each
  verified node, so evaluation at a node is a functional killing the
  degree-(K+1) slice; the m evaluations are independent while the nodes
  stay distinct in the field, so h(K+1) >= m, and Macaulay's bound gives
  h(K+1) <= m as above. So h(K+1) = m and the slice's annihilator is the
  span of the evaluations; the same holds at K+2 from K+1. Certify hands
  the checked nodes to the context (``JacobianContext.nodes``) before it
  reads any degree, and ``quotient_reduction``, which makes every table,
  takes these spans as the tables, in canonical form, wherever the
  argument applies. Where two nodes meet modulo a prime, each later table
  is derived from the previous degree's annihilator instead, without
  building its slice (``milnor`` states both arguments). Either
  way each later h is the quotient dimension of that degree's slice in
  the same field, recorded under the slice's label and shape, so the
  argument above, its one-sided bound mod p and the rank ledger are those
  of ranking every slice.

  The point-local checks run in integers: at the primitive integer
  representative of the point, with f's common denominator cleared, each
  partial and each second partial is the rational value times one nonzero
  factor per order, so vanishing and the Hessian rank are the rational
  ones. Certify evaluates each of them once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from . import exact
from .errors import DegeneratePoint, NotSingular, ParseError
# tjurina_count is not called here, but perfbench/trace_layers.py traces it
# under this module's name (tests/test_trace_layers.py runs that tracer)
from .milnor import JacobianContext, tjurina_count  # noqa: F401
from .monomials import space_dim
from .polynomials import HomogeneousPolynomial, common_denominator_scale

_LITERAL_SCAN_LIMIT = 2000  # max dim S_(socle+2) for the literal route


@dataclass(frozen=True)
class ProjectivePoint:
    """A rational projective point, stored normalized (first nonzero
    coordinate scaled to 1)."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence[Fraction | int]):
        vals = tuple(Fraction(c) for c in coords)
        lead = next((c for c in vals if c != 0), None)
        if lead is None:
            raise DegeneratePoint("all coordinates are zero")
        object.__setattr__(self, "coords", tuple(c / lead for c in vals))

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def integers(self) -> tuple[int, ...]:
        """The primitive integer representative: the coordinates times
        their least common denominator, which share no prime factor (each
        prime of that denominator divides some coordinate's denominator
        to its full power there)."""
        den = math.lcm(*(c.denominator for c in self.coords))
        return tuple(int(c * den) for c in self.coords)

    def to_text(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


def parse_point(text: str, n: int) -> ProjectivePoint:
    """Parse "[a0 : a1 : ... : an]" with integer or fractional entries."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"point must be bracketed: {text!r}")
    parts = [p.strip() for p in s[1:-1].split(":")]
    if len(parts) != n + 1:
        raise ParseError(f"expected {n + 1} coordinates, got {len(parts)}: {text!r}")
    try:
        coords = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad coordinate in {text!r}: {e}") from None
    return ProjectivePoint(coords)


def _derivatives_at(f: HomogeneousPolynomial, pt: ProjectivePoint, orders: Sequence[Sequence[int]]) -> list[int]:
    """For each exponent vector o of ``orders``, all of one total order, the
    o-th partial derivative of f times f's common denominator, at the
    point's integer coordinates: sum over f's terms c x^e with e >= o of
    c e!/(e-o)! x^(e-o). Each is the rational value at ``pt.coords`` times
    one nonzero factor shared by all of them (the denominator and a power
    of the coordinates' scale), so vanishing and ranks are the rational
    ones."""
    scale = common_denominator_scale([f])
    powers = [[c**e for e in range(f.degree + 1)] for c in pt.integers]
    terms = [(expo, int(coeff * scale)) for expo, coeff in f.terms.items()]
    values = []
    for order in orders:
        total = 0
        for expo, c in terms:
            for pw, e, o in zip(powers, expo, order):
                if e < o:
                    break
                c *= math.perm(e, o) * pw[e - o]
            else:
                total += c
        values.append(total)
    return values


def _order(n: int, *variables: int) -> tuple[int, ...]:
    """The exponent vector of the derivative by the given variables."""
    return tuple(variables.count(t) for t in range(n + 1))


def is_singular_at(f: HomogeneousPolynomial, pt: ProjectivePoint) -> bool:
    """Exact check that every partial derivative vanishes at the point
    (which by the Euler relation forces f itself to vanish there)."""
    return not any(_derivatives_at(f, pt, [_order(f.n, i) for i in range(f.n + 1)]))


def hessian_rank_at(f: HomogeneousPolynomial, pt: ProjectivePoint) -> int:
    """Exact rank of the chart Hessian at a singular point.

    The chart drops the first coordinate with a nonzero value (normalized
    to 1); the remaining n x n matrix of second partials evaluated at the
    point is the Hessian of the local equation. Rank n means an ordinary
    node. Raises NotSingular at smooth points, which the full Hessian H
    already tells: Euler's relation gives H x = (d-1) grad f(x), so no
    first partial is evaluated here.
    """
    n = f.n
    pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    H = [[0] * (n + 1) for _ in range(n + 1)]
    for (i, j), value in zip(pairs, _derivatives_at(f, pt, [_order(n, i, j) for i, j in pairs])):
        H[i][j] = H[j][i] = value
    x = pt.integers
    if any(sum(h * c for h, c in zip(row, x)) for row in H):
        raise NotSingular(f"point {pt.to_text()} is not a singular point")
    chart = next(i for i, c in enumerate(x) if c)
    idx = [i for i in range(n + 1) if i != chart]
    return exact.bareiss_rank([[H[i][j] for j in idx] for i in idx])


@dataclass(frozen=True)
class NodalCertificate:
    kind: str  # "Nodal" | "Smooth" | "Failed"
    node_count: int
    tjurina: int | None
    route: str  # "literal" | "hilbert-persistence"
    reason: str = ""
    details: dict = dc_field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if self.kind == "Nodal":
            return f"Nodal({self.node_count})"
        return self.kind

    @property
    def passed(self) -> bool:
        return self.kind == "Nodal"


def _distinct(points: Sequence[ProjectivePoint]) -> bool:
    return len({pt.coords for pt in points}) == len(points)


def _failed(route: str, reason: str, **details) -> NodalCertificate:
    return NodalCertificate("Failed", 0, None, route, reason, dict(details))


def certify_nodal(
    ctx: JacobianContext, points: Sequence[ProjectivePoint], route: str = "auto"
) -> NodalCertificate:
    """Certify that the hypersurface is nodal with exactly the given nodes
    (empty points = claim smoothness). See the module docstring for the
    argument and the degrees each route ranks; "auto" picks the literal
    route when dim S_(socle+2) is small."""
    n = ctx.n
    if route == "auto":
        route = (
            "literal"
            if space_dim(n, ctx.socle + 2) <= _LITERAL_SCAN_LIMIT
            else "hilbert-persistence"
        )
    if route not in ("literal", "hilbert-persistence"):
        raise ValueError(f"unknown certification route {route!r}")
    if any(pt.n != n for pt in points):
        return _failed(route, "point dimension mismatch")
    if not _distinct(points):
        return _failed(route, "listed points are not pairwise distinct")
    for pt in points:
        if not is_singular_at(ctx.f, pt):
            return _failed(route, f"listed point {pt.to_text()} is not singular")
        hrank = hessian_rank_at(ctx.f, pt)
        if hrank != n:
            return _failed(
                route,
                f"listed point {pt.to_text()} has chart Hessian rank {hrank} != {n}",
            )
    ctx.nodes = [pt.integers for pt in points]
    m = len(points)
    K = max(ctx.socle, m)
    degrees = [ctx.socle + 1] if m == 0 else [K, K + 1]
    if route == "literal":
        degrees.append(degrees[-1] + 1)
    over = ctx.slice_over_cap(degrees[-1])
    if over:
        return _failed(route, over)
    for i, k in enumerate(degrees):
        h = ctx.milnor_dim(k)
        if h != m:
            found = {f"h{i}": h, "degree": k} if m else {"quotient": h}
            return _failed(route, f"quotient dimension {h} != {m} at degree {k}", **found)
    details = {"degree": degrees[0], "h0": m, "h1": m} if m else {"degree": degrees[0]}
    return NodalCertificate(
        "Nodal" if m else "Smooth", m, m, route, details={} if route == "literal" else details
    )
