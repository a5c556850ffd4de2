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

  Both routes rank these degrees. The literal route (small inputs) also
  ranks one degree more, T+2 or K+2; the argument does not need it, and
  it is kept so a literal certificate's rank ledger still holds that
  slice. Any h != m gives a Failed verdict, never a weaker claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from . import exact
from .errors import DegeneratePoint, NotSingular, ParseError
# tjurina_count is not called here, but perfbench/trace_layers.py traces it
# under this module's name (tests/test_trace_layers.py runs that tracer)
from .milnor import JacobianContext, tjurina_count  # noqa: F401
from .monomials import space_dim
from .polynomials import HomogeneousPolynomial, partial_derivatives

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


def is_singular_at(f: HomogeneousPolynomial, pt: ProjectivePoint) -> bool:
    """Exact check that every partial derivative vanishes at the point
    (which by the Euler relation forces f itself to vanish there)."""
    return all(g.evaluate(pt.coords) == 0 for g in partial_derivatives(f))


def hessian_rank_at(f: HomogeneousPolynomial, pt: ProjectivePoint) -> int:
    """Exact rank of the chart Hessian at a singular point.

    The chart drops the first coordinate with a nonzero value (normalized
    to 1); the remaining n x n matrix of second partials evaluated at the
    point is the Hessian of the local equation. Rank n means an ordinary
    node. Raises NotSingular at smooth points.
    """
    if not is_singular_at(f, pt):
        raise NotSingular(f"point {pt.to_text()} is not a singular point")
    n = f.n
    chart = next(i for i, c in enumerate(pt.coords) if c != 0)
    firsts = partial_derivatives(f)
    seconds = [partial_derivatives(g) for g in firsts]
    idx = [i for i in range(n + 1) if i != chart]
    rows = [[seconds[i][j].evaluate(pt.coords) for j in idx] for i in idx]
    return exact.bareiss_rank(rows)


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
