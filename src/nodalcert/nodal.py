"""Nodality certification: exact point-local checks plus global counting.

A certified-nodal verdict combines two ingredients:

* point-local, exact over Q: every claimed point is singular (all partials
  vanish) and has a full-rank chart Hessian — an ordinary node.
* global, over the configured fields: the claimed points exhaust the
  singular locus. Two interchangeable routes establish this —

  - literal: the quotient Hilbert function stabilizes (three consecutive
    equal values from the socle degree) and its stable value equals the
    node count. Used when the scan degrees stay small.
  - hilbert-persistence: the quotient dimension equals the node count m in
    two consecutive degrees K, K+1 with m <= K. By Macaulay's growth bound
    the ideal generated by the degree-K slice then has quotient dimension
    exactly m in degree K+1, and by Gotzmann's persistence theorem in every
    later degree, so its zero locus is a length-m subscheme. It contains
    every singular point, and the m listed points (each checked singular
    and distinct) already fill it. Two rank computations, no saturation.

Both routes fail closed: any mismatch produces a Failed verdict, never a
silently weaker claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from . import exact
from .errors import DegeneratePoint, NotSingular, ParseError
from .milnor import JacobianContext, tjurina_count
from .monomials import space_dim
from .polynomials import HomogeneousPolynomial, partial_derivatives

_LITERAL_SCAN_LIMIT = 2000  # max dim S_(socle+2) for the literal route
# max generator-matrix entries per degree, checked before any matrix is
# assembled (here and by the hilbert command's probe): a rank of both
# primes at once holds one int32 matrix per process, the caller's and its
# forked child's: 1.6 GB each at the cap, 3.2 GB between them
_PERSISTENCE_ENTRY_CAP = 400_000_000


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


def _generator_entries(ctx: JacobianContext, k: int) -> int:
    """Dense entry count of the degree-k generator matrix (feasibility gate)."""
    rows = (ctx.n + 1) * space_dim(ctx.n, k - ctx.d + 1)
    return rows * space_dim(ctx.n, k)


def certify_nodal(
    ctx: JacobianContext, points: Sequence[ProjectivePoint], route: str = "auto"
) -> NodalCertificate:
    """Certify that the hypersurface is nodal with exactly the given nodes
    (empty points = claim smoothness). See the module docstring for the two
    routes; "auto" picks by scan feasibility."""
    n, d = ctx.n, ctx.d
    if route == "auto":
        route = (
            "literal"
            if space_dim(n, ctx.socle + 2) <= _LITERAL_SCAN_LIMIT
            else "hilbert-persistence"
        )
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

    if route == "literal":
        tau = tjurina_count(ctx)
        if tau != m:
            return _failed(
                "literal",
                f"stabilized quotient dimension {tau} != listed node count {m}",
                tjurina=tau,
            )
        if m == 0:
            return NodalCertificate("Smooth", 0, 0, "literal")
        return NodalCertificate("Nodal", m, tau, "literal")

    if route != "hilbert-persistence":
        raise ValueError(f"unknown certification route {route!r}")

    if m == 0:
        # Smoothness needs a single degree: quotient dimension 0 one past
        # the socle means the ideal slice is everything, so no common zero.
        k = ctx.socle + 1
        if _generator_entries(ctx, k) > _PERSISTENCE_ENTRY_CAP:
            return _failed(
                route,
                f"smoothness check needs the degree-{k} ideal slice "
                f"({(n + 1) * space_dim(n, k - d + 1)} x {space_dim(n, k)}), "
                "past the feasible size cap",
            )
        q = ctx.milnor_dim(k)
        if q != 0:
            return _failed(
                route, f"quotient dimension {q} != 0 at degree {k}", quotient=q
            )
        return NodalCertificate("Smooth", 0, 0, route, details={"degree": k})

    # The two consecutive degrees where the quotient dimension of a nodal
    # hypersurface first equals its node count are K = socle, socle + 1.
    K = ctx.socle
    if m > K:
        return _failed(route, f"persistence route needs node count <= {K}, got {m}")
    worst = max(_generator_entries(ctx, K), _generator_entries(ctx, K + 1))
    if worst > _PERSISTENCE_ENTRY_CAP:
        rows = (n + 1) * space_dim(n, K + 1 - d + 1)
        return _failed(
            route,
            f"persistence route needs ranks at degrees {K} and {K + 1} "
            f"(up to {rows} x {space_dim(n, K + 1)}), past the feasible size cap",
        )
    h0 = ctx.milnor_dim(K)
    if h0 != m:
        return _failed(
            route, f"quotient dimension {h0} != {m} at degree {K}", h0=h0, degree=K
        )
    h1 = ctx.milnor_dim(K + 1)
    if h1 != m:
        return _failed(
            route,
            f"quotient dimension {h1} != {m} at degree {K + 1}",
            h1=h1,
            degree=K + 1,
        )
    return NodalCertificate(
        "Nodal", m, m, route, details={"degree": K, "h0": h0, "h1": h1}
    )
