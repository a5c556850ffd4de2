"""Seeded example hypersurfaces with nodes at known rational points.

Construction invariants (checked, not assumed):

* ``one_node``: f = x_n^(d-2) * q(x') + sum_{j=3..d} x_n^(d-j) * c_j(x')
  with q a nondegenerate integer quadratic in the first n variables and
  c_j random degree-j tails. The point [0 : ... : 0 : 1] is singular by
  construction (every term vanishes to order >= 2 there) and is a node
  exactly when q is nondegenerate — which the generator verifies exactly.
* ``multi_node``: a random dense degree-d polynomial whose coefficients at
  x_i^d and x_i^(d-1) x_j are zeroed for each requested coordinate point
  e_i, making each e_i singular by construction; the generator then checks
  exactly that each e_i has a full-rank chart Hessian and that no other
  coordinate point is singular.

Every retry draws from the same seeded stream, so (kind, n, d, m, seed)
pins the fixture bit-for-bit. Global "no further singularities" is what
certify_nodal establishes downstream; the shipped seeds are chosen so the
first locally-valid candidate also certifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import exact
from .errors import ParseError
from .monomials import monomial_basis
from .nodal import ProjectivePoint, hessian_rank_at, is_singular_at
from .polynomials import HomogeneousPolynomial

_MAX_ATTEMPTS = 64
_COEFF_RANGE = 4


@dataclass(frozen=True)
class FixtureSpec:
    kind: str  # "fermat" | "one_node" | "multi_node"
    n: int
    d: int
    node_count: int
    seed: int | None
    f: HomogeneousPolynomial
    points: tuple[ProjectivePoint, ...]
    attempts: int = 1

    def describe(self) -> str:
        bits = [f"{self.kind}(n={self.n}, d={self.d}"]
        if self.kind == "multi_node":
            bits.append(f", m={self.node_count}")
        if self.seed is not None:
            bits.append(f", seed={self.seed}")
        bits.append(")")
        return "".join(bits)


def fermat(n: int, d: int) -> FixtureSpec:
    """The smooth reference surface: sum of d-th powers."""
    terms = {}
    for i in range(n + 1):
        expo = [0] * (n + 1)
        expo[i] = d
        terms[tuple(expo)] = Fraction(1)
    f = HomogeneousPolynomial.make(n, d, terms)
    return FixtureSpec("fermat", n, d, 0, None, f, ())


def _unit_point(n: int, i: int) -> ProjectivePoint:
    coords = [Fraction(0)] * (n + 1)
    coords[i] = Fraction(1)
    return ProjectivePoint(coords)


def _random_quadratic(rng: random.Random, nvars: int) -> dict[tuple[int, ...], int]:
    """x_0^2 + ... + x_(nvars-1)^2 plus small random cross terms, as a
    coefficient dict keyed by exponent tuples over nvars variables."""
    coeffs: dict[tuple[int, ...], int] = {}
    for i in range(nvars):
        expo = [0] * nvars
        expo[i] = 2
        coeffs[tuple(expo)] = 1
    for i, j in combinations_with_replacement(range(nvars), 2):
        if i == j:
            continue
        t = rng.randint(-1, 1)
        if t:
            expo = [0] * nvars
            expo[i] = 1
            expo[j] = 1
            coeffs[tuple(expo)] = t
    return coeffs


def _quadratic_nondegenerate(coeffs: dict[tuple[int, ...], int], nvars: int) -> bool:
    mat = [[0] * nvars for _ in range(nvars)]
    for expo, c in coeffs.items():
        idx = [i for i, e in enumerate(expo) if e]
        if len(idx) == 1:
            mat[idx[0]][idx[0]] = 2 * c
        else:
            i, j = idx
            mat[i][j] = c
            mat[j][i] = c
    return exact.bareiss_rank(mat) == nvars


def one_node(n: int, d: int, seed: int) -> FixtureSpec:
    """One structural node at [0 : ... : 0 : 1]."""
    if d < 3:
        raise ValueError("one_node needs degree >= 3")
    rng = random.Random(seed)
    node = _unit_point(n, n)
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        q = _random_quadratic(rng, n)
        if not _quadratic_nondegenerate(q, n):
            continue
        terms: dict[tuple[int, ...], Fraction] = {}
        for expo, c in q.items():
            terms[expo + (d - 2,)] = Fraction(c)
        for j in range(3, d + 1):
            for expo in monomial_basis(n - 1, j):
                c = rng.randint(-_COEFF_RANGE, _COEFF_RANGE)
                if c:
                    full = expo + (d - j,)
                    terms[full] = terms.get(full, Fraction(0)) + c
        terms = {e: v for e, v in terms.items() if v}
        f = HomogeneousPolynomial.make(n, d, terms)
        if not is_singular_at(f, node):
            continue
        if hessian_rank_at(f, node) != n:
            continue
        if any(is_singular_at(f, _unit_point(n, i)) for i in range(n)):
            continue
        return FixtureSpec("one_node", n, d, 1, seed, f, (node,), attempt)
    raise ValueError(f"no locally valid one_node({n},{d}) candidate in {_MAX_ATTEMPTS} tries")


def multi_node(n: int, d: int, m: int, seed: int) -> FixtureSpec:
    """m structural nodes at the first m coordinate points."""
    if not 2 <= m <= n + 1:
        raise ValueError("multi_node supports 2 <= m <= n+1 nodes")
    if d < 3:
        raise ValueError("multi_node needs degree >= 3")
    rng = random.Random(seed)
    points = tuple(_unit_point(n, i) for i in range(m))
    basis = monomial_basis(n, d)
    banned = set()
    for i in range(m):
        solo = [0] * (n + 1)
        solo[i] = d
        banned.add(tuple(solo))
        for j in range(n + 1):
            if j == i:
                continue
            expo = [0] * (n + 1)
            expo[i] = d - 1
            expo[j] = 1
            banned.add(tuple(expo))
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        terms = {}
        for expo in basis:
            if expo in banned:
                continue
            c = rng.randint(-_COEFF_RANGE, _COEFF_RANGE)
            if c:
                terms[expo] = Fraction(c)
        if not terms:
            continue
        f = HomogeneousPolynomial.make(n, d, terms)
        if not all(is_singular_at(f, pt) for pt in points):
            continue
        if any(hessian_rank_at(f, pt) != n for pt in points):
            continue
        if any(is_singular_at(f, _unit_point(n, i)) for i in range(m, n + 1)):
            continue
        return FixtureSpec("multi_node", n, d, m, seed, f, points, attempt)
    raise ValueError(
        f"no locally valid multi_node({n},{d},{m}) candidate in {_MAX_ATTEMPTS} tries"
    )


def make_fixture(kind: str, n: int, d: int, m: int | None = None, seed: int | None = None) -> FixtureSpec:
    if kind == "fermat":
        return fermat(n, d)
    if kind == "one_node":
        if seed is None:
            raise ValueError("one_node needs a seed")
        return one_node(n, d, seed)
    if kind == "multi_node":
        if seed is None or m is None:
            raise ValueError("multi_node needs a node count and a seed")
        return multi_node(n, d, m, seed)
    raise ValueError(f"unknown fixture kind {kind!r}")


def parse_fixture_arg(text: str) -> FixtureSpec:
    """Parse "kind:n,d[,m][,seed=S]" — e.g. "one_node:3,4,seed=101" or
    "multi_node:3,5,2,seed=404" or "fermat:3,4"."""
    try:
        kind, rest = text.split(":", 1)
    except ValueError:
        raise ParseError(f"fixture spec needs kind:args, got {text!r}") from None
    kind = kind.strip()
    seed = None
    nums = []
    for part in rest.split(","):
        part = part.strip()
        if part.startswith("seed="):
            seed = int(part[5:])
        elif part:
            nums.append(int(part))
    if kind == "fermat" and len(nums) == 2:
        return make_fixture(kind, nums[0], nums[1])
    if kind == "one_node" and len(nums) == 2:
        return make_fixture(kind, nums[0], nums[1], seed=seed)
    if kind == "multi_node" and len(nums) == 3:
        return make_fixture(kind, nums[0], nums[1], m=nums[2], seed=seed)
    raise ParseError(f"bad fixture spec {text!r}")
