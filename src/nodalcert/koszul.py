"""Syzygies among the partial derivatives and their cohomological count.

A degree-r syzygy is a vector of degree-r coefficient polynomials pairing to
zero against the partials. The obvious ones swap two partials with opposite
signs; the interesting invariants count what remains beyond those:

* ``syzygy_dim(r)`` needs no kernel at all — the rank of the multiplication
  map (S_r)^(n+1) -> S_(r+d-1) is exactly the ideal slice dimension at
  r+d-1, so the kernel dimension follows from the rank-nullity identity.
* ``koszul_cohomology_dim(m)`` is the syzygy excess in internal degree m
  (zero below m = n, where no syzygy coefficients exist).
* ``min_relation_degree`` scans for the first degree with a syzygy that is
  not spanned by the obvious ones.
"""

from __future__ import annotations

from .assembly import trivial_syzygy_coo
from .errors import InconsistentResult, ScanExhausted
from .linalg import SubspaceBasis
from .milnor import JacobianContext
from .monomials import space_dim


def syzygy_dim(ctx: JacobianContext, r: int) -> int:
    """Dimension of the degree-r syzygy space of the partials."""
    if r < 0:
        return 0
    total = (ctx.n + 1) * space_dim(ctx.n, r)
    return total - ctx.jacobian_dim(r + ctx.d - 1)


def syzygy_space(ctx: JacobianContext, r: int) -> SubspaceBasis:
    """Echelonized basis of the degree-r syzygy space (slot-major
    coordinates on (S_r)^(n+1)). Materializes a kernel; prefer syzygy_dim
    when only the dimension is needed."""
    coo = ctx.generator_coo(r + ctx.d - 1).transposed()
    basis = ctx.engine.kernel_coo(coo, f"syzygy-map/{r}")
    expected = syzygy_dim(ctx, r)
    if basis.dim != expected:
        raise InconsistentResult(
            f"degree-{r} syzygy kernel has dimension {basis.dim}, rank-nullity gives {expected}"
        )
    return basis


def trivial_syzygy_dim(ctx: JacobianContext, r: int) -> int:
    """Dimension of the span of the obvious pair-swap syzygies in degree r."""
    if r < ctx.d - 1:
        return 0
    coo = trivial_syzygy_coo(ctx.partials, r)
    return ctx.engine.rank_coo(coo, f"trivial-syzygy/{r}")


def trivial_syzygy_space(ctx: JacobianContext, r: int) -> SubspaceBasis:
    """Echelonized basis of the span of the pair-swap syzygies in degree r."""
    coo = trivial_syzygy_coo(ctx.partials, r)
    return ctx.engine.echelon_coo(coo, f"trivial-syzygy/{r}")


def koszul_cohomology_dim(ctx: JacobianContext, m: int) -> int:
    """Number of independent nontrivial syzygies in internal degree m
    (coefficient degree m - n)."""
    if m < ctx.n:
        return 0
    r = m - ctx.n
    return syzygy_dim(ctx, r) - trivial_syzygy_dim(ctx, r)


def min_relation_degree(ctx: JacobianContext, q_max: int | None = None) -> int:
    """Smallest coefficient degree carrying a syzygy beyond the pair-swap
    span; raises ScanExhausted(bound) if none appears through q_max
    (default n*d)."""
    bound = ctx.n * ctx.d if q_max is None else q_max
    for r in range(bound + 1):
        excess = syzygy_dim(ctx, r) - trivial_syzygy_dim(ctx, r)
        if excess < 0:
            raise InconsistentResult(f"degree-{r} pair-swap syzygies exceed all syzygies by {-excess}")
        if excess > 0:
            return r
    raise ScanExhausted(bound, f"no nontrivial syzygy found through degree {bound}")
