"""Graded invariants of the partial-derivative ideal of a hypersurface.

Everything here reduces to ranks of structured integer matrices: the
degree-k slice of the ideal spanned by the partials is the row space of a
generator matrix, the quotient algebra dimension is the codimension, and
the saturation slice is the kernel of "multiply by every monomial of one
fixed degree chosen to land past the socle, then reduce mod the ideal".

The slice's generator matrix leaves out Koszul-redundant rows (the Koszul
half of Faugere's F5 criterion, ISSAC 2002). Its row x^a g_j, for the
partials g_0..g_n, is dropped when LM(g_i) divides x^a for some i < j,
LM being the leading monomial in the session order (descending lex, a
term order). Write g_i = c LM(g_i) + t_i and x^a = x^b LM(g_i). From
g_i g_j = g_j g_i,
c x^a g_j = x^b g_j g_i - x^b t_i g_j,
where the first term is a combination of rows x^e g_i and the second of
rows x^b m g_j with x^b m below x^a. Order the rows by j, then by x^a:
each dropped row is then a combination of smaller rows, so by induction
every row lies in the span of the kept ones. The division by c needs c to
be a unit, so only a g_i whose leading coefficient in the integer rows is
nonzero modulo every prime of the field counts as a divisor; over Q every
nonzero one does. With that, the cut matrix has the slice's row space in
every realization, hence its rank, reduced echelon form and annihilator.
It is not the matrix of the map (S_(k-d+1))^(n+1) -> S_k, whose kernel
(the syzygies) its transpose does not give: never transpose it for a
kernel. The dropped rows keep their places without cells, so the matrix
keeps the slice's shape, which the ledger records, while the engine
densifies only the kept rows.

From the socle degree on, where the quotient is small, one elimination of
a slice also yields its annihilator: the functionals on S_k vanishing on
the degree-k slice J_k, one per quotient dimension (the slice's
``kernel_rows``, Macaulay's inverse system in degree k). The next degree's
rank then needs no slice. For k >= d-1, J_(k+1) = S_1 J_k, since every
generator row of degree k+1 is a variable times one of degree k. So a
functional mu on S_(k+1) vanishes on J_(k+1) exactly when each contraction
mu o x_i (g -> mu(x_i g), on S_k) vanishes on J_k, that is
mu o x_i = sum_t c_(i,t) lambda_t over the annihilator lambda_1..lambda_h
of J_k. Conversely, functionals nu_i on S_k are the contractions of one mu
exactly when nu_i(x_j x^c) = nu_j(x_i x^c) for every i < j and every x^c of
degree k-1, and then mu(x^a) = nu_i(x^a / x_i) for any x_i dividing x^a.
With nu_i = sum_t c_(i,t) lambda_t these are linear equations in the
(n+1) h unknowns c_(i,t), and c -> mu is injective because the lambda_t are
independent. So the quotient dimension h(k+1) is the nullity of that small
system, and its kernel, read through a variable factor of each monomial,
is the annihilator of J_(k+1). The argument holds over any field, so each
realization derives its own slice's exact rank: a rank mod p still never
exceeds the rank over Q. It is recorded under the slice's label and shape,
so ledgers do not tell derived ranks from eliminated ones.

The quotient tables are annihilators too, at every degree: the table
sending a monomial of S_k to its class over the standard monomials is the
transposed kernel rows of the slice's reduced echelon form, one per free
column g, with 1 at g and 0 at the other free columns (below d-1, the
identity). A context keeps one table per degree, which
``quotient_reduction`` alone makes: eliminated, derived, or read off known
zeros as below. Each records the slice's rank, so from the socle degree on
h(k) is N_k minus the table's width. A derived annihilator is some basis
Lambda of that space. The free columns are the complement of the slice's
lex-first column basis, so by matroid duality (Lambda's rows span the
orthogonal complement of the slice's row space) they are Lambda's lex-last
column basis. Echelonizing Lambda with its columns reversed thus puts its
pivots exactly on the free columns, and its rows, reversed back, are the
one basis with 1 at its own free column and 0 at the others: the
eliminated table, entry for entry.

Where the ideal's zeros are known, a degree past such a table needs no
system. Let x_1..x_m be points with coprime integer coordinates at which
every partial vanishes over Q. The slice's rows are monomial multiples of
the partials with one common denominator cleared, so the functional
"evaluate at x_s" kills J_k in every degree and every realization, and
x_s stays a projective point mod p. Suppose the degree-(k-1) table has
width h(k-1) = m <= k-1, with k-1 >= d-1. Macaulay's growth bound gives
h(k) <= m^<k-1> = m, since J_k contains S_1 J_(k-1). If the m evaluations
are independent on S_k (they are when the points stay distinct in the
field and k >= m-1), they are m functionals vanishing on J_k, so
h(k) >= m. Hence h(k) = m, the annihilator of J_k is the span of the
evaluations, and their canonical form is the degree-k table, entry for
entry: only the m x N_k evaluation rows are echelonized. A nodality
certificate hands its checked nodes to the context once
(``JacobianContext.nodes``); from then on ``quotient_reduction`` reads
every table it can off them before it would derive or eliminate. The
argument holds in each field, so it records the slice's rank there as a
derivation does. Where two points meet modulo a prime the evaluations have
rank below m, and the table is made as without the points.

That form makes each table the one way into its degree's slice: the
standard columns, the echelon basis and, from the socle degree on, the
dimension are views of it. Column s of T is 1 at its free column g_s, 0 at
the other free columns and -r_t[g_s] at each pivot p_t, r_t being the
reduced row with pivot p_t, which vanishes left of p_t. So T[p_t, s] is
nonzero only when p_t < g_s: g_s is the last nonzero row of column s
(``standard_columns``), and -T at the pivot rows gives the reduced rows'
free entries (``jacobian_basis``).

The smooth reference sequence — the coefficients of ((1-t^(d-1))/(1-t))^(n+1)
— is the Hilbert function every smooth hypersurface of the same (n, d)
realizes; comparing against it detects and quantifies singularity.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg
from .assembly import IntCOO, jacobian_generator_coo
from .errors import FieldDisagreement, InconsistentResult, NoStabilization
from .field import FieldConfig, Realization
from .linalg import LinearEngine, SubspaceBasis
from .monomials import exponent_matrix, monomial_rank_rows, space_dim
from .polynomials import HomogeneousPolynomial, common_denominator_scale, partial_derivatives


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


def _extend_annihilator(F: Realization, table: np.ndarray, n: int, k: int) -> tuple[int, np.ndarray]:
    """The rank over F of the degree-k ideal slice and its canonical
    annihilator (the transposed degree-k table), from ``table``, the
    degree-(k-1) quotient table (N_(k-1) x h), for k-1 >= d-1: the nullity
    and the kernel of the compatibility system of the module docstring,
    whose row (i < j, x^c) has lambda_t(x_j x^c) at column (i, t) and
    -lambda_t(x_i x^c) at column (j, t), echelonized with columns reversed."""
    h = table.shape[1]
    unit = np.eye(n + 1, dtype=np.int64)
    below = exponent_matrix(n, k - 2)
    # times[j][c]: the position in S_(k-1) of x_j * x^c
    times = [monomial_rank_rows(below + unit[j], n, k - 1) for j in range(n + 1)]
    blocks = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            block = np.zeros((len(below), n + 1, h), dtype=F.dtype)
            block[:, i] = table[times[j]]
            block[:, j] = F.normalize(-table[times[i]])
            blocks.append(block.reshape(len(below), (n + 1) * h))
    _, coeffs = linalg.annihilator(F, np.vstack(blocks))
    coeffs = coeffs.reshape(len(coeffs), n + 1, h)
    top = exponent_matrix(n, k)
    var = np.argmax(top > 0, axis=1)  # a variable dividing each monomial
    source = monomial_rank_rows(top - unit[var], n, k - 1)
    out = np.zeros((len(coeffs), len(top)), dtype=F.dtype)
    for t in range(h):
        out = F.normalize(out + coeffs[:, var, t] * table[source, t])
    return len(top) - len(coeffs), _canonical_rows(F, out)


def _canonical_rows(F: Realization, rows: np.ndarray) -> np.ndarray:
    """The canonical basis of the row space of ``rows`` (module docstring):
    echelonized over F with the columns reversed, then reversed back."""
    pivots, free = F.rref_free(rows[:, ::-1].copy())
    return linalg.reduced_rows(F, pivots, free, rows.shape[1])[::-1, ::-1]


def evaluation_rows(F: Realization, points: Sequence[Sequence[int]], n: int, k: int) -> np.ndarray:
    """The matrix, of F's dtype, with one row per point of integer
    coordinates x and one column per degree-k monomial u, holding x^u in F:
    each row is the functional "evaluate at x" on S_k. The coordinates'
    powers are reduced as they are made, so no entry outgrows its field."""
    E = exponent_matrix(n, k)
    rows = np.ones((len(points), len(E)), dtype=F.dtype)
    for r, x in enumerate(points):
        for i, c in enumerate(x):
            powers = [1]
            for _ in range(k):
                powers.append(F.normalize(powers[-1] * c))
            rows[r] = F.normalize(rows[r] * np.array(powers, dtype=F.dtype)[E[:, i]])
    return rows


def _empty_rows(field: FieldConfig, ncols: int) -> dict[str, np.ndarray]:
    return {F.key: np.zeros((0, ncols), dtype=F.dtype) for F in field.realizations}


class JacobianContext:
    """Holds one quotient-reduction table per degree for one hypersurface
    over one field configuration, and in its engine's ledger the rank of
    every slice it has ranked; ``standard_columns``, ``jacobian_basis`` and,
    from the socle degree on, ``jacobian_dim`` read the table. Generator
    matrices are not cached: each use assembles its slice again through
    ``generator_coo``, so no slice outlives the elimination that needs it.

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
        # (j, exponents of LM(g_j)) for each partial g_j whose leading
        # coefficient, in the integer rows, is a unit in every realization
        scale = common_denominator_scale(self.partials)
        self._divisors: list[tuple[int, np.ndarray]] = []
        for j, g in enumerate(self.partials):
            if not g.is_zero:
                lead, c = g.sorted_terms()[0]
                if all(int(c * scale) % p for p in self.field.primes):
                    self._divisors.append((j, np.array(lead, dtype=np.int64)))
        # k -> per-field quotient table of degree k, made by quotient_reduction
        self._qr: dict[int, dict[str, np.ndarray]] = {}
        # integer coordinates of points at which every partial vanishes over
        # Q, as a nodality certificate has checked: quotient_reduction reads
        # tables off them where it can (module docstring)
        self.nodes: Sequence[Sequence[int]] | None = None
        self._tags: Counter[str] = Counter()

    def next_tag(self, kind: str) -> int:
        """The next ledger tag of ``kind`` (1, 2, ...): distinct labels for
        the successive checks of one kind on this context."""
        self._tags[kind] += 1
        return self._tags[kind]

    # -- raw ideal slices ---------------------------------------------------

    def generator_coo(self, k: int) -> IntCOO:
        """The degree-k slice's generator matrix, Koszul-cut: the rows of
        ``jacobian_generator_coo`` (x^a times the j-th partial, row
        j * N_(k-d+1) + a) keep their places, and those that the Koszul
        criterion makes redundant (module docstring) hold no cell. Its row
        space is the slice's, in every realization; never transpose it for
        a kernel. The zero 0 x N_k matrix for k < d-1, where the slice is
        zero. Every slice is assembled here, and raises ``NoStabilization``
        (``slice_over_cap``) past the size cap before any of it is made."""
        over = self.slice_over_cap(k)
        if over:
            raise NoStabilization(over)
        if k < self.d - 1:
            none = np.zeros(0, dtype=np.int64)
            return IntCOO((0, space_dim(self.n, k)), none, none, none)
        E = exponent_matrix(self.n, k - self.d + 1)
        cut = np.zeros((self.n + 1, len(E)), dtype=bool)
        for j, lead in self._divisors:
            cut[j + 1 :] |= np.all(E >= lead, axis=1)
        return jacobian_generator_coo(self.partials, k, ~cut.ravel())

    def _slice_shape(self, k: int) -> tuple[int, int]:
        """The shape of ``generator_coo(k)``, without assembling it."""
        return (self.n + 1) * space_dim(self.n, k - self.d + 1), space_dim(self.n, k)

    def slice_over_cap(self, k: int) -> str:
        """Why the degree-k generator matrix is too large to assemble and
        rank, or "" when its dense entry count is within the engine's cap
        (``linalg._ENTRY_CAP``). ``generator_coo`` checks it before every
        assembly; callers that scan degrees upward (certification,
        tjurina_count and the hilbert command's probe) check their last
        degree before any work starts."""
        rows, cols = self._slice_shape(k)
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
        """Dimension of the degree-k slice of the partials' ideal: counted
        for monomial partials, else the rank the engine's ledger holds under
        ``jacobian/k``. From the socle degree on ``quotient_reduction``
        records it; below, a table made earlier may have, and else the slice
        is ranked, which is cheaper than a table."""
        if k < self.d - 1:
            return 0
        if self._monomial_partials:
            return self._monomial_dim(k)
        label = f"jacobian/{k}"
        if k >= self.socle:
            self.quotient_reduction(k)
        elif label not in self.engine.rank_ledger:
            self.engine.rank_coo(self.generator_coo(k), label)
        return self.engine.rank_ledger[label].rank

    def standard_columns(self, k: int) -> tuple[int, ...]:
        """The indices in S_k of the degree-k standard monomials, in order:
        the last nonzero row of each column of the degree-k quotient table
        (module docstring). Raises ``FieldDisagreement`` unless every
        realization reads the same columns, which a derived table's rank
        check alone does not ensure."""
        reads = {
            tuple((len(table) - 1 - np.argmax(table[::-1] != 0, axis=0)).tolist())
            for table in self.quotient_reduction(k).values()
        }
        if len(reads) != 1:
            raise FieldDisagreement(f"standard columns for 'jacobian/{k}' differ across fields")
        return reads.pop()

    def jacobian_basis(self, k: int) -> SubspaceBasis:
        """Reduced echelon basis of the degree-k ideal slice, read off the
        degree-k quotient table: the pivots are its rows off the standard
        columns, and minus those rows are the reduced rows' free entries."""
        QR, ncols = self.quotient_reduction(k), space_dim(self.n, k)
        pivots = tuple(np.delete(np.arange(ncols), self.standard_columns(k)).tolist())
        return SubspaceBasis(ncols, pivots, {
            F.key: linalg.reduced_rows(F, pivots, F.normalize(-QR[F.key][list(pivots)]), ncols)
            for F in self.field.realizations
        })

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
        the degree-k ideal slice: its annihilator in canonical form,
        transposed, one table per degree, which only this method makes. Each
        is recorded under the slice's label and shape, and made in the first
        of three ways that applies (module docstring): the canonical
        evaluations at ``nodes`` (``_node_annihilator``); past
        max(socle, d-1), derived from the held table of degree k-1
        (``_extend_annihilator``); else the slice is assembled
        (``generator_coo``) and eliminated. ``standard_columns``,
        ``jacobian_basis`` and, from the socle degree on, ``jacobian_dim``
        read this table; no other call eliminates the slice for a basis."""
        if k not in self._qr:
            label, shape, held = f"jacobian/{k}", self._slice_shape(k), self._qr.get(k - 1)
            nodes = self._node_annihilator(k, held)
            if nodes is not None:
                _, lam = self.engine.derived_rank(label, shape, lambda F: (shape[1] - len(nodes[F.key]), nodes[F.key]))
            elif held is not None and k - 1 >= max(self.socle, self.d - 1):
                _, lam = self.engine.derived_rank(label, shape, lambda F: _extend_annihilator(F, held[F.key], self.n, k))
            else:
                _, lam = self.engine.annihilator_coo(self.generator_coo(k), label)
            self._qr[k] = {key: np.ascontiguousarray(rows.T) for key, rows in lam.items()}
        return self._qr[k]

    def _node_annihilator(self, k: int, held: dict[str, np.ndarray] | None) -> dict[str, np.ndarray] | None:
        """Per field key, the canonical evaluations at ``nodes`` on S_k where
        they are the degree-k annihilator (module docstring): ``held``, the
        table of k-1, has width m = len(nodes) <= k-1, k-1 >= d-1, and the
        evaluations have rank m in every realization. Else None."""
        if self.nodes is None or held is None or k - 1 < max(len(self.nodes), self.d - 1):
            return None
        if any(table.shape[1] != len(self.nodes) for table in held.values()):
            return None
        rows = {F.key: _canonical_rows(F, evaluation_rows(F, self.nodes, self.n, k)) for F in self.field.realizations}
        return rows if all(len(lam) == len(self.nodes) for lam in rows.values()) else None


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


def tjurina_count(ctx: JacobianContext) -> int:
    """Stabilized value of the quotient Hilbert function: the first
    h(k) = h(k+1) = c with c <= k, scanning upward from
    k = max(socle degree, d-1). The ideal is generated in degree d-1 <= k,
    so by Macaulay's bound and Gotzmann's persistence theorem c then holds
    in every later degree. Raises NoStabilization past degree socle + 3d,
    or before assembling a slice past the size cap."""
    bound = ctx.socle + 3 * ctx.d
    k = max(ctx.socle, ctx.d - 1)
    while k + 1 <= bound:
        over = ctx.slice_over_cap(k + 1)
        if over:
            raise NoStabilization(over)
        c = ctx.milnor_dim(k)
        if c <= k and ctx.milnor_dim(k + 1) == c:
            return c
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
