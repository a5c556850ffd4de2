"""Field configuration: exact rationals or an agreeing pair of prime fields.

All invariants computed by this library are ranks of integer matrices. The
default execution computes every rank modulo two distinct 31-bit primes and
accepts a value only when both agree; ``exact`` mode replaces that with
arbitrary-precision rational elimination and is the ground-truth oracle.

Each field is a *realization* (``PrimeField(p)`` or ``Rationals``) that owns
everything that differs by field: the payload type of its matrices and the
few operations on them the engine and the graded algebra need. Payloads are
2-D numpy arrays in both: int64 entries reduced into [0, p) over F_p, and
``dtype=object`` entries (Fractions or ints) over Q, so indexing, stacking
and reshaping are written once for both. Every matrix the engine
eliminates has the realization's ``rank_dtype``: int32 over F_p, half the
bytes, since a residue below p < 2**31 fits. Besides ``rank``, one step
serves every op: ``rref_free`` gives the pivot columns and only the reduced
form's free columns, from which the engine writes echelon rows, kernel
rows and annihilators the same way in both fields, through ``dtype`` and
``normalize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, exact
from .errors import ParseError

#: Default working primes: the two largest primes below 2**31 - 16.
DEFAULT_PRIMES: tuple[int, int] = (2147483629, 2147483587)

#: Engine kernels require primes below 2**31 so that products of two reduced
#: scalars fit comfortably in signed 64-bit arithmetic.
MAX_PRIME = 2**31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(x: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= x < 2**64."""
    if x < 2:
        return False
    for small in _MR_BASES:
        if x % small == 0:
            return x == small
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        v = pow(a, d, x)
        if v in (1, x - 1):
            continue
        for _ in range(s - 1):
            v = v * v % x
            if v == x - 1:
                break
        else:
            return False
    return True


def _map(fn, values) -> np.ndarray:
    """Apply fn to every entry of a scalar, vector or rows of exact values."""
    return np.frompyfunc(fn, 1, 1)(np.asarray(values, dtype=object))


@dataclass(frozen=True)
class PrimeField:
    """F_p: int64 payloads with entries in [0, p)."""

    p: int
    dtype = np.int64
    rank_dtype = np.int32

    @property
    def key(self) -> str:
        return f"fp:{self.p}"

    def dense(self, coo) -> np.ndarray:
        """A fresh dense ``rank_dtype`` matrix of an integer COO matrix."""
        return coo.dense_mod(self.p, self.rank_dtype)

    def convert(self, values) -> np.ndarray:
        """Exact rationals (a scalar, a vector or rows) reduced into F_p."""
        return np.asarray(_map(lambda v: fraction_mod(Fraction(v), self.p), values), dtype=np.int64)

    def normalize(self, arr: np.ndarray) -> np.ndarray:
        """Canonical entries after a negation, product or sum of reduced
        entries (each below 2**62 in magnitude, so int64 does not wrap)."""
        return arr % self.p

    def rank(self, mat: np.ndarray) -> int:
        """Rank of mat (int64 or int32); overwrites it."""
        return _kernels.rank_mod(mat, self.p)

    def rref_free(self, mat: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """Pivot columns of mat's reduced echelon form and only that form's
        free columns (int64), without the rest; mat is int64 or int32 and
        is overwritten."""
        pivots, free = _kernels.rref_free_mod(mat, self.p)
        return tuple(int(c) for c in pivots), free


@dataclass(frozen=True)
class Rationals:
    """Q: ``dtype=object`` payloads of Fractions (or ints)."""

    dtype = rank_dtype = object
    key = "exact"

    def dense(self, coo) -> np.ndarray:
        return np.array(coo.dense_int_rows(), dtype=object).reshape(coo.shape)

    def convert(self, values) -> np.ndarray:
        return np.asarray(_map(Fraction, values), dtype=object)

    def normalize(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def rank(self, mat: np.ndarray) -> int:
        return exact.bareiss_rank(mat)

    def rref_free(self, mat: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        ech, pivots = exact.rref_fraction(mat)
        rows = np.array(ech, dtype=object).reshape(len(ech), mat.shape[1])
        return pivots, np.delete(rows, pivots, axis=1)


Realization = PrimeField | Rationals


@dataclass(frozen=True)
class FieldConfig:
    """Either ``exact`` rationals or a pair of distinct prime fields."""

    mode: str  # "prime-pair" | "exact"
    primes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.mode == "exact":
            if self.primes:
                raise ValueError("exact mode carries no primes")
        elif self.mode == "prime-pair":
            if len(self.primes) != 2 or self.primes[0] == self.primes[1]:
                raise ValueError("prime-pair mode needs two distinct primes")
            for p in self.primes:
                if not is_prime_u64(p):
                    raise ValueError(f"{p} is not prime")
                if p >= MAX_PRIME:
                    raise ValueError(f"prime {p} too large; must be < 2**31")
        else:
            raise ValueError(f"unknown field mode {self.mode!r}")

    @classmethod
    def exact(cls) -> "FieldConfig":
        return cls(mode="exact")

    @classmethod
    def prime_pair(cls, p1: int = DEFAULT_PRIMES[0], p2: int = DEFAULT_PRIMES[1]) -> "FieldConfig":
        return cls(mode="prime-pair", primes=(p1, p2))

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    @property
    def realizations(self) -> tuple[Realization, ...]:
        """The fields every elimination runs in, in ledger order."""
        if self.is_exact:
            return (Rationals(),)
        return tuple(PrimeField(p) for p in self.primes)

    @property
    def keys(self) -> tuple[str, ...]:
        """Stable per-subfield keys used to tag numeric payloads."""
        return tuple(F.key for F in self.realizations)

    def describe(self) -> str:
        if self.is_exact:
            return "exact"
        return ",".join(self.keys)

    def check_degree_bound(self, n: int, d: int) -> None:
        """Primes must exceed 2*d*(n+1) so that degree scalars (Euler factors,
        Hessian entries) never collapse mod p."""
        if not self.is_exact:
            bound = 2 * d * (n + 1)
            for p in self.primes:
                if p <= bound:
                    raise ValueError(
                        f"prime {p} too small for (n={n}, d={d}); need > {bound}"
                    )


def parse_field_flag(text: str) -> FieldConfig:
    """Parse ``--field`` values: ``exact`` or ``fp:<p1>,fp:<p2>``."""
    text = text.strip()
    if text == "exact":
        return FieldConfig.exact()
    parts = [part.strip() for part in text.split(",")]
    primes = []
    for part in parts:
        if not part.startswith("fp:"):
            raise ParseError(f"bad field spec {text!r}; expected 'exact' or 'fp:<p>,fp:<p>'")
        try:
            primes.append(int(part[3:]))
        except ValueError as exc:
            raise ParseError(f"bad prime in field spec {part!r}") from exc
    if len(primes) != 2:
        raise ParseError("prime-field mode needs exactly two primes")
    try:
        return FieldConfig.prime_pair(primes[0], primes[1])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def fraction_mod(x: Fraction, p: int) -> int:
    """Reduce an exact rational into F_p. The denominator must be prime to
    p; a ValueError (an input error) names the prime when it is not."""
    num = x.numerator % p
    den = x.denominator % p
    if den == 0:
        raise ValueError(f"the denominator of {x} vanishes mod the working prime {p}")
    if den == 1:
        return num
    return num * pow(den, -1, p) % p
