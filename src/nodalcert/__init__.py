"""Exact certificates for graded invariants of nodal projective hypersurfaces.

The library computes Jacobian-ideal Hilbert functions, syzygy cohomology,
ideal saturation, and Hodge-graded dimensions over two independent prime
fields (cross-checked) or exact rationals, certifies that a hypersurface is
nodal with the claimed node set, and verifies injectivity statements for
the multiplication pairing and the period differential by exact rank
computations.
"""

from .errors import (
    DegeneratePoint,
    DegreeTooSmall,
    FieldDisagreement,
    InconsistentResult,
    MixedDegree,
    MixedParameters,
    NoStabilization,
    NodalcertError,
    NotEffective,
    NotSingular,
    ParseError,
    ScanExhausted,
    UnknownVariable,
    UnsupportedDimension,
)
from .field import DEFAULT_PRIMES, FieldConfig, parse_field_flag
from .fixtures import FixtureSpec, fermat, make_fixture, multi_node, one_node, parse_fixture_arg
from .hodge import (
    HodgeGradedDims,
    corollary_constancy_check,
    hodge_graded_dims,
    ideal_of_points_dim,
)
from .koszul import (
    koszul_cohomology_dim,
    min_relation_degree,
    syzygy_dim,
    trivial_syzygy_dim,
)
from .linalg import LinearEngine, RankRecord, SubspaceBasis
from .milnor import (
    SMOOTH,
    JacobianContext,
    coincidence_threshold,
    saturation_graded,
    smooth_reference_dim,
    socle_degree,
    tjurina_count,
)
from .monomials import monomial_basis, monomial_rank, space_dim
from .nodal import (
    NodalCertificate,
    ProjectivePoint,
    certify_nodal,
    hessian_rank_at,
    is_singular_at,
    parse_point,
)
from .polynomials import (
    HomogeneousPolynomial,
    parse_polynomial,
    partial_derivatives,
    polynomial_vector,
)
from .report import SCHEMA_VERSION, RunReport
from .torelli import (
    PeriodDifferentialResult,
    effective_deformation_check,
    pairing_injective,
    pairing_matrix,
    period_differential,
    quotient_basis,
    variable_multiplication_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIMES",
    "DegeneratePoint",
    "DegreeTooSmall",
    "FieldConfig",
    "FieldDisagreement",
    "FixtureSpec",
    "HodgeGradedDims",
    "HomogeneousPolynomial",
    "InconsistentResult",
    "JacobianContext",
    "LinearEngine",
    "MixedDegree",
    "MixedParameters",
    "NoStabilization",
    "NodalCertificate",
    "NodalcertError",
    "NotEffective",
    "NotSingular",
    "ParseError",
    "PeriodDifferentialResult",
    "ProjectivePoint",
    "RankRecord",
    "RunReport",
    "SCHEMA_VERSION",
    "SMOOTH",
    "ScanExhausted",
    "SubspaceBasis",
    "UnknownVariable",
    "UnsupportedDimension",
    "certify_nodal",
    "coincidence_threshold",
    "corollary_constancy_check",
    "effective_deformation_check",
    "fermat",
    "hessian_rank_at",
    "hodge_graded_dims",
    "ideal_of_points_dim",
    "is_singular_at",
    "koszul_cohomology_dim",
    "make_fixture",
    "min_relation_degree",
    "monomial_basis",
    "monomial_rank",
    "multi_node",
    "one_node",
    "pairing_injective",
    "pairing_matrix",
    "parse_field_flag",
    "parse_fixture_arg",
    "parse_point",
    "parse_polynomial",
    "partial_derivatives",
    "period_differential",
    "polynomial_vector",
    "quotient_basis",
    "saturation_graded",
    "smooth_reference_dim",
    "socle_degree",
    "space_dim",
    "syzygy_dim",
    "tjurina_count",
    "trivial_syzygy_dim",
    "variable_multiplication_kernel",
]
