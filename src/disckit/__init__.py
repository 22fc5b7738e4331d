"""Exact computer algebra for discriminants of polynomial families.

The package computes Sylvester resultants and discriminants with
declared degrees over ZZ, QQ, prime fields, and polynomial rings over
those; stratifies the base of a polynomial family into etale and
ramified pieces; produces the resultant generators of higher
discriminant ideals on the line together with their chart-change
behavior; tabulates the closed-form dimension counts attached to jet
bundles; and checks the discriminant loci exhaustively over small
prime fields.
"""

from .errors import (
    BudgetError,
    DisckitError,
    ExactDivisionError,
    InputSyntaxError,
    ParameterError,
    RingMismatchError,
    UnsupportedRingError,
)
from .rings import (
    GF,
    QQ,
    ZZ,
    MultiPoly,
    PolynomialRing,
    PrimeField,
    Ring,
    RingElement,
    RingHom,
)
from .unipoly import (
    MINUS_INFINITY,
    UniPoly,
    unipoly_gcd,
)
from .parser import parse_element, parse_poly, parse_ring
from .resultants import (
    SylvesterSpec,
    bezout_certificate,
    classify_discriminant,
    det_cofactor,
    det_fraction_free,
    discriminant,
    resultant,
    sylvester_matrix,
)
from .jets import (
    ChartId,
    ChartRelation,
    IdealGens,
    chart_consistency,
    chart_ring,
    discriminant_ideal,
    generic_section,
    homogeneous_classical_discriminant,
    incidence_ideal,
    taylor_map,
)
from .strata import Stratum, etale_verdict, is_unit_localized, main1_strata, standard_etale_check
from .dims import (
    ComplexTerm,
    DimReport,
    complex_table,
    complex_term_rank,
    dim_sym,
    h_ext_jet,
    h_ext_jet_dual,
    rank_jet,
    rank_table,
)
from .oracle import (
    GrowthReport,
    VerifyReport,
    coeffs_mod,
    dimension_growth_check,
    has_root_of_multiplicity,
    verify_discriminant_locus,
)

__version__ = "0.1.0"

__all__ = [
    "bezout_certificate",
    "BudgetError",
    "chart_consistency",
    "chart_ring",
    "ChartId",
    "ChartRelation",
    "classify_discriminant",
    "coeffs_mod",
    "complex_table",
    "complex_term_rank",
    "ComplexTerm",
    "det_cofactor",
    "det_fraction_free",
    "dim_sym",
    "dimension_growth_check",
    "DimReport",
    "DisckitError",
    "discriminant",
    "discriminant_ideal",
    "etale_verdict",
    "ExactDivisionError",
    "generic_section",
    "GF",
    "GrowthReport",
    "h_ext_jet",
    "h_ext_jet_dual",
    "has_root_of_multiplicity",
    "homogeneous_classical_discriminant",
    "IdealGens",
    "incidence_ideal",
    "InputSyntaxError",
    "is_unit_localized",
    "main1_strata",
    "MINUS_INFINITY",
    "MultiPoly",
    "ParameterError",
    "parse_element",
    "parse_poly",
    "parse_ring",
    "PolynomialRing",
    "PrimeField",
    "QQ",
    "rank_jet",
    "rank_table",
    "resultant",
    "Ring",
    "RingElement",
    "RingHom",
    "RingMismatchError",
    "standard_etale_check",
    "Stratum",
    "sylvester_matrix",
    "SylvesterSpec",
    "taylor_map",
    "UniPoly",
    "unipoly_gcd",
    "UnsupportedRingError",
    "verify_discriminant_locus",
    "VerifyReport",
    "ZZ",
]
