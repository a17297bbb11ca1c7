"""Siegel sets for SL(n,R): explicit coordinates, volumes, reduction, and
intersection bounds for the SL(n,Z) action.

The package cross-verifies every closed-form quantity three ways where
possible: exact symbolic algebra, independent numerical quadrature, and
exhaustive small-case enumeration.  The seeded Monte Carlo is not a fourth
independent check: its scale is the closed form's normalising constant, so
it checks the sampler and the product structure of its weight.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionTooLargeError,
    InvalidArgumentError,
    InvalidRangeError,
    InvalidWitnessError,
    MalformedConfigError,
    NonInvertibleError,
    NonPositiveEntryError,
    NotUnimodularError,
    SiegelError,
    ToleranceNotMetError,
)
from .iwasawa import (
    IwasawaFactors,
    MINIMAL_PARAMS,
    SiegelParams,
    UnimodularIntMatrix,
    decompose,
    siegel_membership,
)
from .haar import (
    MonteCarloReport,
    RngStream,
    SiegelCoordinatePoint,
    a_integral_mc,
    a_integral_quadrature,
    conjugation_jacobian,
    siegel_density,
)
from .volumes import (
    GrowthRow,
    SymbolicVolume,
    growth_table,
    harder_volume,
    normalization_ratio,
    ratio_C,
    signed_perm_order,
    vol_quotient,
    vol_siegel,
    vol_so,
    vol_symmetric_space,
    zeta,
)
from .reduction import ReductionResult, siegel_reduce
from .intersections import (
    IntersectionReport,
    count_bounds,
    enumerate_intersections,
    find_witness,
    finest_partition,
    height_bound,
    lemma_filter_chain,
    leading_entries,
    reports_to_jsonl,
)

__all__ = [
    "DimensionTooLargeError",
    "GrowthRow",
    "IntersectionReport",
    "InvalidArgumentError",
    "InvalidRangeError",
    "InvalidWitnessError",
    "IwasawaFactors",
    "MINIMAL_PARAMS",
    "MalformedConfigError",
    "MonteCarloReport",
    "NonInvertibleError",
    "NonPositiveEntryError",
    "NotUnimodularError",
    "ReductionResult",
    "RngStream",
    "SiegelCoordinatePoint",
    "SiegelError",
    "SiegelParams",
    "SymbolicVolume",
    "ToleranceNotMetError",
    "UnimodularIntMatrix",
    "a_integral_mc",
    "a_integral_quadrature",
    "conjugation_jacobian",
    "count_bounds",
    "decompose",
    "enumerate_intersections",
    "find_witness",
    "finest_partition",
    "growth_table",
    "harder_volume",
    "height_bound",
    "leading_entries",
    "lemma_filter_chain",
    "normalization_ratio",
    "ratio_C",
    "reports_to_jsonl",
    "siegel_density",
    "siegel_membership",
    "siegel_reduce",
    "signed_perm_order",
    "vol_quotient",
    "vol_siegel",
    "vol_so",
    "vol_symmetric_space",
    "zeta",
]
