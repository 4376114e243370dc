"""Exact multiplier ideals and Frobenius test ideals on quotient surfaces.

The library resolves cyclic quotient surface singularities by
Hirzebruch-Jung continued fractions, computes numerical pullbacks and
discrepancies on arbitrary negative-definite dual graphs, produces
multiplier ideals (numerical, m-limiting, and boundary-decorated) as
monomial ideals, computes test ideals in characteristic p from Frobenius
trace maps, and compares the two across prime sweeps.  All arithmetic is
exact: rationals everywhere, no floating point.
"""

from .divisors import DivisorLabel, DivisorVector, floor_inequality_check, rat
from .errors import (
    BadParameters,
    DomainError,
    EnumerationLimitExceeded,
    InvalidModel,
    ModelFileError,
    NonEffectiveGamma,
    NotIntegral,
    NotNegativeDefinite,
)
from .resolution import (
    ExceptionalCurve,
    Extra,
    ResolutionModel,
    discrepancies,
    negativity_check,
    numerical_pullback,
    pair_inequality_check,
    relative_canonical,
)
from .toric import (
    MonomialIdeal,
    ToricSurfaceModel,
    cartier_index,
    hj_resolve,
    m_limiting_relative_canonical,
    pushforward_sections,
    section_module_min_gens,
    to_resolution,
)
from .multiplier import (
    PairSpec,
    jumping_numbers,
    multiplier_ideal,
    multiplier_m_limiting,
    multiplier_with_boundary,
    numerical_relative_canonical,
)
from .frobenius import (
    CharPContext,
    TraceMap,
    boundary_containment_check,
    numerical_containment_check,
    test_ideal,
    test_ideal_detailed,
    test_ideal_sweep,
    trace_apply,
    trace_maps,
    trace_value,
)
from .compare import (
    CatalogEntry,
    ComparisonReport,
    catalog_entries,
    compare_entry,
    compare_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
