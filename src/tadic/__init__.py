"""Exact arithmetic for T-adic exponential sums over finite-field tori.

Two independent computation routes live side by side: direct torus sums
feeding L- and C-functions (`sums`), and the transfer-operator
characteristic series (`dwork`).  They agree by theorem, and the test
suite holds them to it.
"""

from .arith import CycContext, FieldContext, field_context, teichmuller_lift
from .dwork import (
    artin_hasse,
    char_c_crosscheck,
    char_series,
    facial_criterion,
    ordinariness_determinants,
    psi_a_matrix,
    verify_trace_formula,
)
from .errors import (
    DomainError,
    IntegralityError,
    ParseError,
    PrecisionError,
    TadicError,
    TheoremViolation,
)
from .polytope import (
    LaurentPoly,
    hodge_polygon,
    hodge_polygon_absolute,
    is_nondegenerate,
    newton_data,
    parse_laurent,
    restrict_to_face,
)
from .series import NewtonPolygon, SSeries, TSeries, polygon_dominates, polygon_verdict
from .sums import (
    c_function,
    congruence_check,
    l_function,
    np_report,
    s_f_T,
    s_f_psi,
    specialize,
    survey_family,
)

__version__ = "0.1.0"

__all__ = [
    "CycContext",
    "DomainError",
    "FieldContext",
    "IntegralityError",
    "LaurentPoly",
    "NewtonPolygon",
    "ParseError",
    "PrecisionError",
    "SSeries",
    "TSeries",
    "TadicError",
    "TheoremViolation",
    "artin_hasse",
    "c_function",
    "char_c_crosscheck",
    "char_series",
    "congruence_check",
    "facial_criterion",
    "field_context",
    "hodge_polygon",
    "hodge_polygon_absolute",
    "is_nondegenerate",
    "l_function",
    "newton_data",
    "np_report",
    "ordinariness_determinants",
    "parse_laurent",
    "polygon_dominates",
    "polygon_verdict",
    "psi_a_matrix",
    "restrict_to_face",
    "s_f_T",
    "s_f_psi",
    "specialize",
    "survey_family",
    "teichmuller_lift",
    "verify_trace_formula",
]
