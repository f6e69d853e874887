"""Exact symbolic calculus for Lie pairs presented in a single chart.

The package works over the free graded-commutative algebra generated by
base coordinates x, odd generators alpha and beta, and even fiber
coordinates b, with all coefficients exact rationals.  On top of that it
builds the connection lift, the flat fiberwise differential obtained by
recursive homotopy correction, the restricted cocycle of the resulting
dg-algebroid, the classical cocycle of the underlying pair, and the
machinery needed to check that the first restricts to the second.
"""

from .algebroid import (
    ChartAlgebroid,
    CheckResult,
    CurvatureTensor,
    ValidationReport,
    complete_antisymmetric,
    curvature,
    d_A,
    d_A_on_hom,
    nabla_a_derivation,
    nabla_derivation,
    require_valid,
    validate_structure,
)
from .atiyah import (
    LiePairCocycle,
    atiyah_dg,
    atiyah_lie_pair,
    check_atiyah_comparison,
    d_hom,
    nabla0,
    q_section,
    transgression_residual,
)
from .ddg import (
    CEOperators,
    ModuleCurvature,
    d_L_derivation,
    module_curvature_components,
    split_dL,
)
from .errors import InternalInvariantError, LoadError, ValidationFailure
from .expressions import (
    ParseError,
    element_str,
    parse_poly,
    parse_rational,
    poly_str,
)
from .fedosov import (
    FedosovData,
    build_fedosov,
    connection_square_residual,
    fedosov_x,
    flatness_defects,
    mu_lift,
    r_dual,
    split_fedosov,
)
from .fixtures import BUILDERS, MATCHED_NAMES, VALID_NAMES, build
from .graded import Derivation, GradedElement, Monomial
from .homotopy import (
    delta,
    delta_derivation,
    homotopy_defect,
    iota_star,
    is_aform,
    kappa,
    pi_star,
    sigma,
)
from .loader import LoadedChart, load_chart, load_chart_dict
from .poly import Poly
from .sections import DSection, HomSection, evaluate, hom_bracket, interior, q_act
from .suites import (
    SUITE_NAMES,
    atiyah_suite,
    ddg_suite,
    fedosov_suite,
    homotopy_suite,
    run_suites,
)

__version__ = "0.1.0"

__all__ = [
    "BUILDERS",
    "CEOperators",
    "ChartAlgebroid",
    "CheckResult",
    "CurvatureTensor",
    "Derivation",
    "DSection",
    "FedosovData",
    "GradedElement",
    "HomSection",
    "InternalInvariantError",
    "LiePairCocycle",
    "LoadError",
    "LoadedChart",
    "MATCHED_NAMES",
    "ModuleCurvature",
    "Monomial",
    "ParseError",
    "Poly",
    "SUITE_NAMES",
    "VALID_NAMES",
    "ValidationFailure",
    "ValidationReport",
    "atiyah_dg",
    "atiyah_lie_pair",
    "atiyah_suite",
    "build",
    "build_fedosov",
    "check_atiyah_comparison",
    "complete_antisymmetric",
    "connection_square_residual",
    "curvature",
    "d_A",
    "d_A_on_hom",
    "d_hom",
    "d_L_derivation",
    "ddg_suite",
    "delta",
    "delta_derivation",
    "element_str",
    "evaluate",
    "fedosov_suite",
    "fedosov_x",
    "flatness_defects",
    "hom_bracket",
    "homotopy_defect",
    "homotopy_suite",
    "interior",
    "iota_star",
    "is_aform",
    "kappa",
    "load_chart",
    "load_chart_dict",
    "module_curvature_components",
    "mu_lift",
    "nabla0",
    "nabla_a_derivation",
    "nabla_derivation",
    "parse_poly",
    "parse_rational",
    "pi_star",
    "poly_str",
    "q_act",
    "q_section",
    "r_dual",
    "require_valid",
    "run_suites",
    "sigma",
    "split_dL",
    "split_fedosov",
    "validate_structure",
]
