"""Exact symbolic calculus for Lie pairs presented in a single chart.

The package works over the free graded-commutative algebra generated by
base coordinates x, odd generators alpha and beta, and even fiber
coordinates b, with all coefficients exact rationals.  On top of that it
builds the connection lift, the flat fiberwise differential obtained by
recursive homotopy correction, the restricted cocycle of the resulting
dg-algebroid, the classical cocycle of the underlying pair, and the
machinery needed to check that the first restricts to the second.

The names below are the ones the README and the demos use; everything
else is imported from its own module (liepair.sections, liepair.ddg, ...).
"""

from .algebroid import curvature, validate_structure
from .atiyah import atiyah_dg, atiyah_lie_pair, check_atiyah_comparison
from .expressions import element_str
from .fedosov import build_fedosov, fedosov_x, flatness_defects, mu_lift, split_fedosov
from .graded import GradedElement
from .homotopy import delta, homotopy_defect, iota_star, kappa
from .loader import load_chart

__version__ = "0.1.0"

__all__ = [
    "GradedElement",
    "atiyah_dg",
    "atiyah_lie_pair",
    "build_fedosov",
    "check_atiyah_comparison",
    "curvature",
    "delta",
    "element_str",
    "fedosov_x",
    "flatness_defects",
    "homotopy_defect",
    "iota_star",
    "kappa",
    "load_chart",
    "mu_lift",
    "split_fedosov",
    "validate_structure",
]
