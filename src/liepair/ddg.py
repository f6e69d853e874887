"""The bracket differential of the chart and the mixed module curvature.

d_L (algebroid.d_L_derivation) is the degree-one derivation encoding
anchor and bracket alone (zero on the b generators); the connection
derivation is d_L plus its b values.  Both are formed once per chart,
and split_dL partitions that one d_L.  On a Lie pair chart d_L splits by
bidegree shift into

    d_L = d10 + d01 + dm12

with shifts (1,0), (0,1) and (-1,2); a (2,-1) component would mean the
A-directions do not close under the bracket and is rejected.  For a
matched pair the (-1,2) part vanishes as well.

The connection derivation splits the same way, and on a matched pair
the mixed square

    R_m(Y) = -([nabla_A, [nabla_B, Y]] + [nabla_B, [nabla_A, Y]])

is a function-linear operator on vertical fields whose frame components
reproduce the classical cocycle of the pair.  Both facts are exposed
here so the suites can verify them by two independent routes.
"""

from __future__ import annotations

from .algebroid import ChartAlgebroid, d_L_derivation, nabla_derivation
from .errors import InternalInvariantError
from .sections import DSection, bracket_with, interior


def split_dL(alg: ChartAlgebroid) -> tuple:
    """(d10, d01, dm12), the bidegree components of the bracket differential."""
    d = d_L_derivation(alg)
    shifts = d.bidegree_parts().keys()
    if (2, -1) in shifts:
        raise ValueError("not a Lie pair presentation: [A, A] has a B component")
    if shifts - {(1, 0), (0, 1), (-1, 2)}:
        raise InternalInvariantError("bracket differential has an unexpected bidegree part")
    return d.bidegree_part(1, 0), d.bidegree_part(0, 1), d.bidegree_part(-1, 2)


class ModuleCurvature:
    """Mixed square of the connection on vertical fields (matched pairs)."""

    __slots__ = ("na", "nb", "mixed")

    def __init__(self, alg: ChartAlgebroid):
        if not alg.matched:
            raise ValueError("the mixed module curvature needs a matched pair")
        nab = nabla_derivation(alg)  # its parts are formed once per chart
        self.na, self.nb = nab.bidegree_part(1, 0), nab.bidegree_part(0, 1)
        self.mixed = self.na.commutator(self.nb)

    def d10(self, y: DSection) -> DSection:
        return bracket_with(self.na, y, "A-part of the connection")

    def d01(self, y: DSection) -> DSection:
        return bracket_with(self.nb, y, "B-part of the connection")

    def apply(self, y: DSection) -> DSection:
        """The defining double-bracket route."""
        t1 = self.d10(self.d01(y))
        t2 = self.d01(self.d10(y))
        return -(t1 + t2)

    def apply_via_mixed(self, y: DSection) -> DSection:
        """Independent route through the single mixed-square derivation."""
        return -bracket_with(self.mixed, y, "mixed square of the connection")


def module_curvature_components(alg: ChartAlgebroid, images) -> dict:
    """Frame components (a, b, k, l): contract images[k] = R_m(d/db^k), k < s, with B then A.

    The caller applies the module curvature to the frame fields once and
    passes the images in.  The inner beta-contraction runs first, then
    the alpha-contraction; values are scalar graded functions (base
    polynomials).
    """
    s, t = alg.s, alg.t
    out = {}
    for k, rm in enumerate(images):
        for l, c in rm.comps.items():
            for b in range(s):
                c1 = interior(b, s).apply(c)
                if not c1:
                    continue
                for a in range(t):
                    c2 = interior(s + a, s).apply(c1)
                    if c2:
                        out[(a, b, k, l)] = c2
    return out
