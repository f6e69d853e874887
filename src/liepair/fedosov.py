"""The flat fiberwise differential built from a chart connection.

Starting from the connection derivation nabla and the contracting
homotopy, the recursion below produces a vertical correction field
X = X_2 + X_3 + ... (X_k of fiber degree k) such that

    D = nabla - delta + X

squares to zero: exactly on the base and odd generators, and up to the
working fiber window on the b generators (the correction beyond the
window is never computed).  Each step solves the fiber-degree-k slice of
the flatness equation with kappa:

    X_{k+1} = kappa( [nabla, X_k] + 1/2 sum_{a+b=k+1} [X_a, X_b] )

seeded by X_2 = kappa(R) with R the curvature as a vertical field.
The X_k are odd, so [X_a, X_b] = [X_b, X_a]: the sum forms each unordered
pair once, a < b with coefficient 1 and the self-bracket [X_a, X_a] with
1/2.  By construction kappa(X) = 0 and X has no fiber-degree < 2 part.

For matched pairs D splits by bidegree into D = D_A + D_B with
D_A^2 = 0, D_A D_B + D_B D_A = 0 and D_B^2 = 0 (same windows), and A
forms embed quasi-isomorphically along the D_B-horizontal lift mu.  The
lift of an alpha-only carrier a solves m = a + kappa((D_B + delta) m)
through the window.  D_B + delta never lowers fiber degree and kappa
raises it by exactly one, so the equation is triangular and is solved
one fiber degree at a time, the same way as the recursion for X:

    m_0 = a,    m_r = kappa( ((D_B + delta)(m_0 + ... + m_{r-1}))_{r-1} )

Every windowed check here passes its window to the product layer as a
fiber-degree budget, so no term above the window is ever formed.
"""

from __future__ import annotations

from .algebroid import HALF, ChartAlgebroid, curvature, nabla_derivation
from .errors import InternalInvariantError
from .graded import Derivation, GradedElement, _acc
from .homotopy import _dispatch, delta, delta_derivation, is_aform, kappa
from .sections import DSection, bracket_with, q_act


def r_dual(alg: ChartAlgebroid) -> DSection:
    """Curvature as a vertical field: -1/2 lam^i lam^j R_ijk^l b^k d/db^l."""
    comps = {}
    for (i, j, k, l), v in curvature(alg).items():
        term = (alg.lam(i) * alg.lam(j)).scale(v * (-HALF)) * GradedElement.bvar(k)
        _acc(comps, l, term)
    return DSection(comps)


def _pure_fiber_degree(sec: DSection, r: int) -> DSection:
    kept = sec.map_coeffs(lambda c: c.part(r=r))
    if kept != sec:
        raise InternalInvariantError(
            f"recursion source has terms outside fiber degree {r}"
        )
    return sec


def fedosov_x(alg: ChartAlgebroid, max_b: int) -> DSection:
    """The correction field through fiber degree max_b (at least 2)."""
    if max_b < 2:
        raise ValueError("the fiber window must be at least 2")
    nabla = nabla_derivation(alg)
    parts = {2: kappa(r_dual(alg))}
    for k in range(2, max_b):
        src = bracket_with(nabla, parts[k], "connection bracket in the recursion")
        for a in range(2, (k + 3) // 2):  # a <= b = k + 1 - a
            pair = parts[a].bracket(parts[k + 1 - a])
            if pair:
                src = src + (pair.scale(HALF) if 2 * a == k + 1 else pair)
        parts[k + 1] = kappa(_pure_fiber_degree(src, k))
    total = DSection()
    for k in sorted(parts):
        total = total + parts[k]
    return total


class FedosovData:
    """The assembled differential and its ingredients for one chart."""

    __slots__ = ("alg", "max_b", "nabla", "x_field", "D", "_atiyah")

    def __init__(self, alg, max_b, nabla, x_field, D):
        self.alg = alg
        self.max_b = max_b
        self.nabla = nabla
        self.x_field = x_field
        self.D = D
        # the untwisted cocycle, filled by atiyah.transgression_residual
        self._atiyah = None

    @property
    def window(self) -> int:
        """Fiber degree through which flatness identities are guaranteed."""
        return self.max_b - 1


def build_fedosov(alg: ChartAlgebroid, max_b: int = 4) -> FedosovData:
    nabla = nabla_derivation(alg)
    x_field = fedosov_x(alg, max_b)
    d = nabla - delta_derivation(alg.s) + x_field.as_derivation()
    return FedosovData(alg, max_b, nabla, x_field, d)


def connection_square_residual(alg: ChartAlgebroid) -> Derivation:
    """[nabla, nabla] - 2 R as derivations; zero for valid chart data."""
    nabla = nabla_derivation(alg)
    return nabla.commutator(nabla) - r_dual(alg).as_derivation().scale(2)


def commutator_defects(d1: Derivation, d2: Derivation, window: int) -> dict:
    """Generator-indexed nonzero values of [d1, d2], windowed on the fiber.

    Values on x, alpha and beta are exact; values on b are formed only
    through fiber degree window.  Empty dict means the bracket vanishes.
    """
    return {f"{kind}{i+1}": v for (kind, i), v in d1.commutator(d2, upto=window).vals.items()}


def flatness_defects(fd: FedosovData) -> dict:
    """Generator-indexed nonzero values of D^2 = [D, D]/2, windowed on the fiber.

    Values on x, alpha and beta must vanish exactly; values on b are
    tested through the window.  Empty dict means flat.
    """
    return {
        gen: v.scale(HALF)
        for gen, v in commutator_defects(fd.D, fd.D, fd.window).items()
    }


def split_fedosov(fd: FedosovData):
    """D = D_A + D_B by bidegree shift; matched pairs only."""
    if not fd.alg.matched:
        raise ValueError("the bidegree split needs a matched pair")
    da = fd.D.bidegree_part(1, 0)
    db = fd.D.bidegree_part(0, 1)
    if not (da + db) == fd.D:
        raise InternalInvariantError("differential has parts outside bidegrees (1,0) and (0,1)")
    return da, db


def mu_lift(fd: FedosovData, a):
    """The D_B-horizontal lift of an alpha-only carrier, exact through max_b.

    Solves m = a + kappa(D_B m + delta m) through fiber degree max_b one
    fiber degree at a time (module docstring): the new slice m_{r-1} is
    pushed through D_B + delta with budget max_b - 1 and added to the
    running image, whose fiber-degree r - 1 part kappa turns into m_r.
    The solution restricts back to a and is D_B-closed through the window.
    """
    if not fd.alg.matched:
        raise ValueError("the horizontal lift needs a matched pair")
    if not is_aform(a):
        raise ValueError("lift input must be an alpha-only carrier")
    _, db = split_fedosov(fd)
    budget = fd.max_b - 1
    m = new = a
    image = None
    for r in range(1, fd.max_b + 1):
        pushed = q_act(db, new, "lift iteration", upto=budget) + delta(new)
        below = pushed.truncate(r - 2)
        if below:
            raise InternalInvariantError(
                f"D_B + delta lowers fiber degree below {r - 1} in the horizontal lift"
            )
        image = pushed if image is None else image + pushed
        new = kappa(_dispatch(image, lambda c: c.part(r=r - 1)))
        m = m + new
    return m
