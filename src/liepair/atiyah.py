"""The two obstruction cocycles attached to a chart presentation.

The classical cocycle of the pair pairs an A-direction with two
B-directions through the curvature of the extending connection:

    At[a; j, k -> l] = R_{(s+a) j k}^l.

It is a 1-form on A valued in Hom(B (x) B, B); as_hom renders it on the
graded chart with one alpha factor per A-slot.

The fiberwise differential D of a FedosovData acts on vertical fields by
q(Y) = [D, Y].  Relative to the coefficientwise connection nabla0 (the
coordinate frame d/db is nabla0-flat) and an optional degree-zero
Hom-valued shift, the curvature-type expression

    At(X, Y) = q(T(X, Y)) - nabla0_{qX} Y - T(qX, Y)
                          - nabla0_X (qY) - T(X, qY)

on frame fields assembles the second cocycle as a degree-one Hom-tensor.
A frame field Y has the constant coefficient 1, so nabla0_{qX} Y is zero
and atiyah_dg does not form it.  For the same reason T(e_i, e_j) is row
(i, j) of T, {k: T_ij^k}, and T(qX, e_j) + T(e_i, qY) is formed over the
components of T: one _contract (graded.py) per T_nm^k moves its index n
through the column n of the q(e_l) to (l, m, k), and its index m the
same way to (n, l, k).  The q(e_l) and their columns are the rows that
d_hom reads too (sections._frame_rows), formed once per D and budget.
Only q(T(e_i, e_j)) is formed afresh, as a section bracket, so the
transgression check still compares two routes.  Changing the shift
changes this cocycle by an exact term (the induced action of D on the
shift), and restricting it along iota_star recovers the classical
cocycle plus the exact term of the restricted shift:

    iota_star(At_D^T) = At_pair + d_A(iota_star(T)).

check_atiyah_comparison returns the residual of that relation.  Since
iota_star keeps no b-power, it forms the cocycle at fiber degree 0 only
(the upto budget of atiyah_dg); transgression_residual is an identity
at every fiber degree and stays unbudgeted.
"""

from __future__ import annotations

from itertools import chain

from .algebroid import ChartAlgebroid, curvature, d_A
from .fedosov import FedosovData
from .graded import _INF, GradedElement, _acc, _collect, _contract
from .homotopy import iota_star
from .poly import Poly
from .sections import DSection, HomSection, _frame_rows, bracket_with, hom_bracket


class LiePairCocycle:
    """Components At[a; j, k -> l] with a an A-index and j, k, l B-indices."""

    __slots__ = ("alg", "comps")

    def __init__(self, alg: ChartAlgebroid, comps):
        self.alg = alg
        self.comps = {k: v for k, v in comps.items() if v}

    def at(self, a, j, k, l) -> Poly:
        return self.comps.get((a, j, k, l), Poly.zero())

    def is_symmetric(self) -> bool:
        """Symmetry in the two B-arguments."""
        for (a, j, k, l), v in self.comps.items():
            if self.at(a, k, j, l) != v:
                return False
        return True

    def as_hom(self) -> HomSection:
        """Render on the chart: each A-slot becomes an alpha factor."""
        out = {}
        for (a, j, k, l), v in self.comps.items():
            _acc(out, (j, k, l), GradedElement.alpha(a).scale(v))
        return HomSection(self.alg.s, out)


def atiyah_lie_pair(alg: ChartAlgebroid) -> LiePairCocycle:
    comps = {}
    for (i, j, k, l), v in curvature(alg).items():
        if i >= alg.s and j < alg.s:
            comps[(i - alg.s, j, k, l)] = v
    return LiePairCocycle(alg, comps)


def q_section(fd: FedosovData, y: DSection, upto=None) -> DSection:
    """[D, Y]; the action of the fiberwise differential on vertical fields."""
    return bracket_with(fd.D, y, "fiberwise differential on a vertical field", upto)


def nabla0(x: DSection, y: DSection, upto=None) -> DSection:
    """Coefficientwise derivative of y along x (the frame fields are flat)."""
    xd = x.as_derivation()
    return DSection({j: xd.apply(c, upto) for j, c in y.comps.items()})


def _check_shift(fd, twist):
    if twist is None:
        return
    if not isinstance(twist, HomSection):
        raise TypeError("connection shift must be a Hom-tensor")
    if twist.degree() not in (None, 0):
        raise ValueError("connection shift must have degree zero")
    if twist.s != fd.alg.s:
        raise ValueError(f"connection shift has rank {twist.s}, the chart has rank_B {fd.alg.s}")


def atiyah_dg(fd: FedosovData, twist: HomSection | None = None, upto=None) -> HomSection:
    """The degree-one cocycle of D relative to nabla0 plus an optional shift.

    With upto, only fiber degrees <= upto are formed:
    atiyah_dg(fd, twist, upto) == atiyah_dg(fd, twist).truncate(upto).
    """
    _check_shift(fd, twist)
    s = fd.alg.s
    limit = _INF if upto is None else upto
    # nabla0 along a frame field and D's -delta both lower fiber degree by
    # one, so what they act on is kept through limit + 1
    above = limit + 1
    basis = [DSection.basis(i) for i in range(s)]
    qb, _, cols = _frame_rows(fd.D, s, above, "fiberwise differential on a vertical field")
    rows = {}  # T by rows, (i, j) -> {k: T_ij^k}
    for (i, j, k), c in (twist.comps.items() if twist is not None else ()):
        rows.setdefault((i, j), {})[k] = c
    comps = {}
    for i in range(s):
        for j in range(s):
            # nabla0_{qX} Y is zero: the frame field Y has constant coefficients
            total = -nabla0(basis[i], qb[j], limit)
            if twist is not None:
                # T(e_i, e_j) is row (i, j); q of it stays a section bracket
                shift = {k: c.truncate(above) for k, c in rows.get((i, j), {}).items()}
                total = total + q_section(fd, DSection(shift), limit)
            comps.update(((i, j, k), c) for k, c in total.comps.items())
    out = HomSection(s, comps)
    if twist is None:
        return out
    # T(qX, Y) + T(X, qY): each T_nm^k moves index n, then index m, through
    # the columns of the q(e_l); no Koszul sign, T holds no odd generator
    accs = {}
    for (n, m, k), c in twist.comps.items():
        moves = chain((((l, m, k), qn, 1) for l, qn in cols[n]),
                      (((n, l, k), qn, 1) for l, qn in cols[m]))
        _contract(accs, c, moves, limit)
    return out - HomSection(s, _collect(accs))


def d_hom(fd: FedosovData, phi: HomSection, upto=None) -> HomSection:
    """The induced action of D on Hom-tensors, through fiber degree upto if given."""
    return hom_bracket(fd.D, phi, "fiberwise differential on a Hom-tensor", upto)


def transgression_residual(fd: FedosovData, twist: HomSection) -> HomSection:
    """At_D^T - At_D - [D, T]; vanishes identically.

    The untwisted At_D is formed once per FedosovData and kept on it.
    """
    if twist is None:
        raise ValueError("the transgression needs a connection shift")
    _check_shift(fd, twist)
    if fd._atiyah is None:
        fd._atiyah = atiyah_dg(fd)
    return atiyah_dg(fd, twist) - fd._atiyah - d_hom(fd, twist)


def check_atiyah_comparison(
    fd: FedosovData, twist: HomSection | None = None, pair: LiePairCocycle | None = None
) -> HomSection:
    """Residual of the restriction relation between the two cocycles.

    Returns iota_star(At_D^T) - At_pair - d_A(iota_star(T)); the zero
    Hom-tensor certifies the relation for this chart and window.  A
    caller that already holds atiyah_lie_pair(fd.alg) passes it as pair.
    """
    if not fd.alg.matched:
        raise ValueError("the cocycle comparison needs a matched pair")
    _check_shift(fd, twist)
    # iota_star keeps neither b-powers nor betas: fiber degree 0 suffices
    restricted = iota_star(atiyah_dg(fd, twist, upto=0))
    if pair is None:
        pair = atiyah_lie_pair(fd.alg)
    right = pair.as_hom()
    if twist is not None:
        right = right + d_A(pair.alg, iota_star(twist))
    return restricted - right
