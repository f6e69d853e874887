"""The two obstruction cocycles attached to a chart presentation.

The classical cocycle of the pair pairs an A-direction with two
B-directions through the curvature of the extending connection:

    At[a; j, k -> l] = R_{(s+a) j k}^l.

It is a 1-form on A valued in Hom(B (x) B, B); as_hom renders it on the
graded chart with one alpha factor per A-slot.

The fiberwise differential D of a FedosovData acts on vertical fields by
q(Y) = [D, Y].  Relative to the coefficientwise connection nabla0 (the
coordinate frame d/db is nabla0-flat), the curvature-type expression

    At_D(X, Y) = - nabla0_{qX} Y - nabla0_X (qY)

on frame fields assembles the second cocycle as a degree-one Hom-tensor.
A frame field Y has the constant coefficient 1, so nabla0_{qX} Y is zero
and atiyah_dg does not form it.  A degree-zero Hom-valued shift T of the
connection adds one term:

    At_D^T = At_D + q(T(X, Y)) - T(qX, Y) - T(X, qY).

On frame fields T(e_i, e_j) is row (i, j) of T, {k: T_ij^k}, and
T(qX, e_j) + T(e_i, qY) is formed over the components of T: one
_contract (graded.py) per T_nm^k moves its index n through the column n
of the q(e_l) to (l, m, k), and its index m the same way to (n, l, k).
The q(e_l) and their columns are the rows that d_hom reads too
(sections._frame_rows), formed once per D and budget.  Only
q(T(e_i, e_j)) is formed afresh, as a section bracket.  The shift term
is the induced action of D on T, so changing the shift changes the
cocycle by an exact term; transgression_residual compares the shift
term with d_hom, whose hom_bracket takes the Leibniz route instead of
the section bracket.  Restricting the cocycle along iota_star recovers
the classical cocycle plus the exact term of the restricted shift:

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

# what bracket_with names when [D, Y] is not vertical
_ON_FIELDS = "fiberwise differential on a vertical field"


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
    """The degree-one cocycle of D relative to nabla0, plus the shift term of twist if given.

    With upto, only fiber degrees <= upto are formed:
    atiyah_dg(fd, twist, upto) == atiyah_dg(fd, twist).truncate(upto).
    """
    _check_shift(fd, twist)
    s = fd.alg.s
    limit = _INF if upto is None else upto
    # nabla0 along a frame field and D's -delta both lower fiber degree by
    # one, so what they act on is kept through limit + 1
    qb, _, _ = _frame_rows(fd.D, s, limit + 1, _ON_FIELDS)
    comps = {}
    for i in range(s):
        ei = DSection.basis(i)
        for j in range(s):
            # nabla0_{qX} Y is zero: the frame field Y has constant coefficients
            comps.update(((i, j, k), -c) for k, c in nabla0(ei, qb[j], limit).comps.items())
    out = HomSection(s, comps)
    return out if twist is None else out + _shift(fd, twist, limit)


def _shift(fd: FedosovData, twist: HomSection, limit) -> HomSection:
    """q(T(X, Y)) - T(qX, Y) - T(X, qY) on frame fields, through fiber degree limit."""
    s = fd.alg.s
    above = limit + 1
    _, _, cols = _frame_rows(fd.D, s, above, _ON_FIELDS)
    rows = {}  # T by rows, (i, j) -> {k: T_ij^k}
    for (i, j, k), c in twist.comps.items():
        rows.setdefault((i, j), {})[k] = c.truncate(above)
    comps = {}
    for (i, j), row in rows.items():
        # T(e_i, e_j) is row (i, j); q of it stays a section bracket
        q = bracket_with(fd.D, DSection(row), _ON_FIELDS, limit)
        comps.update(((i, j, k), c) for k, c in q.comps.items())
    # T(qX, Y) + T(X, qY): each T_nm^k moves index n, then index m, through
    # the columns of the q(e_l); no Koszul sign, T holds no odd generator
    accs = {}
    for (n, m, k), c in twist.comps.items():
        moves = chain((((l, m, k), qn, 1) for l, qn in cols[n]),
                      (((n, l, k), qn, 1) for l, qn in cols[m]))
        _contract(accs, c, moves, limit)
    return HomSection(s, comps) - HomSection(s, _collect(accs))


def d_hom(fd: FedosovData, phi: HomSection, upto=None) -> HomSection:
    """The induced action of D on Hom-tensors, through fiber degree upto if given."""
    return hom_bracket(fd.D, phi, "fiberwise differential on a Hom-tensor", upto)


def transgression_residual(fd: FedosovData, twist: HomSection) -> HomSection:
    """At_D^T - At_D - [D, T], formed as the shift term minus d_hom; vanishes identically."""
    if twist is None:
        raise ValueError("the transgression needs a connection shift")
    _check_shift(fd, twist)
    return _shift(fd, twist, _INF) - d_hom(fd, twist)


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
