"""The two obstruction cocycles attached to a chart presentation.

The classical cocycle of the pair pairs an A-direction with two
B-directions through the curvature of the extending connection:

    At[a; j, k -> l] = R_{(s+a) j k}^l.

atiyah_lie_pair returns its nonzero components as a plain dict
{(a, j, k, l): Poly} in sorted key order.  pair_is_symmetric tests it
for symmetry in j and k, and pair_as_hom renders it on the graded chart
as a 1-form on A valued in Hom(B (x) B, B), one alpha factor per A-slot.

The fiberwise differential D of a FedosovData acts on vertical fields by
q(Y) = [D, Y].  Relative to the coefficientwise connection, in which the
coordinate frame d/db is flat, the curvature-type expression

    At_D(X, Y) = - nabla_{qX} Y - nabla_X (qY)

on frame fields assembles the second cocycle as a degree-one Hom-tensor.
A frame field Y has the constant coefficient 1, so the first term is
zero; atiyah_dg forms the second by applying d/db^i to the coefficients
of the rows q(e_j), which d_hom and transgression_residual read too
(sections._frame_rows forms them once per D, exact).  A degree-zero
connection shift T adds the induced action of D on T, an exact term:

    At_D^T = At_D + q(T(X, Y)) - T(qX, Y) - T(X, qY) = At_D + d_hom(T).

atiyah_dg forms that term as d_hom does, by hom_bracket (the Leibniz
route), once _check_shift has gated T.  transgression_residual forms it
a second way and subtracts that hom_bracket: q(T(e_i, e_j)) as a
section bracket of row (i, j) of T, {k: T_ij^k}, and T(qX, e_j) +
T(e_i, qY) by one _contract (graded.py) per T_nm^k, which moves its
index n through the column n of the q(e_l) to (l, m, k), and its index
m the same way to (n, l, k).  Restricting the cocycle along iota_star
recovers the classical cocycle plus the exact term of the restricted
shift:

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
from .sections import DSection, HomSection, _check_carrier, _frame_rows, bracket_with, hom_bracket


def atiyah_lie_pair(alg: ChartAlgebroid) -> dict:
    """The nonzero components {(a, j, k, l): Poly}, a an A-index and j, k, l B-indices.

    In sorted key order, read off curvature(alg) (sorted too).
    """
    s = alg.s
    return {(i - s, j, k, l): v for (i, j, k, l), v in curvature(alg).items() if i >= s > j}


def pair_is_symmetric(pair: dict) -> bool:
    """Symmetry of a pair cocycle in its two B-arguments (nonzero components only)."""
    return all(pair.get((a, k, j, l)) == v for (a, j, k, l), v in pair.items())


def pair_as_hom(pair: dict, s: int) -> HomSection:
    """A pair cocycle of rank_B s on the chart: each A-slot becomes an alpha factor."""
    out = {}
    for (a, j, k, l), v in pair.items():
        _acc(out, (j, k, l), GradedElement.alpha(a).scale(v))
    return HomSection(s, out)


def _check_shift(fd, twist):
    if twist is None:
        return
    _check_carrier(fd.alg, twist, "connection shift", kinds=(HomSection,))
    if twist.degree() not in (None, 0):
        raise ValueError("connection shift must have degree zero")


def atiyah_dg(fd: FedosovData, twist: HomSection | None = None, upto=None) -> HomSection:
    """The degree-one cocycle of D, plus d_hom(twist) if a shift is given.

    With upto, only fiber degrees <= upto are formed:
    atiyah_dg(fd, twist, upto) == atiyah_dg(fd, twist).truncate(upto).
    atiyah_dg(fd) has terms through fiber degree fd.window - 1 only, all
    exact: d/db^i lowers the rows [D, e_j], exact through fd.window, by one.
    """
    _check_shift(fd, twist)
    s = fd.alg.s
    qb, _, _ = _frame_rows(fd.D, s)
    comps = {}
    for i in range(s):
        di = DSection.basis(i).as_derivation()
        for j in range(s):
            for k, c in qb[j].comps.items():
                if v := di.apply(c, upto):
                    comps[i, j, k] = -v
    out = HomSection(s, comps)
    return out if twist is None else out + hom_bracket(fd.D, twist, upto)


def d_hom(fd: FedosovData, phi: HomSection, upto=None) -> HomSection:
    """The induced action of D on Hom-tensors, through fiber degree upto if given.

    Unbudgeted, the result has terms up to fiber degree fd.window plus the
    top fiber degree of phi, but is exact only through fd.window: D's
    values on b stop at max_b, so its rows [D, e_k] at fd.window.
    """
    _check_carrier(fd.alg, phi, "Hom-tensor", kinds=(HomSection,))
    return hom_bracket(fd.D, phi, upto)


def transgression_residual(fd: FedosovData, twist: HomSection) -> HomSection:
    """q(T(X, Y)) - T(qX, Y) - T(X, qY) on frame fields, minus d_hom(T); vanishes identically.

    The shift term is formed by section brackets and the columns of the
    rows q(e_l) (module docstring), never through hom_bracket; d_hom(T)
    is hom_bracket(fd.D, T), T gated once by _check_shift.
    """
    if twist is None:
        raise ValueError("the transgression needs a connection shift")
    _check_shift(fd, twist)
    s = fd.alg.s
    _, _, cols = _frame_rows(fd.D, s)
    rows = {}  # T by rows, (i, j) -> {k: T_ij^k}
    for (i, j, k), c in twist.comps.items():
        rows.setdefault((i, j), {})[k] = c
    comps = {}
    for (i, j), row in rows.items():
        q = bracket_with(fd.D, DSection(row), "fiberwise differential on a vertical field")
        comps.update(((i, j, k), c) for k, c in q.comps.items())
    # T(qX, Y) + T(X, qY): each T_nm^k moves index n, then index m, through
    # the columns of the q(e_l); no Koszul sign, T holds no odd generator
    accs = {}
    for (n, m, k), c in twist.comps.items():
        moves = chain((((l, m, k), qn, 1) for l, qn in cols[n]),
                      (((n, l, k), qn, 1) for l, qn in cols[m]))
        _contract(accs, c, moves, _INF)
    return HomSection(s, comps) - HomSection(s, _collect(accs)) - hom_bracket(fd.D, twist)


def check_atiyah_comparison(
    fd: FedosovData, twist: HomSection | None = None, pair: dict | None = None
) -> HomSection:
    """Residual of the restriction relation between the two cocycles.

    Returns iota_star(At_D^T) - At_pair - d_A(iota_star(T)); the zero
    Hom-tensor certifies the relation for this chart and window.  A
    caller that already holds atiyah_lie_pair(fd.alg) passes it as pair.
    """
    alg = fd.alg
    if not alg.matched:
        raise ValueError("the cocycle comparison needs a matched pair")
    # iota_star keeps neither b-powers nor betas: fiber degree 0 suffices
    restricted = iota_star(atiyah_dg(fd, twist, upto=0))
    right = pair_as_hom(atiyah_lie_pair(alg) if pair is None else pair, alg.s)
    if twist is not None:
        right = right + d_A(alg, iota_star(twist))
    return restricted - right
