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
lift of an alpha-only function a solves m = a + kappa((D_B + delta) m)
through fiber degree max_b.  D_B + delta never lowers fiber degree and
kappa raises it by exactly one, so the equation is triangular and is
solved one fiber degree at a time, the same way as the recursion for X:

    m_0 = a,    m_r = kappa( ((D_B + delta)(m_0 + ... + m_{r-1}))_{r-1} )

The solution has no beta, and it is the only D_B-closed lift of a with
no beta: the lowest fiber-degree part r >= 1 of the difference of two
would be delta-closed without a beta, so zero.  Hence mu is
multiplicative, mu(f g) = mu(f) mu(g) through max_b (Fedosov's flat
sections form an algebra the same way), and it commutes with a change
of frame.  Sections and Hom-tensors are lifted through the flat frame
M_k = mu(d/db^k) = sum_n M_k^n d/db^n, whose entries are even, have
no alpha or beta and are 1 or 0 at fiber degree 0 (M = I + N, N of
fiber degree >= 1), so M^{-1} = sum_{p <= max_b} (-N)^p through max_b:

    mu(sum_k f_k d/db^k)  = sum_k mu(f_k) M_k
    mu(phi)_{lm}^n        = sum (M^{-1})_l^i (M^{-1})_m^j mu(phi_ij^k) M_k^n

No Koszul sign enters, since every frame factor is even.  The equation
for m is linear over Q, so mu(sum c x^k alpha_I) = sum c mu(x^k alpha_I)
with no product of lifts: a function, and each coefficient of a section
or Hom-tensor, is lifted as one kernel accumulator over its terms,
adding v/den times the lift of the term's basis monomial x^k alpha_I.
The split (D_A, D_B) is formed once per D, the frame (M, M^{-1}) and
the lift of each basis monomial once per FedosovData, on first use; M
and the monomial lifts are built by the recursion.  After its
coefficients are lifted, one _contract stage (graded.py) moves the
upper index k of a section or Hom-tensor through M, and one stage each
its lower indices i, then j, through M^{-1}; only the last stage's
result is divided by its gcd.  mu_lift takes the upto of
mul, apply and q_act: every stage forms fiber degrees <= upto only, and
all of them are >= 0, so mu_lift(fd, a, upto) == mu_lift(fd, a).truncate(upto).

Every windowed check here passes its window to the product layer as a
fiber-degree budget, so no term above the window is ever formed.
"""

from __future__ import annotations

from .algebroid import HALF, ChartAlgebroid, curvature, nabla_derivation
from .errors import InternalInvariantError
from .graded import Derivation, GradedElement, _acc, _collect, _contract, _finish, _mac, _operand
from .homotopy import _dispatch, delta, delta_derivation, kappa
from .sections import DSection, HomSection, _check_carrier, bracket_with, q_act


def r_dual(alg: ChartAlgebroid) -> DSection:
    """Curvature as a vertical field: -1/2 lam^i lam^j R_ijk^l b^k d/db^l.

    Formed once per chart (fedosov_x and connection_square_residual both
    read it); callers share the result and never mutate it.
    """
    if alg._r_dual is None:
        comps = {}
        for (i, j, k, l), v in curvature(alg).items():
            term = (alg.lam(i) * alg.lam(j)).scale(v * (-HALF)) * GradedElement.bvar(k)
            _acc(comps, l, term)
        alg._r_dual = DSection(comps)
    return alg._r_dual


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

    __slots__ = ("alg", "max_b", "nabla", "x_field", "D", "_frame", "_lifts")

    def __init__(self, alg, max_b, nabla, x_field, D):
        self.alg = alg
        self.max_b = max_b
        self.nabla = nabla
        self.x_field = x_field
        self.D = D
        # the flat frame, filled by _flat_frame
        self._frame = None
        # {(alpha monomial, base key): mu(x^k alpha_I) as a kernel operand},
        # filled by _lift_function
        self._lifts = {}

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
    through fiber degree window.  Keys are labels such as "b10", in the
    generator order of Derivation.commutator (x, alpha, beta, b, each by
    index), not in string order.  Empty dict means the bracket vanishes.
    """
    return {f"{kind}{i+1}": v for (kind, i), v in d1.commutator(d2, upto=window).vals.items()}


def flatness_defects(fd: FedosovData) -> dict:
    """Generator-indexed nonzero values of D^2 = [D, D]/2, windowed on the fiber.

    Values on x, alpha and beta must vanish exactly; values on b are
    tested through the window.  In generator order, as commutator_defects.
    Empty dict means flat.
    """
    return {
        gen: v.scale(HALF)
        for gen, v in commutator_defects(fd.D, fd.D, fd.window).items()
    }


def split_fedosov(fd: FedosovData):
    """D = D_A + D_B by bidegree shift; matched pairs only.  The parts are D's own, formed once."""
    if not fd.alg.matched:
        raise ValueError("the bidegree split needs a matched pair")
    if fd.D.bidegree_parts().keys() - {(1, 0), (0, 1)}:
        raise InternalInvariantError("differential has parts outside bidegrees (1,0) and (0,1)")
    return fd.D.bidegree_part(1, 0), fd.D.bidegree_part(0, 1)


def mu_lift(fd: FedosovData, a, upto=None):
    """The D_B-horizontal lift of an alpha-only carrier, exact through max_b.

    Functions are lifted by linearity from the cached lifts of their basis
    monomials, sections and Hom-tensors through the flat frame (module
    docstring).  The lift restricts back to a and is D_B-closed through
    the window.  With upto, only fiber degrees <= upto are formed:
    mu_lift(fd, a, upto) == mu_lift(fd, a).truncate(upto).
    """
    if not fd.alg.matched:
        raise ValueError("the horizontal lift needs a matched pair")
    _check_carrier(fd.alg, a, "lift input", aform=True)
    top = fd.max_b if upto is None else min(upto, fd.max_b)
    if isinstance(a, GradedElement):
        return _lift_function(fd, a, top)
    return _lift_carrier(fd, a, top)


def _lift(fd: FedosovData, a):
    """mu(a) by the recursion, for any alpha-only carrier.

    The new slice m_{r-1} is pushed through D_B + delta with budget
    max_b - 1 and added to the running image, whose fiber-degree r - 1
    part kappa turns into m_r.
    """
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
        new = kappa(_dispatch(image, lambda c: c.part(r=r - 1), 0))
        m = m + new
    return m


def _flat_frame(fd: FedosovData):
    """(M, M^{-1}) through fiber degree max_b, formed once per fd.

    Both are lists of rows, nonzero entries only: M[k] = {n: M_k^n} and
    M^{-1}[l] = {i: (M^{-1})_l^i}.  M^{-1} is summed by Horner's rule,
    P <- I - N P taken max_b times from P = I.
    """
    if fd._frame is None:
        s, top, one = fd.alg.s, fd.max_b, GradedElement.one()
        lifts = [_lift(fd, DSection.basis(k)) for k in range(s)]
        minus_n = [(DSection.basis(k) - lifts[k]).comps for k in range(s)]
        p = [{k: one} for k in range(s)]
        for _ in range(top):
            nxt = []
            for l in range(s):
                acc = {}
                for i, c in minus_n[l].items():
                    _contract(acc, c, ((key, _operand(f), 1) for key, f in p[i].items()), top)
                row = _collect(acc)
                _acc(row, l, one)
                nxt.append(row)
            p = nxt
        fd._frame = [m.comps for m in lifts], p
    return fd._frame


_ONE_X = {0: 1}  # the base polynomial 1, as a kernel term


def _lift_function(fd: FedosovData, a: GradedElement, top: int) -> GradedElement:
    """mu(a) through fiber degree top: sum over the terms v x^k alpha_I of a
    of v/den mu(x^k alpha_I), each monomial lifted once per fd by _lift."""
    lifts, acc = fd._lifts, [1, {}]
    for mon, t in a.num.items():
        for k, v in t.items():
            m = lifts.get((mon, k))
            if m is None:
                m = lifts[mon, k] = _operand(_lift(fd, GradedElement._make({mon: {k: 1}}, 1)))
            _mac(acc, m, [(0, _ONE_X, v)], a.den, 1, top)
    return _finish(acc)


def _lift_carrier(fd: FedosovData, a, top: int):
    """mu of a section or Hom-tensor through the flat frame, through fiber degree top."""
    m, inv = _flat_frame(fd)
    m = [{n: _operand(f) for n, f in row.items()} for row in m]
    if isinstance(a, HomSection):  # key (i, j, k): k through M, then i and j through M^{-1}
        cols = [{l: _operand(row[i]) for l, row in enumerate(inv) if i in row} for i in range(a.s)]
        comps, stages = a.comps, ((2, m), (0, cols), (1, cols))
    else:  # key k, as (k,) until the end
        comps, stages = {(k,): c for k, c in a.comps.items()}, ((0, m),)
    stage = {key: _lift_function(fd, c, top) for key, c in comps.items()}
    for n, (at, frame) in enumerate(stages, 1):
        accs = {}
        for key, e in stage.items():
            # the entry F = frame[key[at]][l] moves index key[at] to l
            moved = ((key[:at] + (l,) + key[at + 1:], f, 1) for l, f in frame[key[at]].items())
            _contract(accs, e, moved, top)
        stage = _collect(accs, canonical=n == len(stages))  # one gcd, on the result
    if isinstance(a, DSection):
        stage = {k: c for (k,), c in stage.items()}
    return a._like(stage, a.degree())
