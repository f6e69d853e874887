"""The contracting homotopy of the fiber direction.

delta wedges a beta for each b it differentiates away; kappa is its
homotopy inverse, moving a beta back into a b with the normalizing
factor 1/(q + r).  iota_star restricts to the alpha-only part (no betas,
no b powers); alpha-only elements are already elements of the full
algebra, so it is a projection.  Together they satisfy, on every carrier,

    delta kappa + kappa delta = id - iota_star
    delta delta = 0,  kappa kappa = 0,  iota_star iota_star = iota_star.

Sign convention, the one rule of graded.py, verified by the identity
above: a term that puts beta^i in (delta: b^i -> beta^i with factor e_i)
or takes it out (kappa: beta^i -> b^i with factor 1/(q + r)) carries (-1)
to the number of odd generators of the monomial below the slot of beta^i.
Both feed the moved terms, with their stored numerators, to the product
kernel against one constant x-term, 1 or 1/(q + r).  kappa past fiber
degree MAX_FIBER raises ValueError.

On sections and Hom-tensors all three operators act coefficientwise; for
delta this agrees with the graded commutator against the delta
derivation (a property checked in the test suite).
"""

from __future__ import annotations

from .graded import _INF, GEN_B, GEN_BETA, MAX_FIBER, Derivation, GradedElement
from .graded import _b_unit, _below_sign, _finish, _mac, _odd_bit, _operand
from .sections import DSection, HomSection

_ONE = _operand(GradedElement.one())[0]  # the x-term 1, over 1 (delta) or q + r (kappa)


def _delta_elem(a: GradedElement) -> GradedElement:
    ys = []
    for mon, t in a.num.items():
        for i, e in mon.bexp:
            beta = _odd_bit(GEN_BETA, i)
            if not mon & beta:
                ys.append((mon - _b_unit(i) + beta, t, _below_sign(mon, beta) * e))
    acc = [1, {}]
    _mac(acc, (_ONE, 1), ys, a.den, 1, _INF)
    return _finish(acc)


def _kappa_elem(a: GradedElement) -> GradedElement:
    groups = {}  # q + r -> moved terms
    for mon, t in a.num.items():
        q, r = mon.q, mon.bdeg
        if not q:
            continue
        if r == MAX_FIBER:
            raise ValueError(f"kappa passes fiber degree {MAX_FIBER}")
        ys = groups.setdefault(q + r, [])
        for i in mon.betas:
            beta = _odd_bit(GEN_BETA, i)
            ys.append(((mon ^ beta) + _b_unit(i), t, _below_sign(mon, beta)))
    acc = [1, {}]
    for n, ys in groups.items():
        _mac(acc, (_ONE, n), ys, a.den, 1, _INF)
    return _finish(acc)


def _dispatch(a, fn):
    if isinstance(a, GradedElement):
        return fn(a)
    if isinstance(a, (DSection, HomSection)):
        return a.map_coeffs(fn)
    raise TypeError(type(a))


def delta(a):
    return _dispatch(a, _delta_elem)


def kappa(a):
    return _dispatch(a, _kappa_elem)


def iota_star(a):
    """Restrict to the alpha-only subalgebra (kills betas and b powers)."""
    return _dispatch(a, lambda e: e.part(q=0, r=0))


def delta_derivation(s: int) -> Derivation:
    """delta as a derivation: b^i maps to beta^i, all else to zero."""
    return Derivation(1, {(GEN_B, i): GradedElement.beta(i) for i in range(s)})


def homotopy_defect(a):
    """delta kappa + kappa delta + iota_star - id; zero on every carrier."""
    return _homotopy_defect(a, delta(a), kappa(a), iota_star(a))


def _homotopy_defect(a, da, ka, ia):
    """homotopy_defect(a), given da = delta(a), ka = kappa(a) and ia = iota_star(a)."""
    return delta(ka) + kappa(da) + ia - a
