"""The contracting homotopy of the fiber direction.

delta wedges a beta for each b it differentiates away; kappa is its
homotopy inverse, moving a beta back into a b with the normalizing
factor 1/(q + r).  iota_star restricts to the alpha-only part (no betas,
no b powers); alpha-only elements are already elements of the full
algebra, so it is a projection.  Together they satisfy, on every carrier,

    delta kappa + kappa delta = id - iota_star
    delta delta = 0,  kappa kappa = 0,  iota_star iota_star = iota_star.

Sign conventions, fixed once and verified by the identity above:
  delta(c alpha^I beta^J b^e) appends beta^i on the right of the beta
  block, with prefactor (-1)^(p+q) and coefficient e_i;
  kappa removes beta^i at 1-based position m inside the beta block with
  sign (-1)^(m-1), prefactor (-1)^p, and factor 1/(q + r).

On sections and Hom-tensors all three operators act coefficientwise; for
delta this agrees with the graded commutator against the delta
derivation (a property checked in the test suite).
"""

from __future__ import annotations

from fractions import Fraction

from .graded import GEN_B, Derivation, GradedElement, Monomial, _acc
from .poly import _key_mul
from .sections import DSection, HomSection


def _delta_elem(a: GradedElement) -> GradedElement:
    out = {}
    for mon, coeff in a.terms.items():
        sign0 = -1 if (mon.p + mon.q) & 1 else 1
        r = mon.bdeg
        for slot, (i, e) in enumerate(mon.bexp):
            if i in mon.betas:
                continue
            pos = sum(1 for j in mon.betas if j < i)
            # the new beta enters on the right and walks to its slot
            sgn = sign0 * (-1 if (mon.q - pos) & 1 else 1)
            betas = mon.betas[:pos] + (i,) + mon.betas[pos:]
            bexp = mon.bexp[:slot] + ((i, e - 1),) * (e > 1) + mon.bexp[slot + 1:]
            _acc(out, Monomial._make(mon.alphas, betas, bexp, r - 1), coeff * Fraction(sgn * e))
    return GradedElement(out)


def _kappa_elem(a: GradedElement) -> GradedElement:
    out = {}
    for mon, coeff in a.terms.items():
        q, r = mon.q, mon.bdeg
        if q == 0:
            continue
        factor = Fraction(1, q + r)
        asig = -1 if mon.p & 1 else 1
        for pos, i in enumerate(mon.betas):
            sgn = asig * (-1 if pos & 1 else 1)
            betas = mon.betas[:pos] + mon.betas[pos + 1:]
            bexp = _key_mul(mon.bexp, ((i, 1),))
            _acc(out, Monomial._make(mon.alphas, betas, bexp, r + 1), coeff * (factor * sgn))
    return GradedElement(out)


def _iota_elem(a: GradedElement) -> GradedElement:
    return a.part(q=0, r=0)


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
    return _dispatch(a, _iota_elem)


def is_aform(a) -> bool:
    """True when the carrier already lives over the alpha-only subalgebra."""
    return iota_star(a) == a


def delta_derivation(s: int) -> Derivation:
    """delta as a derivation: b^i maps to beta^i, all else to zero."""
    return Derivation(1, {(GEN_B, i): GradedElement.beta(i) for i in range(s)})


def homotopy_defect(a):
    """delta kappa + kappa delta + iota_star - id; zero on every carrier."""
    lhs = delta(kappa(a)) + kappa(delta(a)) + iota_star(a)
    return lhs - a
