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
Both rewrite the packed keys directly, with no product against 1: one
pass moves every term, summing the numerators of terms that meet on one
key, then zeros are dropped and the result is divided by one gcd.
kappa groups its terms by q + r and puts them over the lcm of those
factors.  kappa past fiber degree MAX_FIBER raises ValueError.

On sections and Hom-tensors all three operators act coefficientwise and
shift the carried degree by +1 (delta), -1 (kappa) or 0 (iota_star); for
delta this agrees with the graded commutator against the delta
derivation (a property checked in the test suite).
"""

from __future__ import annotations

from math import lcm

from .graded import GEN_B, MAX_FIBER, Derivation, GradedElement
from .graded import _B0, _BETA0, _BETAS, _b_unit, _below_sign, _kept, _reduced
from .sections import DSection, HomSection


def _move(num, key, t, f):
    """num[key] += f * t, t an inner dict {base key: int}; t itself is never changed."""
    cur = num.get(key)
    if cur is None:
        num[key] = {k: f * v for k, v in t.items()}
    else:
        for k, v in t.items():
            cur[k] = cur.get(k, 0) + f * v


def _delta_elem(a: GradedElement) -> GradedElement:
    num = {}
    for mon, t in a.num.items():
        # the field of b^i (exponent e) and beta^i, i = 0, 1, ...; b^i -> beta^i
        # takes bit and one fiber degree off the key and puts beta in
        fields, beta, bit = mon >> _B0, 1 << _BETA0, 1 << _B0
        while fields:
            if (e := fields & 255) and not mon & beta:
                _move(num, mon - bit - 1 + beta, t, _below_sign(mon, beta) * e)
            fields, beta, bit = fields >> 8, beta << 1, bit << 8
    return _reduced(_kept(num), a.den)


def _kappa_elem(a: GradedElement) -> GradedElement:
    groups = {}  # q + r -> the terms with a beta
    for mon, t in a.num.items():
        if betas := mon & _BETAS:
            if (r := mon & MAX_FIBER) == MAX_FIBER:
                raise ValueError(f"kappa passes fiber degree {MAX_FIBER}")
            groups.setdefault(betas.bit_count() + r, []).append((mon, t))
    den, num = lcm(*groups), {}
    for n, terms in groups.items():
        f = den // n
        for mon, t in terms:
            betas = mon & _BETAS
            while betas:  # beta^i -> b^i, lowest i first
                beta = betas & -betas
                betas ^= beta
                key = (mon ^ beta) + _b_unit(beta.bit_length() - 1 - _BETA0)
                _move(num, key, t, _below_sign(mon, beta) * f)
    return _reduced(_kept(num), a.den * den)


def _dispatch(a, fn, shift):
    """fn on a function, or on every component of a carrier, whose degree it shifts by shift."""
    if isinstance(a, GradedElement):
        return fn(a)
    if isinstance(a, (DSection, HomSection)):
        comps = {k: w for k, v in a.comps.items() if (w := fn(v))}
        return a._like(comps, a.degree() + shift if comps else None)
    raise TypeError(type(a))


def delta(a):
    return _dispatch(a, _delta_elem, 1)


def kappa(a):
    return _dispatch(a, _kappa_elem, -1)


def iota_star(a):
    """Restrict to the alpha-only subalgebra (kills betas and b powers)."""
    return _dispatch(a, lambda e: e.part(q=0, r=0), 0)


def delta_derivation(s: int) -> Derivation:
    """delta as a derivation: b^i maps to beta^i, all else to zero."""
    return Derivation(1, {(GEN_B, i): GradedElement.beta(i) for i in range(s)})


def homotopy_defect(a):
    """delta kappa + kappa delta + iota_star - id; zero on every carrier."""
    return _homotopy_defect(a, delta(a), kappa(a), iota_star(a))


def _homotopy_defect(a, da, ka, ia):
    """homotopy_defect(a), given da = delta(a), ka = kappa(a) and ia = iota_star(a)."""
    return delta(ka) + kappa(da) + ia - a
