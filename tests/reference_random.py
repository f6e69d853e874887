"""The random generators that random_elements.py replaced, kept as a test reference.

They build every drawn term as a Fraction, a Poly with tuple keys and a
checked Monomial and GradedElement.  Their bodies are unchanged.  The
generators of random_elements.py draw straight into the packed store and
must return equal values from the same draws, draw for draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from liepair.graded import GEN_ALPHA, GEN_B, GEN_BETA, GEN_X, Derivation, GradedElement, Monomial, _acc
from liepair.poly import Poly
from liepair.sections import DSection, HomSection


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_fraction(r: random.Random) -> Fraction:
    return Fraction(r.randint(-4, 4), r.randint(1, 3))


def random_poly(r: random.Random, n: int, max_degree: int = 2, terms: int = 2) -> Poly:
    coeffs = {}  # summed here and converted once
    for _ in range(terms):
        c = random_fraction(r)
        if not c:
            continue
        key = {}
        if n:
            for _ in range(r.randint(0, max_degree)):
                i = r.randrange(n)
                key[i] = key.get(i, 0) + 1
        _acc(coeffs, tuple(sorted(key.items())), c)
    return Poly(coeffs)


def _random_bexp(r: random.Random, s: int, max_b: int):
    bexp = {}
    if s:
        for _ in range(r.randint(0, max_b)):
            i = r.randrange(s)
            bexp[i] = bexp.get(i, 0) + 1
    return tuple(sorted(bexp.items()))


def _random_monomial(r: random.Random, s, t, p: int, q: int, max_b: int) -> Monomial:
    """p alpha and q beta indices, then the b-part, drawn in that order."""
    alphas, betas = tuple(sorted(r.sample(range(t), p))), tuple(sorted(r.sample(range(s), q)))
    return Monomial(alphas, betas, _random_bexp(r, s, max_b))


def random_element(r: random.Random, n, s, t, max_b: int = 3, terms: int = 3) -> GradedElement:
    """Mixed-degree element; suited to operator identities on functions."""
    coeffs = {}  # summed as Polys and converted once
    for _ in range(terms):
        p = r.randint(0, t)
        _acc(coeffs, _random_monomial(r, s, t, p, r.randint(0, s), max_b), random_poly(r, n))
    return GradedElement(coeffs)


def random_homogeneous(r: random.Random, n, s, t, degree: int,
                       max_b: int = 3, terms: int = 3) -> GradedElement:
    """Random element of one total degree (possibly zero if unrealizable)."""
    splits = [(p, degree - p) for p in range(degree + 1) if p <= t and degree - p <= s]
    coeffs = {}
    if not splits:
        return GradedElement()
    for _ in range(terms):
        _acc(coeffs, _random_monomial(r, s, t, *r.choice(splits), max_b), random_poly(r, n))
    return GradedElement(coeffs)


def random_aform(r: random.Random, n, t, degree: int, terms: int = 3) -> GradedElement:
    """Alpha-only element: no betas, no b powers."""
    if degree > t:
        return GradedElement.zero()
    coeffs = {}
    for _ in range(terms):
        mon = Monomial(tuple(sorted(r.sample(range(t), degree))), (), ())
        _acc(coeffs, mon, random_poly(r, n))
    return GradedElement(coeffs)


def random_dsection(r: random.Random, n, s, t, degree: int, max_b: int = 3) -> DSection:
    comps = {}
    for k in range(s):
        if r.random() < 0.75 and (c := random_homogeneous(r, n, s, t, degree, max_b)):
            comps[k] = c
    return DSection(comps)


def random_homsection(r: random.Random, n, s, t, degree: int, max_b: int = 3) -> HomSection:
    return _random_hom(r, s, 0.5, lambda: random_homogeneous(r, n, s, t, degree, max_b, terms=2))


def random_hom_aform(
    r: random.Random, n, s, t, degree: int, terms: int = 2, density: float = 0.5
) -> HomSection:
    """Hom-tensor whose coefficients are alpha-only forms of one degree."""
    return _random_hom(r, s, density, lambda: random_aform(r, n, t, degree, terms=terms))


def _random_hom(r, s, density, draw) -> HomSection:
    """Each component (i, j, k) in order: with probability density, a value drawn by draw()."""
    comps = {}
    for key in product(range(s), repeat=3):
        if r.random() < density and (c := draw()):
            comps[key] = c
    return HomSection(s, comps)


def random_derivation(r: random.Random, n, s, t, degree: int, max_b: int = 2) -> Derivation:
    def val(gen_degree):
        want = gen_degree + degree
        if want < 0:
            return GradedElement.zero()
        return random_homogeneous(r, n, s, t, want, max_b, terms=2)

    # drawn kind by kind, index ascending: one r.random() and then the value
    vals = {}
    kinds = ((GEN_X, n, 0), (GEN_ALPHA, t, 1), (GEN_BETA, s, 1), (GEN_B, s, 0))
    for kind, count, gen_degree in kinds:
        vals.update({(kind, i): val(gen_degree) for i in range(count) if r.random() < 0.6})
    return Derivation(degree, vals)
