"""The integer store of GradedElement: canonical form, the read-only view, the guard.

Kernel results are compared with the tuple-walking references of
test_kernel.py on seeded elements with mixed denominators, two or three
base variables and base exponents up to half the field, so every product
stays within MAX_EXP and the largest reach it.
"""

from fractions import Fraction
from math import gcd

import pytest

from liepair.graded import MAX_EXP, Derivation, GradedElement, Monomial
from liepair.homotopy import delta, kappa
from liepair.poly import Poly
from liepair.random_elements import random_derivation, random_element, rng

from conftest import table
from test_kernel import ref_apply, ref_commutator, ref_delta, ref_kappa, ref_mul

HALF = MAX_EXP // 2
EXPONENTS = (1, 2, HALF - 1, HALF)
DENOMINATORS = (1, 2, 3, 4, 6, 9)


def big_poly(r, n):
    """Up to three terms over n variables, exponents up to HALF, mixed denominators."""
    terms = {}
    for _ in range(r.randint(1, 3)):
        idx = sorted(r.sample(range(n), r.randint(0, n)))
        key = tuple((i, r.choice(EXPONENTS)) for i in idx)
        terms[key] = Fraction(r.choice((-5, -3, -1, 1, 2, 4)), r.choice(DENOMINATORS))
    return Poly(terms)


def recoefficient(r, n, elem):
    """The element's monomials with fresh big_poly coefficients."""
    return GradedElement({m: big_poly(r, n) for m in elem.terms})


def big_element(r, n, s=2, t=2):
    return recoefficient(r, n, random_element(r, n, s, t, max_b=3))


def big_derivation(r, n, degree, s=2, t=2):
    d = random_derivation(r, n, s, t, degree, max_b=2)
    return Derivation(degree, {g: recoefficient(r, n, v) for g, v in d.vals.items()})


def assert_canonical(e):
    assert e.den >= 1
    for m, t in e.num.items():
        assert type(m) is Monomial
        assert t and all(t.values()), m
    nums = [v for t in e.num.values() for v in t.values()]
    assert gcd(e.den, *nums) == 1
    if not e.num:
        assert e.den == 1
    return e


def test_canonical_store_after_every_operation():
    r = rng(401)
    for idx in range(10):
        n = 2 + idx % 2
        a, b = big_element(r, n), big_element(r, n)
        d = big_derivation(r, n, idx % 3 - 1)
        results = [a * b, a.mul(b, 2), a + b, a - b, a - a, -a, a.scale(Fraction(-4, 9)),
                   a.scale(0), a.scale(big_poly(r, n)), a.truncate(1), a.part(r=0),
                   a.part(p=1, q=0), d.apply(a), d.apply(a, 1), delta(a), kappa(a)]
        results += list(d.commutator(d).vals.values())
        for e in results:
            assert_canonical(e)


def test_store_equality_compares_den_and_numerators():
    half_x = GradedElement.xvar(0).scale(Fraction(1, 2))
    x = half_x + half_x
    assert (x.den, x.num) == (1, {Monomial(): {1: 1}})
    assert x == GradedElement.xvar(0)
    zero = half_x - half_x
    assert (zero.den, zero.num) == (1, {}) and zero == GradedElement.zero()


@pytest.mark.parametrize("terms", [
    {Monomial(): 5},           # a value that is not a Poly
    {5: Poly.one()},           # a key that is an int, not a Monomial
    {(1,): Poly.one()},        # a key that is a tuple
], ids=["int-value", "int-key", "tuple-key"])
def test_public_constructor_rejects_what_is_not_monomial_to_poly(terms):
    with pytest.raises(TypeError):
        GradedElement(terms)


def test_terms_is_a_read_only_poly_view():
    x = GradedElement.xvar(1)
    e = (x * x + GradedElement.beta(0)).scale(Fraction(2, 3))
    view = e.terms
    assert len(view) == len(e.num) == 2
    assert view == {Monomial(): Poly.variable(1) ** 2 * Fraction(2, 3),
                    Monomial((), (0,), ()): Poly.const(Fraction(2, 3))}
    assert all(type(m) is Monomial for m in view)
    with pytest.raises(TypeError):
        view[Monomial()] = Poly.one()
    with pytest.raises(TypeError):
        del view[Monomial()]
    assert not hasattr(view, "update") and not hasattr(view, "pop")
    assert GradedElement(dict(view)) == e


def test_mul_matches_reference_with_big_exponents():
    r = rng(402)
    for idx in range(8):
        n = 2 + idx % 2
        a, b = big_element(r, n), big_element(r, n)
        assert a * b == ref_mul(a, b), idx


def test_apply_matches_reference_with_big_exponents():
    r = rng(403)
    for idx in range(8):
        n = 2 + idx % 2
        d = big_derivation(r, n, idx % 4 - 1)
        a = big_element(r, n)
        assert d.apply(a) == ref_apply(d, a), idx


def test_commutator_matches_reference_with_big_exponents():
    r = rng(404)
    for idx in range(6):
        n = 2 + idx % 2
        d1 = big_derivation(r, n, idx % 3 - 1)
        d2 = big_derivation(r, n, (idx // 3) % 3 - 1)
        got, want = d1.commutator(d2), ref_commutator(d1, d2)
        for kind in ("x", "alpha", "beta", "b"):
            assert table(got, kind) == table(want, kind), (idx, kind)


def test_delta_and_kappa_match_reference_with_big_exponents():
    r = rng(405)
    for idx in range(8):
        a = big_element(r, 2 + idx % 2, s=3, t=2)
        assert delta(a) == ref_delta(a), idx
        assert kappa(a) == ref_kappa(a), idx


def test_products_at_and_past_the_exponent_field():
    x = GradedElement.xvar(0)
    top = GradedElement.from_poly(Poly.monomial(((2, MAX_EXP - 1),), Fraction(1, 3)))
    at = top * GradedElement.xvar(2)
    assert at.terms[Monomial()] == Poly.monomial(((2, MAX_EXP),), Fraction(1, 3))
    with pytest.raises(ValueError):
        at * GradedElement.xvar(2)
    with pytest.raises(ValueError):
        at.mul(GradedElement.xvar(2), 0)
    # scaling by a base polynomial, one term or several
    assert top.scale(Poly.variable(2)) == at
    for c in (Poly.variable(2), Poly.variable(2) + Poly.one()):
        with pytest.raises(ValueError):
            at.scale(c)
    # the neighbouring field is untouched by a product that fills this one
    assert (at * x).terms[Monomial()] == Poly.monomial(((0, 1), (2, MAX_EXP)), Fraction(1, 3))
    # through the action: the value x3^(MAX_EXP - 1) times d_b of x3^2 b
    d = Derivation(0, {("b", 0): top})
    with pytest.raises(ValueError):
        d.apply(GradedElement.xvar(2) * GradedElement.xvar(2) * GradedElement.bvar(0))
    with pytest.raises(ValueError):
        GradedElement.from_poly(Poly.monomial(((0, MAX_EXP + 1),)))
    with pytest.raises(ValueError):
        GradedElement.xvar(32)
