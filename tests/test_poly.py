import math
from fractions import Fraction

import pytest

from liepair.expressions import parse_poly
from liepair.graded import GradedElement, Monomial
from liepair.poly import MAX_EXP, MAX_VARS, Poly, exponents
from liepair.random_elements import random_poly, rng

x1 = Poly.variable(0)
x2 = Poly.variable(1)


def test_constructors_and_equality():
    assert Poly.zero() == Poly.const(0)
    assert Poly.one() == Poly.const(1)
    assert not Poly.zero()
    assert Poly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    assert x1 != x2
    assert Poly.monomial(((0, 2), (1, 1)), 5) == x1 * x1 * x2 * Poly.const(5)


def test_ring_axioms_random():
    r = rng(11)
    for _ in range(200):
        a = random_poly(r, 3)
        b = random_poly(r, 3)
        c = random_poly(r, 3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly.zero()
        assert a * Poly.one() == a


def test_pow():
    p = x1 + Poly.one()
    assert p**0 == Poly.one()
    assert p**2 == x1 * x1 + Poly.const(2) * x1 + Poly.one()
    with pytest.raises(ValueError):
        p ** (-1)


def test_diff_leibniz_random():
    r = rng(12)
    for _ in range(100):
        a = random_poly(r, 2)
        b = random_poly(r, 2)
        for i in range(2):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_diff_basic():
    p = x1 * x1 * x2
    assert p.diff(0) == Poly.const(2) * x1 * x2
    assert p.diff(1) == x1 * x1
    assert p.diff(5) == Poly.zero()
    assert p.diff(-1) == Poly.zero() and p.diff(MAX_VARS) == Poly.zero()
    assert Poly.const(7).diff(0) == Poly.zero()


def test_total_degree_and_constant():
    assert Poly.zero().total_degree() is None
    assert (x1 * x2 + x1).total_degree() == 2
    assert Poly.const(5).constant_value() == 5
    assert (x1 + Poly.const(5)).constant_value() == 5


def test_to_str():
    p = x1 * x1 - Poly.const(Fraction(1, 2)) * x2
    s = p.to_str(["u", "v"])
    assert "u^2" in s and "1/2*v" in s


def test_canonical_zero_removal():
    p = x1 - x1
    assert p.terms == {}
    assert p == Poly.zero()


# -- canonical form and an independent oracle (sympy over QQ) ----------------
NAMES = ["x1", "x2", "x3"]
DENOMINATORS = (1, 2, 3, 4, 6, 7, 8, 9)


def mixed_poly(r, n=3):
    """Up to four terms, coefficients of either sign over mixed denominators."""
    terms = {}
    for _ in range(r.randint(0, 4)):
        key = {}
        for _ in range(r.randint(0, 3)):
            i = r.randrange(n)
            key[i] = key.get(i, 0) + 1
        terms[tuple(sorted(key.items()))] = Fraction(r.randint(-9, 9), r.choice(DENOMINATORS))
    return Poly(terms)


def assert_canonical(p):
    assert p.den >= 1
    assert all(isinstance(v, int) and v for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if not p:
        assert p.den == 1


def test_canonical_form_after_every_operation():
    r = rng(21)
    for _ in range(300):
        a, b = mixed_poly(r), mixed_poly(r)
        c = Fraction(r.randint(-5, 5), r.choice(DENOMINATORS))
        for p in (a, b, a + b, a - b, a * b, a * c, c * a, a * 0, a**2, a.diff(0), a - a,
                  a + c, Poly.const(c), Poly.monomial(((1, 2),), c)):
            assert_canonical(p)


def test_equal_polynomials_from_different_routes_hash_equal():
    half = Poly({(): Fraction(2, 4)})
    assert half == Poly.const(1) * Fraction(1, 2) == Poly.const(Fraction(1, 2))
    assert hash(half) == hash(Poly.const(1) * Fraction(1, 2))
    assert (half.num, half.den) == ({0: 1}, 2)
    a = Poly({((0, 1),): Fraction(1, 6), (): Fraction(1, 3)})
    b = Poly({((0, 1),): Fraction(1, 2)}) * Fraction(1, 3) + Poly.const(Fraction(2, 6))
    assert a == b and hash(a) == hash(b)
    c = x1 * Fraction(3, 4) + x1 * Fraction(1, 4)
    assert c == x1 and (c.num, c.den) == ({1: 1}, 1)
    assert hash(c) == hash(x1)
    assert {a: 1}[b] == 1
    zero = x1 * Fraction(1, 3) - x1 * Fraction(2, 6)
    assert zero == Poly.zero() and zero.den == 1 and hash(zero) == hash(Poly.zero())
    # same numerators over another denominator is another polynomial
    assert half != Poly.one() and x1 * Fraction(1, 3) != x1
    # a constant hashes as the rational it equals
    for c in (0, 2, -7, Fraction(1, 2), Fraction(-9, 4)):
        p = Poly.const(c) + x1 - x1
        assert p == c and hash(p) == hash(c) and {p: 1}[c] == 1 and {c: 1}[p] == 1
    assert {Poly.const(2): "v"}[2] == "v"


def test_terms_is_a_fraction_view():
    p = Poly({((0, 1),): Fraction(-3, 4), (): Fraction(1, 2)})
    assert p.terms == {((0, 1),): Fraction(-3, 4), (): Fraction(1, 2)}
    assert all(type(v) is Fraction for v in p.terms.values())
    assert len(p.terms) == 2 and dict(p.terms) == p.terms
    assert Poly(dict(p.terms)) == p


def _to_sympy(p, sympy, gens):
    dense = {}
    for key, c in p.terms.items():
        exps = [0] * len(gens)
        for i, e in key:
            exps[i] = e
        dense[tuple(exps)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(dense, *gens, domain=sympy.QQ)


def _fraction(c):
    return Fraction(int(c.p), int(c.q))


def _from_sympy(sp):
    terms = {}
    for exps, c in sp.as_dict().items():
        terms[tuple((i, e) for i, e in enumerate(exps) if e)] = _fraction(c)
    return Poly(terms)


def test_arithmetic_matches_sympy_over_qq():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1 x2 x3")
    r = rng(22)
    for _ in range(150):
        a, b = mixed_poly(r), mixed_poly(r)
        c = Fraction(r.randint(-5, 5), r.choice(DENOMINATORS))
        sa, sb = _to_sympy(a, sympy, gens), _to_sympy(b, sympy, gens)
        sc = sympy.Rational(c.numerator, c.denominator)
        assert a + b == _from_sympy(sa + sb)
        assert a - b == _from_sympy(sa - sb)
        assert a * b == _from_sympy(sa * sb)
        assert a * c == _from_sympy(sa * sc) == c * a
        assert a * 0 == Poly.zero() == _from_sympy(sa * 0)
        assert a**3 == _from_sympy(sa**3)
        for i, g in enumerate(gens):
            assert a.diff(i) == _from_sympy(sa.diff(g))
        assert a.constant_value() == _fraction(sa.as_dict().get((0, 0, 0), sympy.S.Zero))
        # sums that cancel to zero
        assert (a + b) - b - a == Poly.zero() == _from_sympy((sa + sb) - sb - sa)
        assert a * b - b * a == Poly.zero()


def test_to_str_reparses_and_matches_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1 x2 x3")
    r = rng(23)
    for _ in range(150):
        a = mixed_poly(r) * mixed_poly(r)
        text = a.to_str(NAMES)
        assert parse_poly(text, NAMES) == a, text
        expr = sympy.sympify(text.replace("^", "**"), locals=dict(zip(NAMES, gens)))
        assert sympy.expand(expr - _to_sympy(a, sympy, gens).as_expr()) == 0, text


# -- the packed store: one int key per base monomial -------------------------
def test_store_keys_are_packed_ints():
    r = rng(24)
    for _ in range(200):
        p = mixed_poly(r) * mixed_poly(r)
        assert all(type(k) is int and k >= 0 for k in p.num)
        for key, c in p.terms.items():
            packed = sum(e << 16 * i for i, e in key)  # x_i's exponent in the field at bit 16 i
            assert Poly.monomial(key).num == {packed: 1} and c == Fraction(p.num[packed], p.den)
    assert x2.num == {1 << 16: 1} and Poly.const(3).num == {0: 3}


def test_from_poly_shares_the_numerators():
    r = rng(25)
    for _ in range(200):
        p = mixed_poly(r)
        e = GradedElement.from_poly(p)
        if not p:
            assert (e.num, e.den) == ({}, 1)
            continue
        assert e.num == {Monomial(): p.num} and e.den == p.den
        assert e.num[Monomial()] is p.num  # passed through, not converted or copied
        assert e.terms[Monomial()] == p


def test_terms_keeps_tuple_keys():
    r = rng(26)
    for _ in range(200):
        p = mixed_poly(r)
        assert len(p.terms) == len(p.num)
        assert list(p.terms) == [exponents(k) for k in p.num]
        for key in p.terms:
            assert type(key) is tuple and list(key) == sorted(key)
            assert all(e > 0 for _, e in key) and len({i for i, _ in key}) == len(key)
            assert key in p.terms
        assert Poly(dict(p.terms)) == p
    p = x1 * x2 + Poly.one()
    for foreign in (((40, 1),), ((0, 0),), ((1, 1), (0, 1)), ((0, 1), (0, 1)), ((2, 1),), "x"):
        assert foreign not in p.terms
        with pytest.raises(KeyError):
            p.terms[foreign]


def test_keys_past_the_fields_raise():
    with pytest.raises(ValueError):
        Poly.variable(MAX_VARS)
    with pytest.raises(ValueError):
        Poly.variable(-1)
    with pytest.raises(ValueError):
        Poly.monomial(((0, MAX_EXP + 1),))
    with pytest.raises(ValueError):
        Poly({((MAX_VARS, 1),): 1})
    with pytest.raises(ValueError):  # a repeated index would add into one field
        Poly({((0, MAX_EXP), (0, MAX_EXP)): 1})
    r = rng(27)
    for _ in range(50):
        i = r.randrange(MAX_VARS)
        e = r.randint(1, MAX_EXP)
        top = Poly.monomial(((i, e),), Fraction(r.randint(1, 9), r.randint(1, 9)))
        rest = Poly.monomial(((i, MAX_EXP - e + 1),)) + Poly.one()
        with pytest.raises(ValueError):
            top * rest
        with pytest.raises(ValueError):
            rest * top


def test_a_full_field_leaves_its_neighbours_untouched():
    r = rng(28)
    for _ in range(50):
        i = r.randrange(MAX_VARS)
        e = r.randint(1, MAX_EXP - 1)
        full = Poly.monomial(((i, e),)) * Poly.monomial(((i, MAX_EXP - e),))
        assert full.num == {MAX_EXP << 16 * i: 1} and full.terms == {((i, MAX_EXP),): 1}
        assert full.diff(i) == Poly.monomial(((i, MAX_EXP - 1),), MAX_EXP)
        for j in {max(i - 1, 0), min(i + 1, MAX_VARS - 1)} - {i}:
            f = r.randint(1, MAX_EXP)
            both = full * Poly.monomial(((j, f),), 3)
            assert both.terms == {tuple(sorted(((i, MAX_EXP), (j, f)))): 3}
            assert both.diff(j) == Poly.monomial(((i, MAX_EXP), (j, f - 1)), 3 * f)
            assert both.total_degree() == MAX_EXP + f
