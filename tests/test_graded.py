from fractions import Fraction

import pytest

from liepair.graded import Derivation, GradedElement, Monomial
from liepair.poly import Poly
from liepair.random_elements import (
    random_derivation,
    random_element,
    random_homogeneous,
    rng,
)

A0 = GradedElement.alpha(0)
A1 = GradedElement.alpha(1)
B0 = GradedElement.beta(0)
B1 = GradedElement.beta(1)
F0 = GradedElement.bvar(0)
X0 = GradedElement.xvar(0)


def test_monomial_grading():
    m = Monomial((0, 1), (0,), ((0, 2),))
    assert m.p == 2 and m.q == 1 and m.bdeg == 2
    assert m.degree == 3


def test_odd_generators_square_to_zero():
    assert (A0 * A0).is_zero()
    assert (B1 * B1).is_zero()
    assert not (F0 * F0).is_zero()


def test_koszul_sign_swap():
    assert A0 * B0 == -(B0 * A0)
    assert A0 * A1 == -(A1 * A0)
    assert B0 * B1 == -(B1 * B0)
    # even generators commute with everything
    assert F0 * A0 == A0 * F0
    assert X0 * B1 == B1 * X0


def test_alpha_ordering_normalization():
    # alpha carries lower sort position than beta inside a monomial
    prod = B0 * A0
    ((mon, coeff),) = prod.terms.items()
    assert mon.alphas == (0,) and mon.betas == (0,)
    assert coeff == -1


def test_associativity_random():
    r = rng(21)
    for _ in range(60):
        a = random_element(r, 2, 2, 2, max_b=3, terms=2)
        b = random_element(r, 2, 2, 2, max_b=3, terms=2)
        c = random_element(r, 2, 2, 2, max_b=3, terms=2)
        assert (a * b) * c == a * (b * c)


def test_graded_commutativity_random():
    r = rng(22)
    for _ in range(60):
        p1 = r.randint(0, 2)
        p2 = r.randint(0, 2)
        a = random_homogeneous(r, 1, 2, 2, p1, max_b=2)
        b = random_homogeneous(r, 1, 2, 2, p2, max_b=2)
        sign = -1 if (p1 % 2) and (p2 % 2) else 1
        assert a * b == (b * a).scale(sign)


def test_part_and_truncate():
    e = A0 * B0 * F0 + A0 * F0 * F0 + GradedElement.one()
    assert e.part(1, 1, 1) == A0 * B0 * F0
    assert e.part(1, 0, 2) == A0 * F0 * F0
    assert e.truncate(1) == A0 * B0 * F0 + GradedElement.one()
    assert e.truncate(0) == GradedElement.one()


def test_degree_mixed_raises():
    e = A0 + GradedElement.one()
    with pytest.raises(ValueError):
        e.degree()
    assert (A0 + B0).degree() == 1


def test_derivation_leibniz_random():
    r = rng(23)
    for _ in range(40):
        deg = r.choice([-1, 0, 1, 2])
        d = random_derivation(r, 2, 2, 2, deg)
        a = random_homogeneous(r, 2, 2, 2, r.randint(0, 2), max_b=2)
        b = random_element(r, 2, 2, 2, max_b=2, terms=2)
        if a.is_zero():
            continue
        pa = a.degree()
        lhs = d.apply(a * b)
        sign = -1 if (deg % 2) and (pa % 2) else 1
        rhs = d.apply(a) * b + (a * d.apply(b)).scale(sign)
        assert lhs == rhs


def test_derivation_commutator_is_derivation():
    r = rng(24)
    for _ in range(25):
        d1 = random_derivation(r, 1, 2, 1, r.choice([0, 1]))
        d2 = random_derivation(r, 1, 2, 1, r.choice([1, 2]))
        comm = d1.commutator(d2)
        a = random_homogeneous(r, 1, 2, 1, r.randint(0, 2), max_b=2)
        b = random_element(r, 1, 2, 1, max_b=2, terms=2)
        if a.is_zero():
            continue
        sign = -1 if (comm.degree % 2) and (a.degree() % 2) else 1
        assert comm.apply(a * b) == comm.apply(a) * b + (a * comm.apply(b)).scale(sign)


def test_commutator_on_values_matches_composition():
    r = rng(25)
    for _ in range(40):
        d1 = random_derivation(r, 1, 2, 2, r.choice([-1, 0, 1]))
        d2 = random_derivation(r, 1, 2, 2, r.choice([0, 1, 2]))
        sign = -1 if (d1.degree % 2) and (d2.degree % 2) else 1
        comm = d1.commutator(d2)
        a = random_element(r, 1, 2, 2, max_b=2, terms=3)
        direct = d1.apply(d2.apply(a)) - d2.apply(d1.apply(a)).scale(sign)
        assert comm.apply(a) == direct


def test_bidegree_part_of_derivation():
    d = Derivation(
        1,
        {("x", 0): A0 + B0, ("alpha", 0): A0 * A1 + A0 * B0, ("b", 0): A0 * F0},
    )
    dp = d.bidegree_part(1, 0)
    assert dp.value("x", 0) == A0
    assert dp.value("alpha", 0) == A0 * A1
    assert dp.value("b", 0) == A0 * F0
    dq = d.bidegree_part(0, 1)
    assert dq.value("x", 0) == B0
    assert dq.value("alpha", 0) == A0 * B0
    assert dq.value("b", 0).is_zero()
    assert (dp + dq) == d


def test_scale_and_from_poly():
    p = Poly.variable(0) + Poly.const(2)
    e = GradedElement.from_poly(p)
    assert e.scale(Fraction(1, 2)) + e.scale(Fraction(1, 2)) == e
    assert e - e == GradedElement.zero()


@pytest.mark.parametrize("kind", ["x", "alpha", "beta", "b"])
def test_derivation_checks_every_generator_index(kind):
    value = X0 if kind in ("x", "b") else A0  # degree 0 derivations
    for i in (0, 31):
        assert Derivation(0, {(kind, i): value}).value(kind, i) == value
    for i in (-1, 32, 40):
        with pytest.raises(ValueError):
            Derivation(0, {(kind, i): value})
    gen = {"x": GradedElement.xvar, "alpha": GradedElement.alpha,
           "beta": GradedElement.beta, "b": GradedElement.bvar}[kind](31)
    assert Derivation(0, {(kind, 31): value}).apply(gen) == value


def test_derivation_value_must_be_an_element():
    for value in (5, Fraction(1, 2), Poly.variable(0)):
        with pytest.raises(TypeError):
            Derivation(1, {("x", 0): value})
    assert Derivation(1, {("x", 0): 0}).is_zero()  # zero values are dropped
