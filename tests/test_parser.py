from fractions import Fraction

import pytest

from liepair.errors import LoadError
from liepair.expressions import (
    MAX_EXPONENT,
    MAX_TERMS,
    ParseError,
    element_str,
    parse_poly,
    parse_rational,
    poly_str,
)
from liepair.poly import Poly
from liepair.random_elements import random_element, random_poly, rng

NAMES = ["x", "y"]


def P(text, params=None):
    return parse_poly(text, NAMES, params)


def test_literals_and_variables():
    assert P("0") == Poly.zero()
    assert P("3/4") == Poly.const(Fraction(3, 4))
    assert P("x") == Poly.variable(0)
    assert P("-y") == -Poly.variable(1)


def test_precedence_and_parentheses():
    x, y = Poly.variable(0), Poly.variable(1)
    assert P("x + y*x") == x + y * x
    assert P("(x + y)*x") == (x + y) * x
    assert P("x^2*y + 1/2") == x * x * y + Poly.const(Fraction(1, 2))
    assert P("-(x - y)") == y - x
    assert P("2*x^3") == Poly.const(2) * x * x * x


def test_parameters_bind():
    g = Fraction(7, 2)
    assert P("gamma*x", {"gamma": g}) == Poly.const(g) * Poly.variable(0)
    with pytest.raises(ParseError):
        P("gamma*x")  # unbound identifier


def test_error_positions():
    with pytest.raises(ParseError) as e:
        P("x + * y")
    assert e.value.pos == 4
    with pytest.raises(ParseError):
        P("x^-2")
    with pytest.raises(ParseError):
        P("x +")
    with pytest.raises(ParseError):
        P("(x")
    with pytest.raises(ParseError):
        P("x x")
    with pytest.raises(ParseError):
        P("")


def test_parse_error_is_load_error():
    assert issubclass(ParseError, LoadError)


def test_input_budgets_accept_entries_at_their_limits():
    assert MAX_EXPONENT == 100 and MAX_TERMS == 10_000
    assert P("x^100") == Poly.variable(0) ** 100
    assert len(P("(x+y+1)^81").num) == 83 * 82 // 2
    assert len(P("(x+1)^99*(y+1)^99").num) == 100 * 100
    with pytest.raises(ParseError, match="exponent 101"):
        P("x^101")
    with pytest.raises(ParseError, match="product of 3403 and 3 terms"):
        P("(x+y+1)^82")
    with pytest.raises(ParseError, match="product of 100 and 101 terms"):
        P("(x+1)^99*(y+1)^100")


def test_rational_literals():
    assert parse_rational("3") == 3
    assert parse_rational("-5/7") == Fraction(-5, 7)
    assert parse_rational(" 2/3 ") == Fraction(2, 3)
    for bad in ("1/0", "1.5", "x", "2//3", ""):
        with pytest.raises(LoadError):
            parse_rational(bad)


def test_poly_round_trip_random():
    r = rng(81)
    for _ in range(300):
        p = random_poly(r, 2, max_degree=3, terms=4)
        assert P(poly_str(p, NAMES)) == p


def test_element_str_is_reparsable_coefficientwise():
    # every coefficient polynomial printed inside an element re-parses
    r = rng(82)
    for _ in range(50):
        e = random_element(r, 2, 2, 2, max_b=3, terms=3)
        for coeff in e.terms.values():
            assert P(poly_str(coeff, NAMES)) == coeff


def test_element_str_fixed_forms():
    from liepair.graded import GradedElement

    a = GradedElement.alpha(0)
    b = GradedElement.beta(1)
    f = GradedElement.bvar(0)
    e = (a * b * f).scale(Fraction(-1, 3))
    s = element_str(e)
    assert s == "-1/3*alpha1*beta2*b1"
    assert element_str(GradedElement.zero()) == "0"
