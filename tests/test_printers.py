"""The printers of expressions.py against the ones they replaced, byte for byte.

reference_printers holds the former element_str, Poly.to_str, dsection_str
and homsection_str.  Every rendering here must equal theirs: the correction
fields of the shipped charts, seeded elements and carriers, and hand-made
edge cases (per-term reduction over a shared denominator, exponents above
1, constants, zero).
"""

from fractions import Fraction

import pytest

import reference_printers as ref
from conftest import VALID_NAMES, fixture_path
from liepair.expressions import Printer, dsection_str, element_str, homsection_str, poly_str
from liepair.fedosov import build_fedosov
from liepair.graded import GradedElement, Monomial
from liepair.loader import load_chart
import liepair.poly as poly_module
from liepair.poly import Poly
from liepair.random_elements import (
    random_dsection,
    random_element,
    random_homsection,
    random_poly,
    rng,
)
from liepair.sections import DSection, HomSection

NAMES = ["u", "v", "w"]


def _x(i, e=1):
    return ((i, e),)


def _mon(alphas=(), betas=(), bexp=()):
    return Monomial(alphas, betas, bexp)


@pytest.mark.parametrize("max_b", [3, 4, 5])
@pytest.mark.parametrize("name", VALID_NAMES)
def test_correction_fields_match_the_reference(name, max_b):
    chart = load_chart(fixture_path(name))
    comps = [v for _, v in sorted(build_fedosov(chart.alg, max_b).x_field.comps.items())]
    shared = Printer(chart.variables)  # one printer for all components, as cmd_fedosov has
    for v in comps:
        want = ref.element_str(v, chart.variables)
        assert element_str(v, chart.variables) == want
        assert shared.element(v) == want
        assert element_str(v) == ref.element_str(v)


def test_terms_reduce_one_by_one_over_a_shared_denominator():
    # numerators 2, 3 and 5 over the denominator 6: 1/3, 1/2 and 5/6 each in lowest terms
    coeff = Poly({_x(0): Fraction(1, 3), _x(1): Fraction(-1, 2), (): Fraction(5, 6)})
    assert (coeff.den, sorted(coeff.num.values())) == (6, [-3, 2, 5])
    e = GradedElement({
        _mon((0,)): coeff,
        _mon((), (1,)): Poly.const(Fraction(-1, 3)),
        _mon((), (), ((0, 1),)): Poly.monomial(_x(1), Fraction(1, 2)),
        _mon((0,), (0,)): Poly.monomial(_x(0, 2), Fraction(5, 6)),
    })
    assert e.den == 6
    want = ("1/2*x2*b1 - 1/3*beta2 + (1/3*x1 - 1/2*x2 + 5/6)*alpha1"
            " + 5/6*x1^2*alpha1*beta1")
    assert element_str(e) == ref.element_str(e) == want
    assert poly_str(coeff) == ref.poly_str(coeff) == "1/3*x1 - 1/2*x2 + 5/6"
    assert poly_str(-coeff, NAMES) == ref.poly_str(-coeff, NAMES) == "-1/3*u + 1/2*v - 5/6"


def test_high_exponents_constants_and_zero():
    x = Poly.monomial(((0, 3), (2, 2)), Fraction(-7, 4)) + Poly.monomial(_x(1, 5), 2)
    cases = [
        GradedElement(),
        GradedElement.from_poly(Poly.const(Fraction(-3, 5))),
        GradedElement.from_poly(x),
        GradedElement({_mon((), (), ((0, 2), (2, 3))): x, _mon(): Poly.const(-1),
                       _mon((1,), (), ((1, 4),)): Poly.const(1),
                       _mon((0, 2), (1,)): Poly.const(-1),
                       _mon((), (0, 1), ((0, 1),)): Poly.const(4)}),
    ]
    for e in cases:
        for names in (None, NAMES):
            assert element_str(e, names) == ref.element_str(e, names)
    assert element_str(cases[0]) == "0"
    assert element_str(cases[3]) == ("-1 + (-7/4*x1^3*x3^2 + 2*x2^5)*b1^2*b3^3 + alpha2*b2^4"
                                     " + 4*beta1*beta2*b1 - alpha1*alpha3*beta2")
    for p in (Poly.zero(), Poly.const(Fraction(7, 3)), Poly.const(-1), x):
        assert poly_str(p) == ref.poly_str(p)
        assert p.to_str(NAMES) == ref.poly_to_str(p, NAMES)
        assert repr(p) == f"Poly({ref.poly_str(p)})"


def test_seeded_elements_match_the_reference():
    r = rng(141)
    shared = Printer(NAMES)
    for _ in range(200):
        e = random_element(r, 3, 3, 3, max_b=4, terms=6)
        want = ref.element_str(e, NAMES)
        assert element_str(e, NAMES) == shared.element(e) == want
        assert element_str(e) == ref.element_str(e)
        p = random_poly(r, 3, max_degree=3, terms=5)
        assert poly_str(p) == ref.poly_str(p)
        assert p.to_str(NAMES) == shared.coeff(p.num, p.den) == ref.poly_to_str(p, NAMES)


def test_more_names_than_variables_used():
    p = Poly.monomial(_x(1, 2), Fraction(-2, 3)) + Poly.variable(1) + Poly.const(1)
    names = ["a", "b", "c", "d", "e"]
    assert p.to_str(names) == ref.poly_to_str(p, names) == "-2/3*b^2 + b + 1"
    e = GradedElement({_mon((0,)): p, _mon((), (0,)): Poly.variable(0)})
    assert element_str(e, names) == ref.element_str(e, names)


def test_too_few_names_is_a_value_error_naming_the_variable():
    with pytest.raises(ValueError, match=r"^no name for x2: 1 variable name given$"):
        element_str(GradedElement.xvar(1), ["x"])
    with pytest.raises(ValueError, match=r"^no name for x3: 2 variable names given$"):
        poly_str(Poly.variable(2), ["x", "y"])


def test_sections_and_hom_tensors_match_the_reference():
    r = rng(142)
    for _ in range(20):
        y = random_dsection(r, 2, 3, 2, r.randint(0, 2), max_b=3)
        phi = random_homsection(r, 2, 2, 2, r.randint(0, 2), max_b=3)
        for names in (None, NAMES):
            assert dsection_str(y, names) == ref.dsection_str(y, names)
            assert homsection_str(phi, names) == ref.homsection_str(phi, names)
    assert dsection_str(DSection()) == homsection_str(HomSection(2, {})) == "0"


def test_rendering_builds_no_poly_or_fraction(monkeypatch):
    chart = load_chart(fixture_path("tangent_only"))
    comps = build_fedosov(chart.alg, 5).x_field.comps.values()
    real_new = poly_module._new

    def refuse(*args, **kwargs):
        raise AssertionError("the printer built a Poly or a Fraction")

    def new(cls):
        return refuse() if cls is Poly else real_new(cls)

    monkeypatch.setattr(Fraction, "__new__", refuse)
    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(poly_module, "_new", new)
    out = Printer(chart.variables)
    assert all([out.element(v) for v in comps])
