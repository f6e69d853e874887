"""The fiber-degree budget: a budgeted result is the truncated exact one.

A product past fiber degree MAX_FIBER = 255 raises ValueError exactly when
the budget keeps it; one the budget drops is never formed.  The kernel
stops at the first pair over the budget, so every call site orders its
terms by fiber degree; the operands of the descending tests store theirs
the other way round, highest fiber degree first.
"""

from fractions import Fraction

import pytest

from liepair.atiyah import d_hom
from liepair.fedosov import build_fedosov, mu_lift, split_fedosov
from liepair.graded import GEN_B, MAX_FIBER, Derivation, GradedElement, Monomial
from liepair.homotopy import kappa
from liepair.random_elements import (
    random_aform,
    random_dsection,
    random_element,
    random_hom_aform,
    random_homsection,
    rng,
)
from liepair.sections import DSection, q_act

from conftest import MATCHED_NAMES, VALID_NAMES, build, table
from reference_random import random_derivation

BUDGETS = range(6)
N, S, T = 2, 2, 2
OVER = "a product passes fiber degree 255"


def _b1(*exps):
    """The sum of the powers b1^e, each with coefficient 1."""
    return GradedElement._make({Monomial((), (), ((0, e),)): {0: 1} for e in exps}, 1)


def test_fiber_overflow_raises_inside_the_budget_only():
    # fiber degrees 200, 60, 1: the pairs 200 + 200 and 200 + 60 pass 255,
    # the other four sums (201, 120, 61, 2) are <= 250
    x = _b1(200, 60, 1)
    for upto in (None, 300):
        with pytest.raises(ValueError, match=OVER):
            x.mul(x, upto)
    for upto in (255, 250):
        assert x.mul(x, upto) == _b1(201, 61).scale(2) + _b1(120, 2), upto


def test_fiber_overflow_raises_through_apply_and_kappa():
    # D(b1) = x, so D(x) = x * (200 b1^199 + 60 b1^59 + 1): fiber degrees
    # 399 and 259 (twice) pass 255, the rest are 200, 119, 60 and 1
    x = _b1(200, 60, 1)
    d = Derivation(0, {(GEN_B, 0): x})
    for upto in (None, 300):
        with pytest.raises(ValueError, match=OVER):
            d.apply(x, upto)
    for upto in (255, 250):
        want = _b1(200).scale(201) + _b1(119).scale(60) + _b1(60).scale(61) + _b1(1)
        assert d.apply(x, upto) == want, upto
    # kappa moves beta1 into b1, one fiber degree up
    top = GradedElement._make({Monomial((), (0,), ((0, MAX_FIBER - 1),)): {0: 1}}, 1)
    assert kappa(top) == _b1(MAX_FIBER).scale(Fraction(1, MAX_FIBER))
    with pytest.raises(ValueError, match="kappa passes fiber degree 255"):
        kappa(top.mul(_b1(1)))


def test_mul_budget_is_truncation():
    r = rng(201)
    for _ in range(12):
        a = random_element(r, N, S, T, max_b=4)
        b = random_element(r, N, S, T, max_b=4)
        full = a * b
        for upto in BUDGETS:
            assert a.mul(b, upto) == full.truncate(upto), upto


def test_apply_budget_is_truncation():
    r = rng(202)
    for idx in range(12):
        d = random_derivation(r, N, S, T, idx % 3 - 1, max_b=3)
        a = random_element(r, N, S, T, max_b=5)
        full = d.apply(a)
        for upto in BUDGETS:
            assert d.apply(a, upto) == full.truncate(upto), (idx, upto)


def test_commutator_budget_windows_b_values_only():
    r = rng(203)
    for idx in range(8):
        d1 = random_derivation(r, N, S, T, idx % 2, max_b=3)
        d2 = random_derivation(r, N, S, T, 1, max_b=3)
        full = d1.commutator(d2)
        for upto in BUDGETS:
            got = d1.commutator(d2, upto)
            assert got.degree == full.degree
            assert table(got, "x") == table(full, "x"), (idx, upto)
            assert table(got, "alpha") == table(full, "alpha"), (idx, upto)
            assert table(got, "beta") == table(full, "beta"), (idx, upto)
            want_b = {i: v.truncate(upto) for i, v in table(full, "b").items()}
            assert table(got, "b") == {i: v for i, v in want_b.items() if v}, (idx, upto)


def test_q_act_budget_is_truncation_on_every_carrier():
    r = rng(204)
    for name in VALID_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 3)
        ops = [fd.D, *split_fedosov(fd)] if name in MATCHED_NAMES else [fd.D]
        carriers = [
            random_element(r, alg.n, alg.s, alg.t, max_b=4, terms=2),
            random_dsection(r, alg.n, alg.s, alg.t, r.randint(0, 1), max_b=4),
            random_homsection(r, alg.n, alg.s, alg.t, r.randint(0, 1), max_b=2),
        ]
        for q in ops:
            for a in carriers:
                full = q_act(q, a, "budget test")
                for upto in BUDGETS:
                    got = q_act(q, a, "budget test", upto=upto)
                    assert got == full.truncate(upto), (name, type(a).__name__, upto)


# -- operands stored highest fiber degree first -----------------------------
def descending(obj):
    """obj with every element's terms stored by descending fiber degree."""
    if isinstance(obj, GradedElement):
        num = dict(sorted(obj.num.items(), key=lambda term: -term[0].bdeg))
        return GradedElement._make(num, obj.den)
    if isinstance(obj, Derivation):
        return Derivation._make(obj.degree, {g: descending(v) for g, v in obj.vals.items()})
    return obj.map_coeffs(descending)


def fiber_degrees(e):
    """The fiber degrees of e's terms, in stored order."""
    return [m.bdeg for m in e.num]


def top_fiber(obj):
    """The highest fiber degree of an element or of a carrier's coefficients."""
    coeffs = [obj] if isinstance(obj, GradedElement) else obj.comps.values()
    return max(max(fiber_degrees(c)) for c in coeffs)


def test_descending_operands_store_their_terms_in_reverse():
    e = descending(_b1(1, 200) + GradedElement.one())
    assert e == _b1(200, 1) + GradedElement.one()
    assert fiber_degrees(e) == [200, 1, 0]


def test_mul_budget_is_truncation_on_descending_operands():
    r = rng(211)
    spread = 0
    for _ in range(12):
        a = descending(random_element(r, N, S, T, max_b=5, terms=4))
        b = descending(random_element(r, N, S, T, max_b=5, terms=4))
        spread += fiber_degrees(a)[0] > fiber_degrees(a)[-1]
        full = a * b
        for upto in BUDGETS:
            assert a.mul(b, upto) == full.truncate(upto), upto
    assert spread > 6  # most left operands hold more than one fiber degree


def test_apply_and_commutator_budgets_are_truncation_on_descending_operands():
    r = rng(212)
    for idx in range(12):
        d1 = descending(random_derivation(r, N, S, T, idx % 3 - 1, max_b=4))
        d2 = descending(random_derivation(r, N, S, T, 1, max_b=4))
        a = descending(random_element(r, N, S, T, max_b=5, terms=4))
        full = d1.apply(a)
        for upto in BUDGETS:
            assert d1.apply(a, upto) == full.truncate(upto), (idx, upto)
        full = d1.commutator(d2)
        for upto in BUDGETS:
            got = d1.commutator(d2, upto)
            for kind in ("x", "alpha", "beta"):
                assert table(got, kind) == table(full, kind), (idx, upto)
            want_b = {i: v.truncate(upto) for i, v in table(full, "b").items()}
            assert table(got, "b") == {i: v for i, v in want_b.items() if v}, (idx, upto)


def test_d_hom_budget_is_truncation_on_descending_hom_tensors():
    # hom_bracket's rows [D, e_k] are kernel results; the Hom-tensor's
    # coefficients are stored highest fiber degree first
    r = rng(214)
    for name in ("aff_pair", "tangent_only"):
        alg = build(name)
        fd = build_fedosov(alg, 4)
        for degree in (0, 1):
            phi = descending(random_homsection(r, alg.n, alg.s, alg.t, degree, max_b=4))
            full = d_hom(fd, phi)
            for upto in range(6):
                assert d_hom(fd, phi, upto) == full.truncate(upto), (name, degree, upto)


def test_mu_lift_budget_is_truncation_on_a_matched_fixture():
    # a lift multiplies cached frame entries, kernel results in the order
    # the kernel formed them, through _contract at every budget
    r = rng(215)
    alg = build("tangent_only")
    fd = build_fedosov(alg, 5)
    section = DSection({k: random_aform(r, alg.n, alg.t, 0, terms=2) for k in range(alg.s)})
    samples = [random_aform(r, alg.n, alg.t, 0), section,
               random_hom_aform(r, alg.n, alg.s, alg.t, 0, terms=2, density=0.5)]
    for a in samples:
        full = mu_lift(fd, a)
        assert top_fiber(full) == 5, type(a).__name__
        for upto in range(7):
            assert mu_lift(fd, a, upto=upto) == full.truncate(upto), (type(a).__name__, upto)
