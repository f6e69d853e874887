"""The product kernel against independent reference implementations.

The references below do not touch the kernel.  ``ref_mul`` multiplies
term by term, sorting each concatenated odd word with counted adjacent
swaps, and multiplies coefficients by merging exponent counters.
``ref_apply`` is the Leibniz-rule action: for each factor of each
monomial it wraps the prefix, the value and the suffix as elements and
multiplies them.  ``ref_evaluate`` and ``ref_hom_bracket`` build the
Hom-tensor action from whole-section arithmetic.  ``ref_delta`` and
``ref_kappa`` walk the index tuples of each monomial, with the signs of
moving a beta into or out of its slot and Fraction factors.  Budgeted
results are compared with the truncated reference.  ``_contract`` and
``_collect``, the step every carrier product takes, are compared with
``ref_mul`` move by move, each factor passed as a kernel operand.
Elements drawn over no base variable have constant coefficients, so
products among them run in the kernel's scalar lane; those cases pair
constant with constant, constant with polynomial and polynomial with
constant operands, over several denominators, against the same
references.
"""

from collections import Counter
from fractions import Fraction
from itertools import cycle

import pytest

from liepair import graded
from liepair.errors import InternalInvariantError
from liepair.fedosov import build_fedosov, split_fedosov
from liepair.graded import _INF, Derivation, GradedElement, Monomial, _collect, _contract, _operand
from liepair.homotopy import delta, kappa
from liepair.poly import Poly
from liepair.random_elements import (
    random_dsection,
    random_element,
    random_homogeneous,
    random_homsection,
    rng,
)
from liepair.sections import DSection, HomSection, hom_bracket, q_act

from conftest import MATCHED_NAMES, VALID_NAMES, build, table
from reference_random import random_derivation

BUDGETS = (None, 0, 1, 2, 3, 4)
N, S, T = 2, 2, 2


def cut(obj, upto):
    return obj if upto is None else obj.truncate(upto)


# -- reference arithmetic ----------------------------------------------------
def ref_poly_mul(p1, p2):
    out = Counter()
    for k1, v1 in p1.terms.items():
        for k2, v2 in p2.terms.items():
            key = tuple(sorted((Counter(dict(k1)) + Counter(dict(k2))).items()))
            out[key] += v1 * v2
    return Poly(dict(out))


def ref_mul(a, b):
    out = GradedElement()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            word = [(0, i) for i in m1.alphas] + [(1, i) for i in m1.betas]
            word += [(0, i) for i in m2.alphas] + [(1, i) for i in m2.betas]
            if len(set(word)) < len(word):
                continue
            sign = 1
            for end in range(len(word) - 1, 0, -1):
                for pos in range(end):
                    if word[pos] > word[pos + 1]:
                        word[pos], word[pos + 1] = word[pos + 1], word[pos]
                        sign = -sign
            bexp = Counter(dict(m1.bexp)) + Counter(dict(m2.bexp))
            mon = Monomial(
                tuple(i for kind, i in word if kind == 0),
                tuple(i for kind, i in word if kind == 1),
                tuple(sorted(bexp.items())),
            )
            coeff = ref_poly_mul(c1, c2)
            out = out + GradedElement({mon: coeff if sign > 0 else -coeff})
    return out


def ref_apply(d, elem):
    """The graded Leibniz rule, one wrapped product per factor."""
    odd = d.degree & 1
    out = GradedElement()
    one = Poly.one()
    for mon, coeff in elem.terms.items():
        rest = GradedElement({Monomial(mon.alphas, mon.betas, mon.bexp): one})
        for j, val in table(d, "x").items():
            dc = coeff.diff(j)
            if dc:
                out = out + ref_mul(val, rest).scale(dc)
        for pos, i in enumerate(mon.alphas):
            val = d.vals.get(("alpha", i))
            if val is None:
                continue
            prefix = GradedElement({Monomial(mon.alphas[:pos], (), ()): coeff})
            suffix = GradedElement({Monomial(mon.alphas[pos + 1:], mon.betas, mon.bexp): one})
            term = ref_mul(ref_mul(prefix, val), suffix)
            out = out + (-term if odd and pos & 1 else term)
        for pos, i in enumerate(mon.betas):
            val = d.vals.get(("beta", i))
            if val is None:
                continue
            tot = len(mon.alphas) + pos
            prefix = GradedElement({Monomial(mon.alphas, mon.betas[:pos], ()): coeff})
            suffix = GradedElement({Monomial((), mon.betas[pos + 1:], mon.bexp): one})
            term = ref_mul(ref_mul(prefix, val), suffix)
            out = out + (-term if odd and tot & 1 else term)
        tot = len(mon.alphas) + len(mon.betas)
        sgn = -1 if odd and tot & 1 else 1
        for slot, (i, e) in enumerate(mon.bexp):
            val = d.vals.get(("b", i))
            if val is None:
                continue
            nb = mon.bexp[:slot] + mon.bexp[slot + 1:]
            if e > 1:
                nb = mon.bexp[:slot] + ((i, e - 1),) + mon.bexp[slot + 1:]
            lead = GradedElement({Monomial(mon.alphas, mon.betas, nb): coeff * Fraction(sgn * e)})
            out = out + ref_mul(lead, val)
    return out


def ref_commutator(d1, d2):
    sign = -1 if (d1.degree & 1) and (d2.degree & 1) else 1
    vals = {
        (kind, i): ref_apply(d1, d2.value(kind, i)) - ref_apply(d2, d1.value(kind, i)).scale(sign)
        for kind, i in set(d1.vals) | set(d2.vals)
    }
    return Derivation(d1.degree + d2.degree, vals)


def ref_bracket_with(q, y):
    if y.is_zero():
        return DSection()
    return DSection.from_derivation(ref_commutator(q, y.as_derivation()), "reference")


def ref_evaluate(phi, x, y):
    if phi.is_zero() or x.is_zero() or y.is_zero():
        return DSection()
    odd = phi.degree() & 1 and (x.degree() + y.degree()) & 1
    total = DSection()
    for (i, j, k), c in phi.comps.items():
        if i in x.comps and j in y.comps:
            term = ref_mul(ref_mul(x.comps[i], y.comps[j]), c)
            total = total + DSection({k: -term if odd else term})
    return total


def ref_hom_bracket(q, phi):
    if phi.is_zero():
        return HomSection(phi.s)
    s = phi.s
    sgn = -1 if (q.degree & 1) and (phi.degree() & 1) else 1
    basis = [DSection.basis(i) for i in range(s)]
    qbasis = [ref_bracket_with(q, basis[i]) for i in range(s)]
    comps = {}
    for i in range(s):
        for j in range(s):
            total = ref_bracket_with(q, ref_evaluate(phi, basis[i], basis[j]))
            total = total - ref_evaluate(phi, qbasis[i], basis[j]).scale(sgn)
            total = total - ref_evaluate(phi, basis[i], qbasis[j]).scale(sgn)
            for k, c in total.comps.items():
                comps[(i, j, k)] = c
    return HomSection(s, comps)


def ref_act(q, a):
    if isinstance(a, GradedElement):
        return ref_apply(q, a)
    if isinstance(a, DSection):
        return ref_bracket_with(q, a)
    return ref_hom_bracket(q, a)


def _coeffwise(fn, a):
    return fn(a) if isinstance(a, GradedElement) else a.map_coeffs(fn)


def _ref_delta_elem(a):
    out = GradedElement()
    for mon, coeff in a.terms.items():
        sign0 = -1 if (len(mon.alphas) + len(mon.betas)) & 1 else 1
        for slot, (i, e) in enumerate(mon.bexp):
            if i in mon.betas:
                continue
            pos = sum(1 for j in mon.betas if j < i)
            # the new beta enters on the right of the beta block and walks to its slot
            sgn = sign0 * (-1 if (len(mon.betas) - pos) & 1 else 1)
            betas = mon.betas[:pos] + (i,) + mon.betas[pos:]
            bexp = mon.bexp[:slot] + ((i, e - 1),) * (e > 1) + mon.bexp[slot + 1:]
            out = out + GradedElement({Monomial(mon.alphas, betas, bexp): coeff * Fraction(sgn * e)})
    return out


def _ref_kappa_elem(a):
    out = GradedElement()
    for mon, coeff in a.terms.items():
        q, r = len(mon.betas), sum(e for _, e in mon.bexp)
        if q == 0:
            continue
        factor = Fraction(1, q + r)
        # beta at 1-based position m of the beta block: (-1)^(m-1), then past the alphas
        asig = -1 if len(mon.alphas) & 1 else 1
        for pos, i in enumerate(mon.betas):
            sgn = asig * (-1 if pos & 1 else 1)
            betas = mon.betas[:pos] + mon.betas[pos + 1:]
            bexp = tuple(sorted((Counter(dict(mon.bexp)) + Counter({i: 1})).items()))
            out = out + GradedElement({Monomial(mon.alphas, betas, bexp): coeff * (factor * sgn)})
    return out


def ref_delta(a):
    return _coeffwise(_ref_delta_elem, a)


def ref_kappa(a):
    return _coeffwise(_ref_kappa_elem, a)


# -- the kernel against the references --------------------------------------
def test_reference_product_signs():
    a0, a1 = GradedElement.alpha(0), GradedElement.alpha(1)
    b0 = GradedElement.beta(0)
    assert ref_mul(a1, a0) == -(a0 * a1)
    assert ref_mul(b0, a1) == -(a1 * b0)
    assert ref_mul(a0, a0).is_zero()


def test_mul_matches_reference():
    r = rng(301)
    for idx in range(16):
        a = random_element(r, N, S, T, max_b=4)
        b = random_element(r, N, S, T, max_b=4)
        want = ref_mul(a, b)
        for upto in BUDGETS:
            assert a.mul(b, upto) == cut(want, upto), (idx, upto)


def test_contract_matches_reference():
    # accs[key] += sign * F * e: keys met twice, both signs, odd and even
    # factors (e and each F take every degree 0..3 somewhere)
    r = rng(311)
    for idx in range(12):
        e = random_homogeneous(r, N, S, T, idx % 4, max_b=3)
        fs = [random_homogeneous(r, N, S, T, (idx + d) % 4, max_b=3) for d in range(4)]
        moves = [("a", fs[0], 1), ("b", fs[1], -1), ("a", fs[2], -1),
                 ("c", fs[3], 1), ("b", fs[0], 1), ("a", fs[3], 1)]
        want = {}
        for key, f, sign in moves:
            term = ref_mul(f, e)
            want[key] = want.get(key, GradedElement()) + (term if sign == 1 else -term)
        for upto in BUDGETS:
            accs = {}
            ops = ((key, _operand(f), sign) for key, f, sign in moves)
            _contract(accs, e, ops, _INF if upto is None else upto)
            cuts = {key: cut(v, upto) for key, v in want.items()}
            assert _collect(accs) == {key: v for key, v in cuts.items() if v}, (idx, upto)


def test_contract_cancelling_moves_leave_no_key():
    r = rng(312)
    for idx in range(8):
        e = random_homogeneous(r, N, S, T, idx % 2, max_b=2)
        f = random_homogeneous(r, N, S, T, idx // 2 % 2, max_b=2)
        assert e and f and f.mul(e), idx
        for upto in BUDGETS:
            limit = _INF if upto is None else upto
            accs = {}
            # the same product with opposite signs, and F against -F
            op, neg = _operand(f), _operand(-f)
            _contract(accs, e, [("gone", op, 1), ("kept", op, 1), ("gone", op, -1)], limit)
            _contract(accs, e, [("also", op, 1), ("also", neg, 1)], limit)
            got, kept = _collect(accs), cut(ref_mul(f, e), upto)
            assert "gone" not in got and "also" not in got, (idx, upto)
            assert got == ({"kept": kept} if kept else {}), (idx, upto)


def test_mixed_denominators_meeting_on_one_monomial():
    # five pairs land on b1*b2, over denominators 2, 14, 3, 4 and 28:
    # the kernel raises its running denominator and rescales what it holds
    b1, b2 = GradedElement.bvar(0), GradedElement.bvar(1)
    x = GradedElement.xvar(0)
    a = b1.scale(Fraction(1, 2)) + b2.scale(Fraction(1, 3)) + (x * b1).scale(Fraction(-5, 4))
    b = b1 + b2 + (x * b2).scale(Fraction(3, 7))
    got = a * b
    assert got == ref_mul(a, b)
    mon = Monomial((), (), ((0, 1), (1, 1)))
    assert got.terms[mon].terms == {
        (): Fraction(5, 6),
        ((0, 1),): Fraction(1, 2) * Fraction(3, 7) - Fraction(5, 4),
        ((0, 2),): Fraction(-5, 4) * Fraction(3, 7),
    }


def test_apply_matches_reference():
    r = rng(302)
    for idx in range(24):
        d = random_derivation(r, N, S, T, idx % 4 - 1, max_b=3)
        a = random_element(r, N, S, T, max_b=5)
        want = ref_apply(d, a)
        for upto in BUDGETS:
            assert d.apply(a, upto) == cut(want, upto), (idx, d.degree, upto)


def cut_commutator(d, upto):
    """A commutator as a budget upto leaves it: only the values on b are cut."""
    vals = {g: cut(v, upto) if g[0] == "b" else v for g, v in d.vals.items()}
    return Derivation(d.degree, vals)


def test_commutator_matches_reference():
    r = rng(303)
    for idx in range(12):
        d1 = random_derivation(r, N, S, T, idx % 4 - 1, max_b=2)
        d2 = random_derivation(r, N, S, T, (idx // 4) % 4 - 1, max_b=2)
        want = ref_commutator(d1, d2)
        for upto in BUDGETS:
            got = d1.commutator(d2, upto)
            assert got.degree == want.degree
            assert table(got, "x") == table(want, "x"), (idx, upto)
            assert table(got, "alpha") == table(want, "alpha"), (idx, upto)
            assert table(got, "beta") == table(want, "beta"), (idx, upto)
            want_b = {i: cut(v, upto) for i, v in table(want, "b").items()}
            assert table(got, "b") == {i: v for i, v in want_b.items() if v}, (idx, upto)


def test_odd_self_bracket_matches_reference_and_the_generic_path():
    # d.commutator(d) forms 2 d(d(g)) once; an equal but distinct copy
    # takes the generic path, which forms both halves
    r = rng(308)
    for idx in range(8):
        # degree 1: at these ranks a self-bracket of degree -2 or 6 has no room
        d = random_derivation(r, N, S, T, 1, max_b=2)
        copy = Derivation(d.degree, dict(d.vals))
        want = ref_commutator(d, d)
        assert not want.is_zero(), idx
        for upto in BUDGETS:
            got = d.commutator(d, upto)
            assert got.degree == 2
            assert got == cut_commutator(want, upto), (idx, upto)
            assert got == d.commutator(copy, upto), (idx, upto)


def test_even_self_bracket_is_zero():
    r = rng(309)
    for idx in range(6):
        d = random_derivation(r, N, S, T, 2 * (idx % 2), max_b=2)
        assert d, idx
        for upto in BUDGETS:
            assert d.commutator(d, upto).is_zero(), (idx, upto)


def test_section_self_bracket_matches_reference():
    r = rng(310)
    for idx in range(8):
        y = random_dsection(r, N, S, T, idx % 2, max_b=2)
        assert y.bracket(y) == ref_bracket_with(y.as_derivation(), y), idx


def vertical_preserving(r, degree):
    """A random derivation whose x, alpha and beta values do not involve b."""
    d = random_derivation(r, N, S, T, degree, max_b=2)
    flat = {g: v if g[0] == "b" else v.part(r=0) for g, v in d.vals.items()}
    return Derivation(degree, flat)


def test_section_actions_match_reference():
    r = rng(305)
    for idx in range(12):
        q = vertical_preserving(r, idx % 4 - 1)
        carriers = [
            random_element(r, N, S, T, max_b=3),
            random_dsection(r, N, S, T, r.randint(0, 1), max_b=3),
            random_homsection(r, N, S, T, r.randint(0, 1), max_b=2),
        ]
        for a in carriers:
            want = ref_act(q, a)
            for upto in BUDGETS:
                got = q_act(q, a, "kernel test", upto)
                assert got == cut(want, upto), (idx, type(a).__name__, upto)


def test_hom_bracket_keeps_the_verticality_guard():
    q = Derivation(0, {("x", 0): GradedElement.bvar(0)})
    phi = HomSection(1, {(0, 0, 0): GradedElement.one()})
    for upto in BUDGETS:
        with pytest.raises(InternalInvariantError):
            hom_bracket(q, phi, upto)


def test_hom_bracket_with_warm_rows_matches_reference():
    # the rows [Q, e_k] are kept on Q once, exact, whatever budget formed
    # them; the second pass over the budgets, in the other order, reads
    # them back
    r = rng(307)
    for name in ("aff_pair", "tangent_only"):
        alg = build(name)
        fd = build_fedosov(alg, 3)
        phis = [random_homsection(r, alg.n, alg.s, alg.t, deg, max_b=2) for deg in (0, 1)]
        for q in (fd.D, *split_fedosov(fd)):
            wants = [ref_hom_bracket(q, phi) for phi in phis]
            for budgets in (BUDGETS, BUDGETS[::-1]):
                for phi, want in zip(phis, wants):
                    for upto in budgets:
                        got = hom_bracket(q, phi, upto)
                        assert got == cut(want, upto), (name, upto)
            assert len(q._rows) == 1, name


def test_chart_differentials_match_reference():
    r = rng(306)
    for name in VALID_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 3)
        ops = [fd.D, *split_fedosov(fd)] if name in MATCHED_NAMES else [fd.D]
        carriers = [
            random_element(r, alg.n, alg.s, alg.t, max_b=3, terms=2),
            random_dsection(r, alg.n, alg.s, alg.t, r.randint(0, 1), max_b=3),
            random_homsection(r, alg.n, alg.s, alg.t, r.randint(0, 1), max_b=2),
        ]
        for q in ops:
            assert q.commutator(q) == ref_commutator(q, q), name
            for a in carriers:
                want = ref_act(q, a)
                for upto in BUDGETS:
                    got = q_act(q, a, "kernel test", upto)
                    assert got == cut(want, upto), (name, type(a).__name__, upto)
            assert hom_bracket(q, HomSection(alg.s)).is_zero()


def test_delta_and_kappa_match_reference():
    r = rng(307)
    n, s, t = 2, 4, 3
    for idx in range(16):
        carriers = [
            random_element(r, n, s, t, max_b=4),
            random_dsection(r, n, s, t, idx % 2, max_b=3),
            random_homsection(r, n, s, t, idx % 2, max_b=2),
        ]
        for a in carriers:
            assert delta(a) == ref_delta(a), (idx, type(a).__name__)
            assert kappa(a) == ref_kappa(a), (idx, type(a).__name__)


@pytest.mark.parametrize("name", VALID_NAMES)
def test_delta_and_kappa_match_reference_on_correction_fields(name):
    x = build_fedosov(build(name), 4).x_field
    assert delta(x) == ref_delta(x)
    assert kappa(x) == ref_kappa(x)
    assert kappa(delta(x)) == ref_kappa(ref_delta(x))


# -- the scalar lane and the key rewrites -------------------------------------
LANES = (("const", "const"), ("const", "poly"), ("poly", "const"))
SPREAD = (Fraction(1, 5), Fraction(-2, 7), Fraction(3, 4), Fraction(1, 3))


def scalar(e):
    """True when every coefficient of e is a constant: its operand has the scalar view."""
    return _operand(e)[2] is not None


def spread(e):
    """e with its terms over the denominators of SPREAD in turn, so they differ."""
    out = GradedElement()
    for (m, c), f in zip(e.terms.items(), cycle(SPREAD)):
        out = out + GradedElement({m: c}).scale(f)
    return out


def lane_element(r, kind, draw, *args, **kwargs):
    """draw(r, n, *args) of kind "const" (constants only) or "poly" (some coefficient is not)."""
    while True:
        e = spread(draw(r, 0 if kind == "const" else N, *args, **kwargs))
        if e and scalar(e) == (kind == "const"):
            return e


def lane_derivation(r, kind, degree):
    """A derivation whose values are all constant, or not, over several denominators."""
    while True:
        d = random_derivation(r, 0 if kind == "const" else N, S, T, degree, max_b=2)
        vals = dict(d.vals)
        if kind == "const":  # values on x too, constant
            for j in range(N):
                vals[("x", j)] = random_homogeneous(r, 0, S, T, degree, max_b=2, terms=2)
        vals = {g: v.scale(f) for (g, v), f in zip(vals.items(), cycle(SPREAD)) if v}
        if vals and all(map(scalar, vals.values())) == (kind == "const"):
            return Derivation(degree, vals)


def test_scalar_view_needs_every_coefficient_constant():
    x = GradedElement.xvar(0)
    const = GradedElement.bvar(0).scale(Fraction(2, 3)) + GradedElement.alpha(1)
    assert _operand(const)[2] == [(m, flip, t[0]) for m, flip, t in _operand(const)[0]]
    assert scalar(GradedElement.one()) and scalar(GradedElement()) and scalar(const)
    assert not scalar(x) and not scalar(const + x * GradedElement.beta(0))
    assert not scalar(GradedElement.one() + x)  # constant and linear parts at one key


@pytest.mark.parametrize("kinds", LANES, ids="x".join)
def test_lane_mul_matches_reference(kinds):
    r = rng(320)
    for idx in range(12):
        a, b = (lane_element(r, kind, random_element, S, T, max_b=4) for kind in kinds)
        want = ref_mul(a, b)
        for upto in BUDGETS:
            assert a.mul(b, upto) == cut(want, upto), (idx, upto)


@pytest.mark.parametrize("kinds", LANES, ids="x".join)
def test_lane_apply_matches_reference(kinds):
    # the values of D sit over different denominators: the accumulator's
    # denominator is raised between the kernel calls of one apply
    r = rng(321)
    for idx in range(12):
        d = lane_derivation(r, kinds[0], idx % 3 - 1)
        a = lane_element(r, kinds[1], random_element, S, T, max_b=4)
        want = ref_apply(d, a)
        for upto in BUDGETS:
            assert d.apply(a, upto) == cut(want, upto), (idx, upto)


@pytest.mark.parametrize("kinds", LANES, ids="x".join)
def test_lane_commutator_matches_reference(kinds):
    r = rng(322)
    for idx in range(8):
        d1 = lane_derivation(r, kinds[0], idx % 3 - 1)
        d2 = lane_derivation(r, kinds[1], (idx // 3) % 3 - 1)
        want = ref_commutator(d1, d2)
        for upto in BUDGETS:
            assert d1.commutator(d2, upto) == cut_commutator(want, upto), (idx, upto)


@pytest.mark.parametrize("kinds", LANES, ids="x".join)
def test_lane_contract_matches_reference(kinds):
    # moves of F over different denominators meet on keys: the denominator
    # of an accumulator is raised after the lane (or the loop) has filled it
    r = rng(323)
    for idx in range(8):
        e = lane_element(r, kinds[1], random_homogeneous, S, T, idx % 3, max_b=3)
        fs = [lane_element(r, kinds[0], random_homogeneous, S, T, d % 3, max_b=3)
              for d in range(3)]
        moves = [("a", fs[0], 1), ("b", fs[1], -1), ("a", fs[2], -1), ("b", fs[0], 1)]
        want = {}
        for key, f, sign in moves:
            term = ref_mul(f, e)
            want[key] = want.get(key, GradedElement()) + (term if sign == 1 else -term)
        for upto in BUDGETS:
            accs = {}
            ops = ((key, _operand(f), sign) for key, f, sign in moves)
            _contract(accs, e, ops, _INF if upto is None else upto)
            cuts = {key: cut(v, upto) for key, v in want.items()}
            assert _collect(accs) == {key: v for key, v in cuts.items() if v}, (idx, upto)


@pytest.mark.parametrize("kinds", LANES, ids="x".join)
def test_lane_sums_that_cancel_leave_no_key(kinds):
    # D(b1) = c b2 and D(b2) = c b1 take e (b1^2 - b2^2) to 2ce (b1 b2 - b2 b1) = 0,
    # and (b1 + b2)(b2 - b1) loses its b1 b2 term
    c, e = (GradedElement.one() if k == "const" else GradedElement.xvar(0) for k in kinds)
    b1, b2 = GradedElement.bvar(0), GradedElement.bvar(1)
    d = Derivation(0, {("b", 0): (c * b2).scale(Fraction(1, 3)),
                       ("b", 1): (c * b1).scale(Fraction(1, 3))})
    a = (e * (b1 * b1 - b2 * b2)).scale(Fraction(1, 5))
    for upto in BUDGETS:
        assert d.apply(a, upto).is_zero(), upto
        got = (c * (b1 + b2)).mul(e * (b2 - b1), upto)
        assert got == cut(c * e * (b2 * b2 - b1 * b1), upto), upto
        assert Monomial((), (), ((0, 1), (1, 1))) not in got.num, upto
        accs = {}
        _contract(accs, e, [("gone", _operand(c), 1), ("gone", _operand(-c), 1)],
                  _INF if upto is None else upto)
        assert _collect(accs) == {}, upto
    assert d.commutator(d).is_zero()  # an even self-bracket: its halves cancel


@pytest.mark.parametrize("kinds", LANES, ids="x".join)
def test_lane_raises_past_max_fiber_within_the_budget(kinds):
    # fiber degrees 200 + 100: within any budget of at least 300 the pair
    # raises, under 300 the budget ends the loop first
    low, high = (GradedElement({Monomial((), (), ((i, e),)): Poly.one()})
                 for i, e in ((0, 200), (1, 100)))
    if kinds[0] == "poly":
        low = low * GradedElement.xvar(0)
    if kinds[1] == "poly":
        high = high * GradedElement.xvar(1)
    a, b = low + GradedElement.one(), high + GradedElement.bvar(1)
    for upto in (None, 300, 1000):
        with pytest.raises(ValueError, match="passes fiber degree 255"):
            a.mul(b, upto)
    assert a.mul(b, 299) == b + low * GradedElement.bvar(1)


def _no_kernel(*args):
    raise AssertionError("delta or kappa called the product kernel")


def test_delta_and_kappa_on_mixed_degrees_and_denominators(monkeypatch):
    # one element holds several degrees, several q + r (kappa's factors) and
    # denominators 5, 7, 4 and 3; neither operator makes a kernel call
    r = rng(330)
    n, s, t = 2, 4, 3
    cases = []
    for idx in range(16):
        a = spread(random_element(r, n if idx % 2 else 0, s, t, max_b=4, terms=6))
        drawn = random_dsection(r, n, s, t, 1, max_b=3)
        dsec = DSection({k: spread(c) for k, c in drawn.comps.items()})
        cases.append((a, dsec, ref_delta(a), ref_kappa(a), ref_delta(dsec), ref_kappa(dsec)))
    assert sum(len(a.degrees()) > 1 for a, *_ in cases) >= 8
    assert sum(len({m.q + m.bdeg for m in a.num if m.q}) > 2 for a, *_ in cases) >= 8
    monkeypatch.setattr(graded, "_mac", _no_kernel)
    for idx, (a, dsec, da, ka, dd, kd) in enumerate(cases):
        assert delta(a) == da and kappa(a) == ka, idx
        assert delta(dsec) == dd and kappa(dsec) == kd, idx
        assert kappa(delta(a)) == ref_kappa(da), idx
