"""The value types check their invariants at the public constructors only.

Results built inside the package skip those checks: the product kernel
wraps its packed keys unchecked, and derivations carry their degree
along.  The first tests pin that the public constructors still reject
bad values and that a monomial round-trips its parts; the seeded
property test then rebuilds every kernel result through its public
constructor and requires the same object back, which is what "correct
by construction" promises.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from liepair.fedosov import build_fedosov, split_fedosov
from liepair.graded import Derivation, GradedElement, Monomial
from liepair.homotopy import delta, kappa
from liepair.poly import Poly
from liepair.random_elements import (
    random_dsection,
    random_element,
    random_homsection,
    rng,
)
from liepair.sections import DSection, HomSection, bracket_with, hom_bracket

from conftest import MATCHED_NAMES, VALID_NAMES, build
from reference_random import random_derivation

from test_kernel import N, S, T, vertical_preserving

ONE, A0, B0 = GradedElement.one(), GradedElement.alpha(0), GradedElement.beta(0)


@pytest.mark.parametrize(
    "alphas, betas, bexp",
    [
        ((1, 0), (), ()),
        ((0, 0), (), ()),
        ((), (2, 1), ()),
        ((), (1, 1), ()),
        ((), (), ((0, 0),)),
    ],
)
def test_monomial_rejects_bad_parts(alphas, betas, bexp):
    with pytest.raises(ValueError):
        Monomial(alphas, betas, bexp)


def _random_parts(r):
    alphas = tuple(sorted(r.sample(range(32), r.randint(0, 6))))
    betas = tuple(sorted(r.sample(range(32), r.randint(0, 6))))
    idx = sorted(r.sample(range(32), r.randint(0, 4)))
    bexp, room = [], 255
    for k, i in enumerate(idx):
        top = room - (len(idx) - k - 1)  # each later b needs exponent 1 or more
        e = r.randint(1, top if r.random() < 0.5 else min(3, top))
        bexp.append((i, e))
        room -= e
    return alphas, betas, tuple(bexp)


def test_monomial_round_trips_its_parts():
    r = rng(611)
    edges = [((), (), ()), ((31,), (31,), ((31, 255),)), ((0, 31), (0, 31), ((0, 1), (31, 254)))]
    seen = {}
    for parts in edges + [_random_parts(r) for _ in range(300)]:
        alphas, betas, bexp = parts
        m = Monomial(*parts)
        assert type(m) is Monomial
        assert (m.alphas, m.betas, m.bexp) == parts
        assert m.bdeg == sum(e for _, e in bexp) <= 255
        assert (m.p, m.q, m.degree) == (len(alphas), len(betas), len(alphas) + len(betas))
        assert m == Monomial(*parts) and hash(m) == hash(Monomial(*parts))
        assert seen.setdefault(m, parts) == parts
        assert repr(m) == f"Monomial({alphas}, {betas}, {bexp})"
        again = pickle.loads(pickle.dumps(m))
        assert again == m and type(again) is Monomial and type(copy.copy(m)) is Monomial
    assert Monomial() == 0 and GradedElement.one().terms == {Monomial(): Poly.one()}
    a = GradedElement({Monomial(*edges[1]): Poly.one()})
    assert check(copy.deepcopy(a)) == a


@pytest.mark.parametrize(
    "alphas, betas, bexp",
    [
        ((32,), (), ()),
        ((-1,), (), ()),
        ((), (0, 32), ()),
        ((), (-1,), ()),
        ((), (), ((32, 1),)),
        ((), (), ((-1, 1),)),
        ((), (), ((0, 256),)),
        ((), (), ((0, 200), (5, 56))),
        ((), (), ((1, 1), (0, 1))),
        ((), (), ((0, 1), (0, 1))),
    ],
)
def test_monomial_rejects_out_of_range_parts(alphas, betas, bexp):
    with pytest.raises(ValueError):
        Monomial(alphas, betas, bexp)


def test_fiber_degree_past_the_limit_raises():
    one = Poly.one()
    x = GradedElement({Monomial((), (), ((0, 200),)): one})
    y = GradedElement({Monomial((0,), (), ((1, 56),)): one})
    assert x.mul(GradedElement({Monomial((), (), ((1, 55),)): one})).degrees() == {0}
    for upto in (None, 256, 1000):
        with pytest.raises(ValueError):
            x.mul(y, upto)
    assert x.mul(y, 255).is_zero()
    top = Monomial((0,), (1,), ((0, 255),))
    with pytest.raises(ValueError):
        kappa(GradedElement({top: one}))
    assert kappa(GradedElement({Monomial((0,), (), ((0, 255),)): one})).is_zero()
    moved = GradedElement({Monomial((0,), (0, 1), ((0, 254),)): Poly.const(-255)})
    assert delta(GradedElement({top: one})) == moved
    b_square = Derivation(0, {("b", 0): GradedElement.bvar(0) * GradedElement.bvar(0)})
    with pytest.raises(ValueError):
        b_square.apply(x.mul(GradedElement({Monomial((), (), ((0, 55),)): one})))


@pytest.mark.parametrize(
    "degree, gen, value",
    [(1, ("beta", 32), B0 * A0), (0, ("alpha", 32), A0), (0, ("alpha", -1), A0), (1, ("b", 32), B0)],
)
def test_derivation_rejects_an_index_past_the_layout(degree, gen, value):
    with pytest.raises(ValueError):
        Derivation(degree, {gen: value})


def test_derivation_rejects_a_value_of_the_wrong_degree():
    with pytest.raises(ValueError):
        Derivation(1, {("b", 0): GradedElement.one()})
    with pytest.raises(ValueError):
        Derivation(1, {("y", 0): B0})


def test_derivations_of_different_degrees_do_not_add():
    d0 = Derivation(0, {("b", 0): ONE})
    d1 = Derivation(1, {("b", 0): B0})
    with pytest.raises(ValueError):
        d0 + d1
    # a zero summand takes the other's degree
    assert (Derivation(1) + d0) == d0 and (d1 + Derivation(0)).degree == 1


def test_carriers_reject_mixed_degrees():
    with pytest.raises(ValueError):
        DSection({0: ONE, 1: A0})
    with pytest.raises(ValueError):
        HomSection(2, {(0, 0, 0): ONE, (0, 1, 1): A0})


def test_homsection_rejects_an_index_past_its_rank():
    # (0, 0, 5) used to be built, and d_hom then raised a bare IndexError
    for key in ((0, 0, 5), (2, 0, 0), (0, 2, 1)):
        with pytest.raises(ValueError, match="not in 0..1"):
            HomSection(2, {key: ONE})
    assert HomSection(2, {(1, 1, 1): ONE}).comp(1, 1, 1) == ONE


def test_homsection_rejects_a_negative_index():
    # (-1, 0, 0) used to be built, and d_hom read column cols[-1] for it
    for key in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="not in 0..1"):
            HomSection(2, {key: ONE})


def test_homsection_rejects_a_key_that_is_not_a_triple():
    # HomSection(2, {(0, 0): one}) used to be built, and its repr raised a bare ValueError
    with pytest.raises(ValueError, match=r"HomSection key \(0, 0\) is not a triple of ints"):
        HomSection(2, {(0, 0): ONE})


def test_homsection_rejects_an_index_that_is_not_an_int():
    # (0, 0, 1.0) used to be built and printed as [1,1->2.0]
    with pytest.raises(ValueError, match=r"key \(0, 0, 1.0\) is not a triple of ints"):
        HomSection(2, {(0, 0, 1.0): ONE})


def test_homsection_rejects_a_rank_past_the_layout():
    for s in (-1, 33):
        with pytest.raises(ValueError, match="rank"):
            HomSection(s)
    assert HomSection(0).is_zero() and HomSection(32, {(31, 0, 31): ONE})


def test_dsection_rejects_a_negative_index():
    # DSection({-3: one}) used to print as d/db-2
    with pytest.raises(ValueError, match="not in 0..31"):
        DSection({-3: ONE})


def test_dsection_rejects_an_index_that_is_not_an_int():
    # DSection({0.0: one}) used to print as d/db1.0
    with pytest.raises(ValueError, match="DSection key 0.0 is not an int"):
        DSection({0.0: ONE})


def test_dsection_rejects_an_index_past_the_layout():
    # DSection({40: one}).as_derivation() used to build b41
    for k in (32, 40):
        with pytest.raises(ValueError, match="not in 0..31"):
            DSection({k: ONE})
    assert DSection({31: ONE}).as_derivation().value("b", 31) == ONE


def test_carriers_of_different_degrees_do_not_add():
    with pytest.raises(ValueError):
        DSection({0: ONE}) + DSection({1: A0})
    with pytest.raises(ValueError):
        HomSection(2, {(0, 0, 0): ONE}) + HomSection(2, {(0, 0, 0): A0})
    with pytest.raises(ValueError):
        HomSection(1, {(0, 0, 0): ONE}) + HomSection(2, {(0, 0, 0): ONE})


def test_carriers_of_different_kinds_do_not_add():
    # DSection + HomSection used to build a DSection keyed by (0, 0, 0), which
    # raised a bare TypeError when printed; HomSection + DSection raised
    # AttributeError
    y, phi = DSection({0: ONE}), HomSection(1, {(0, 0, 0): ONE})
    for a, b in ((y, phi), (phi, y), (DSection(), HomSection(1))):
        for combine in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
            with pytest.raises(TypeError, match="cannot add a"):
                combine()


def check(obj):
    """obj is what its public constructor builds from the same data."""
    if isinstance(obj, GradedElement):
        for m, c in obj.terms.items():
            assert type(m) is Monomial, m
            again = Monomial(m.alphas, m.betas, m.bexp)
            assert m == again and m.bdeg == again.bdeg, m
            assert c, m
    elif isinstance(obj, Derivation):
        for v in obj.vals.values():
            check(v)
        assert obj == Derivation(obj.degree, obj.vals)
    elif isinstance(obj, DSection):
        for v in obj.comps.values():
            check(v)
        again = DSection(obj.comps)
        assert obj == again and obj.degree() == again.degree()
    elif isinstance(obj, HomSection):
        for v in obj.comps.values():
            check(v)
        again = HomSection(obj.s, obj.comps)
        assert obj == again and obj.degree() == again.degree()
    else:
        raise TypeError(type(obj))
    return obj


def check_linear(x, y):
    """+, -, scale and (for functions and carriers) truncate on x and y."""
    check(x + y)
    check(x - y)
    check(-x)
    for c in (Fraction(-3, 2), 0, Poly.variable(0) + Poly.const(1)):
        check(x.scale(c))
    if not isinstance(x, Derivation):
        for n in range(4):
            check(x.truncate(n))


def test_random_kernel_results_pass_the_public_checks():
    r = rng(601)
    for idx in range(16):
        d1 = random_derivation(r, N, S, T, idx % 4 - 1, max_b=2)
        d2 = random_derivation(r, N, S, T, (idx // 4) % 4 - 1, max_b=2)
        a = random_element(r, N, S, T, max_b=2)
        b = random_element(r, N, S, T, max_b=2)
        q = vertical_preserving(r, idx % 2)
        y1 = random_dsection(r, N, S, T, idx % 2, max_b=2)
        y2 = random_dsection(r, N, S, T, idx % 2, max_b=2)
        phi1 = random_homsection(r, N, S, T, idx % 2, max_b=2)
        phi2 = random_homsection(r, N, S, T, idx % 2, max_b=2)
        for upto in (None, 0, 1, 2, 3, 4):
            check(a.mul(b, upto))
            check(d1.apply(a, upto))
            check(d1.commutator(d2, upto))
            check(bracket_with(q, y1, upto=upto))
            check(hom_bracket(q, phi1, upto=upto))
        check(a * b)
        for dp, dq in ((0, 0), (1, 0), (0, 1), (-1, 2), (2, -1)):
            check(d1.bidegree_part(dp, dq))
        for x in (a, y1, phi1):
            check(delta(x))
            check(kappa(x))
            check(kappa(delta(x)))
        check_linear(a, b)
        check_linear(d1, d1.scale(2))
        check_linear(y1, y2)
        check_linear(phi1, phi2)


@pytest.mark.parametrize("name", VALID_NAMES)
def test_chart_differentials_pass_the_public_checks(name):
    fd = build_fedosov(build(name), 3)
    parts = [fd.D, fd.nabla]
    if name in MATCHED_NAMES:
        parts += split_fedosov(fd)
    for d in parts:
        check(d)
        check_linear(d, d)
        for dp, dq in ((1, 0), (0, 1), (-1, 2)):
            check(d.bidegree_part(dp, dq))
        for upto in (None, 0, 1, 2, 3, 4):
            check(d.commutator(fd.D, upto))
    check(fd.x_field)
    check_linear(fd.x_field, fd.x_field)
    check(kappa(fd.x_field))
    check(delta(fd.x_field))
