from fractions import Fraction

import pytest

from liepair.atiyah import (
    atiyah_dg,
    atiyah_lie_pair,
    check_atiyah_comparison,
    d_hom,
    pair_as_hom,
    pair_is_symmetric,
    transgression_residual,
)
from liepair.algebroid import d_A
from liepair.fedosov import build_fedosov
from liepair.graded import Derivation, GradedElement
from liepair.homotopy import iota_star
from liepair.poly import Poly
import liepair.atiyah as atiyah
from liepair.random_elements import random_dsection, random_hom_aform, random_homsection, rng
from liepair.sections import DSection, HomSection, bracket_with, evaluate

from conftest import MATCHED_NAMES, VALID_NAMES, build

G = Fraction(5, 3)


def _nabla0(x, y):
    """The coefficientwise derivative of y along x, in which the frame fields are flat."""
    xd = x.as_derivation()
    return DSection({j: xd.apply(c) for j, c in y.comps.items()})


def test_pair_cocycle_point_aff1():
    pair = atiyah_lie_pair(build("point_aff1", gamma=G))
    assert pair == {(0, 0, 0, 0): Poly.const(-G)}
    assert pair_is_symmetric(pair)


def test_pair_cocycle_line_action():
    pair = atiyah_lie_pair(build("line_action"))
    assert pair == {(0, 0, 0, 0): Poly.const(2) * Poly.variable(0)}


def test_pair_cocycle_two_action():
    pair = atiyah_lie_pair(build("two_action", gamma=G))
    assert pair == {
        (0, 0, 0, 0): Poly.const(-G),
        (1, 0, 0, 0): Poly.const(-G * G),
    }


def test_pair_cocycle_aff_pair_symmetric_off_diagonal():
    pair = atiyah_lie_pair(build("aff_pair", gamma=G))
    assert pair == {
        (0, 0, 0, 0): Poly.const(-G),
        (0, 0, 1, 0): Poly.const(-G),
        (0, 1, 0, 0): Poly.const(-G),
        (0, 1, 1, 0): Poly.const(G - 1),
    }
    assert list(pair) == sorted(pair)
    assert pair_is_symmetric(pair)


def test_dg_cocycle_restriction_point_aff1():
    fd = build_fedosov(build("point_aff1", gamma=G), 4)
    dg = iota_star(atiyah_dg(fd))
    assert dg.comps == {(0, 0, 0): GradedElement.alpha(0).scale(-G)}


def test_dg_cocycle_equals_second_fiber_derivative():
    # independent route: differentiate the correction field twice in b
    for name in MATCHED_NAMES + ("heisenberg",):
        alg = build(name)
        fd = build_fedosov(alg, 4)
        full = atiyah_dg(fd)
        comps = {}
        for i in range(alg.s):
            di = Derivation(0, {("b", i): GradedElement.one()})
            for j in range(alg.s):
                dj = Derivation(0, {("b", j): GradedElement.one()})
                for l in range(alg.s):
                    v = di.apply(dj.apply(fd.D.value("b", l)))
                    if not v.is_zero():
                        comps[(i, j, l)] = v
        assert full == HomSection(alg.s, comps), name


def test_comparison_zero_named_fixtures():
    for name, gamma in (("point_aff1", G), ("line_action", None), ("tangent_only", None)):
        alg = build(name, gamma=gamma) if gamma is not None else build(name)
        fd = build_fedosov(alg, 4)
        resid = check_atiyah_comparison(fd)
        assert resid.is_zero(), name


def test_comparison_zero_all_matched():
    for name in MATCHED_NAMES:
        fd = build_fedosov(build(name), 4)
        assert check_atiyah_comparison(fd).is_zero(), name


def test_comparison_with_random_twists():
    r = rng(61)
    for name in ("point_aff1", "aff_pair", "two_action"):
        alg = build(name)
        fd = build_fedosov(alg, 4)
        for _ in range(5):
            twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
            assert check_atiyah_comparison(fd, twist).is_zero(), name


def test_comparison_rejects_unmatched():
    fd = build_fedosov(build("heisenberg"), 3)
    with pytest.raises(ValueError):
        check_atiyah_comparison(fd)


def test_transgression_exact():
    r = rng(62)
    for name in ("point_aff1", "line_action", "aff_pair"):
        alg = build(name)
        fd = build_fedosov(alg, 4)
        for _ in range(5):
            twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
            assert transgression_residual(fd, twist).is_zero(), name


def test_transgression_refuses_a_missing_shift_before_any_work(monkeypatch):
    fd = build_fedosov(build("aff_pair"), 3)

    def no_work(*args, **kwargs):
        raise AssertionError("the cocycle was formed")

    monkeypatch.setattr(atiyah, "atiyah_dg", no_work)
    monkeypatch.setattr(atiyah, "bracket_with", no_work)
    monkeypatch.setattr(atiyah, "_frame_rows", no_work)
    monkeypatch.setattr(atiyah, "d_hom", no_work)
    with pytest.raises(ValueError, match="needs a connection shift"):
        transgression_residual(fd, None)


def _shift_through_evaluate(fd, twist):
    """q(T(X, Y)) - T(qX, Y) - T(X, qY) on the frame fields, each term through evaluate."""
    s = fd.alg.s
    basis = [DSection.basis(i) for i in range(s)]
    qb = [bracket_with(fd.D, e) for e in basis]
    comps = {}
    for i in range(s):
        for j in range(s):
            total = (bracket_with(fd.D, evaluate(twist, basis[i], basis[j]))
                     - evaluate(twist, qb[i], basis[j])
                     - evaluate(twist, basis[i], qb[j]))
            comps.update({(i, j, k): c for k, c in total.comps.items()})
    return HomSection(s, comps)


def test_transgression_forms_the_shift_term_alone(monkeypatch):
    # with d_hom taken out, transgression_residual returns its own shift
    # term, which must equal the formula through evaluate; it forms neither
    # the cocycle nor a hom_bracket
    r = rng(65)
    cases = []
    for name in VALID_NAMES:
        fd = build_fedosov(build(name), 3)
        twist = random_homsection(r, fd.alg.n, fd.alg.s, fd.alg.t, 0, max_b=2)
        cases.append((fd, twist, _shift_through_evaluate(fd, twist)))
    assert any(not want.is_zero() for _, _, want in cases)

    def no_work(*args, **kwargs):
        raise AssertionError("the cocycle or a hom_bracket was formed")

    monkeypatch.setattr(atiyah, "atiyah_dg", no_work)
    monkeypatch.setattr(atiyah, "hom_bracket", no_work)
    monkeypatch.setattr(atiyah, "d_hom", lambda fd, phi, upto=None: HomSection(phi.s))
    for fd, twist, want in cases:
        assert transgression_residual(fd, twist) == want


def test_a_wrong_d_hom_fails_both_shift_checks_and_spares_the_untwisted_one(monkeypatch):
    # d_hom is the shift term of atiyah_dg and one of the two routes of the
    # transgression: an alpha-only error in it must reach the twisted
    # comparison and the transgression, and nothing else
    real = atiyah.d_hom

    def wrong(fd, phi, upto=None):
        return real(fd, phi, upto) + HomSection(phi.s, {(0, 0, 0): GradedElement.alpha(0)})

    monkeypatch.setattr(atiyah, "d_hom", wrong)
    r = rng(70)
    for name in ("point_aff1", "aff_pair", "two_action"):
        alg = build(name)
        fd = build_fedosov(alg, 3)
        twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
        assert check_atiyah_comparison(fd).is_zero(), name
        assert not check_atiyah_comparison(fd, twist).is_zero(), name
        assert not transgression_residual(fd, twist).is_zero(), name


@pytest.mark.parametrize("name", VALID_NAMES)
def test_nabla0_into_a_frame_field_is_zero(name):
    # why atiyah_dg leaves out -nabla0(q e_i, e_j): e_j has the constant coefficient 1,
    # so the cocycle is the other term, -nabla0(e_i, q e_j), alone
    alg = build(name)
    fd = build_fedosov(alg, 3)
    r = rng(66)
    fields = [random_dsection(r, alg.n, alg.s, alg.t, r.randint(0, 1), max_b=3) for _ in range(4)]
    fields += [bracket_with(fd.D, DSection.basis(i)) for i in range(alg.s)]
    for y in fields:
        for j in range(alg.s):
            assert _nabla0(y, DSection.basis(j)).is_zero()
    # the whole expression -nabla0(q e_i, e_j) - nabla0(e_i, q e_j) is atiyah_dg
    basis, qb = [DSection.basis(i) for i in range(alg.s)], fields[-alg.s:]
    comps = {}
    for i in range(alg.s):
        for j in range(alg.s):
            total = -_nabla0(qb[i], basis[j]) - _nabla0(basis[i], qb[j])
            comps.update({(i, j, k): c for k, c in total.comps.items()})
    assert atiyah_dg(fd) == HomSection(alg.s, comps)


def test_twist_must_be_degree_zero_hom():
    fd = build_fedosov(build("aff_pair"), 4)
    r = rng(63)
    odd = random_hom_aform(r, 0, 2, 1, 1)
    assert odd.degree() == 1
    with pytest.raises(ValueError):
        atiyah_dg(fd, odd)
    with pytest.raises(TypeError):
        atiyah_dg(fd, "not a hom tensor")


@pytest.mark.parametrize("rank", (1, 3))
def test_twist_rank_must_match_the_chart(rank):
    fd = build_fedosov(build("aff_pair"), 3)  # rank_B 2
    one = GradedElement.one()
    twist = HomSection(rank, {(i, i, i): one for i in range(rank)})
    for fn in (atiyah_dg, transgression_residual, check_atiyah_comparison):
        with pytest.raises(ValueError, match="rank_B 2"):
            fn(fd, twist)


@pytest.mark.parametrize("name", VALID_NAMES)
def test_dg_cocycle_budget_is_truncation(name):
    alg = build(name)
    max_b = 3
    fd = build_fedosov(alg, max_b)
    twist = random_homsection(rng(65), alg.n, alg.s, alg.t, 0, max_b=2)
    for t in (None, twist):
        full = atiyah_dg(fd, t)
        for k in range(max_b + 1):
            assert atiyah_dg(fd, t, upto=k) == full.truncate(k), (t is None, k)


@pytest.mark.parametrize("name", VALID_NAMES)
def test_shift_by_rows_equals_the_formula_through_evaluate(name):
    # atiyah_dg adds d_hom(T) to At_D; here the shift term is
    # q(T(e_i, e_j)) - T(q e_i, e_j) - T(e_i, q e_j), each through evaluate,
    # and At_D is -nabla0(e_i, q e_j)
    alg = build(name)
    fd = build_fedosov(alg, 3)
    r = rng(67)
    basis = [DSection.basis(i) for i in range(alg.s)]
    qb = [bracket_with(fd.D, e) for e in basis]
    at_d = HomSection(alg.s, {
        (i, j, k): -c
        for i in range(alg.s) for j in range(alg.s)
        for k, c in _nabla0(basis[i], qb[j]).comps.items()
    })
    for _ in range(2):
        twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
        want = at_d + _shift_through_evaluate(fd, twist)
        assert atiyah_dg(fd, twist) == want
        for k in range(3):
            assert atiyah_dg(fd, twist, upto=k) == want.truncate(k), k


def test_comparison_equals_the_unbudgeted_formula():
    r = rng(66)
    for name in MATCHED_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 3)
        twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
        want = (
            iota_star(atiyah_dg(fd, twist))
            - pair_as_hom(atiyah_lie_pair(alg), alg.s)
            - d_A(alg, iota_star(twist))
        )
        assert check_atiyah_comparison(fd, twist) == want, name


def test_d_hom_squares_in_window():
    r = rng(64)
    for name in ("point_aff1", "tangent_only", "heisenberg"):
        alg = build(name)
        fd = build_fedosov(alg, 4)
        for deg in (0, 1):
            phi = random_homsection(r, alg.n, alg.s, alg.t, deg, max_b=1)
            resid = d_hom(fd, d_hom(fd, phi)).truncate(2)
            assert resid.is_zero(), (name, deg)


def test_dg_cocycle_closed_in_window():
    # the closedness defect is fed by the square of the truncated
    # differential, whose fiber degree is at least max_b; two fiber
    # derivatives lower that by two, so closedness holds through max_b - 3
    for name in MATCHED_NAMES:
        fd = build_fedosov(build(name), 4)
        at = atiyah_dg(fd)
        assert d_hom(fd, at).truncate(1).is_zero(), name
    # sharp: at bound 4 the defect really does appear at fiber degree 2,
    # and deepening the bound pushes it out correspondingly
    fd4 = build_fedosov(build("point_aff1"), 4)
    assert not d_hom(fd4, atiyah_dg(fd4)).truncate(2).is_zero()
    fd6 = build_fedosov(build("point_aff1"), 6)
    assert d_hom(fd6, atiyah_dg(fd6)).truncate(3).is_zero()
    assert not d_hom(fd6, atiyah_dg(fd6)).truncate(4).is_zero()


def test_atiyah_suite_builds_the_pair_cocycle_once(monkeypatch):
    import liepair.suites as suites

    calls = []
    real = atiyah.atiyah_lie_pair

    def counted(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(suites, "atiyah_lie_pair", counted)
    monkeypatch.setattr(atiyah, "atiyah_lie_pair", counted)
    checks = suites.atiyah_suite(build("aff_pair"), max_b=3)
    assert all(c.passed for c in checks)
    assert "cocycle_comparison" in [c.name for c in checks]
    assert len(calls) == 1


def test_comparison_with_a_given_pair_equals_the_one_it_builds():
    r = rng(67)
    for name in MATCHED_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 3)
        twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
        pair = atiyah_lie_pair(alg)
        for t in (None, twist):
            assert check_atiyah_comparison(fd, t, pair) == check_atiyah_comparison(fd, t), name


def test_frame_rows_are_formed_once_per_budget(monkeypatch):
    # d_hom and atiyah_dg read the rows [D, e_k] kept on D; atiyah_dg at
    # upto k reads them at budget k + 1, so four budgets are formed in all
    import liepair.sections as sections

    calls = []
    real = sections.bracket_with

    def counted(q, y, *args):
        calls.append(q)
        return real(q, y, *args)

    monkeypatch.setattr(sections, "bracket_with", counted)
    alg = build("aff_pair")
    fd = build_fedosov(alg, 4)
    r = rng(68)
    phis = [random_homsection(r, alg.n, alg.s, alg.t, deg, max_b=1) for deg in (0, 1)]
    passes = []
    for _ in range(2):
        got = [d_hom(fd, phi, upto=upto) for phi in phis for upto in (None, 1, 2, 3)]
        got += [atiyah_dg(fd, upto=upto) for upto in (None, 0, 1, 2)]
        passes.append(got)
    assert passes[0] == passes[1]
    assert len(calls) == 4 * alg.s and all(q is fd.D for q in calls)


@pytest.mark.parametrize("name", VALID_NAMES)
def test_dg_cocycle_budget_is_truncation_with_rows_warmed_elsewhere(name):
    # rows warmed by d_hom at every budget, then read by atiyah_dg from the
    # top budget down; the reference comes from a second, cold FedosovData
    alg = build(name)
    max_b = 3
    fd = build_fedosov(alg, max_b)
    twist = random_homsection(rng(69), alg.n, alg.s, alg.t, 0, max_b=2)
    for k in range(max_b + 1):
        d_hom(fd, twist, upto=k)
    cold = build_fedosov(alg, max_b)
    for t in (None, twist):
        full = atiyah_dg(cold, t)
        for k in reversed(range(max_b + 1)):
            assert atiyah_dg(fd, t, upto=k) == full.truncate(k), (t is None, k)
        assert atiyah_dg(fd, t) == full, t is None


def test_a_corrupted_cached_row_fails_the_suite(monkeypatch):
    # one entry [D, e_l]_0 doubled where the kernel reads it: both checks
    # that go through the cached rows must see it
    import liepair.sections as sections
    import liepair.suites as suites
    from liepair.graded import _operand

    real = sections._frame_rows

    def corrupted(q, s, limit, what):
        rows, ops, cols = real(q, s, limit, what)
        l, _ = cols[0][0]
        bad = _operand(rows[l].comps[0].scale(2))
        ops = [dict(op) for op in ops]
        ops[l][0] = bad
        cols = [list(col) for col in cols]
        cols[0][0] = (l, bad)
        return rows, ops, cols

    monkeypatch.setattr(sections, "_frame_rows", corrupted)
    monkeypatch.setattr(atiyah, "_frame_rows", corrupted)
    checks = {c.name: c.passed for c in suites.atiyah_suite(build("aff_pair"), max_b=3)}
    assert not checks["hom_differential_squares_windowed"]
    assert not checks["transgression_exact"]
    monkeypatch.undo()
    checks = {c.name: c.passed for c in suites.atiyah_suite(build("aff_pair"), max_b=3)}
    assert checks["hom_differential_squares_windowed"] and checks["transgression_exact"]
