from fractions import Fraction

import pytest

from liepair.algebroid import d_A, d_L_derivation, nabla_derivation
from liepair.errors import InternalInvariantError
from liepair.fedosov import (
    FedosovData,
    _flat_frame,
    _lift,
    build_fedosov,
    connection_square_residual,
    fedosov_x,
    flatness_defects,
    mu_lift,
    r_dual,
    split_fedosov,
)
from liepair.graded import Derivation, GradedElement
from liepair.homotopy import delta, delta_derivation, iota_star, kappa
from liepair.random_elements import random_aform, random_dsection, random_hom_aform, rng
from liepair.sections import DSection, HomSection, bracket_with, q_act

from conftest import MATCHED_NAMES, VALID_NAMES, build

G = Fraction(5, 3)
A0 = GradedElement.alpha(0)
B0 = GradedElement.beta(0)
F0 = GradedElement.bvar(0)


def test_r_dual_point_aff1():
    alg = build("point_aff1", gamma=G)
    rv = r_dual(alg)
    assert rv.comp(0) == (A0 * B0 * F0).scale(G)


def test_connection_square_is_twice_curvature():
    for name in VALID_NAMES:
        assert connection_square_residual(build(name)).is_zero(), name


def test_correction_field_point_aff1_closed_form():
    # X_k = (-1)^(k-1) gamma^(k-1)/(k(k-1)) alpha (b)^k for k = 2..max
    alg = build("point_aff1", gamma=G)
    x = fedosov_x(alg, 5)
    expected = GradedElement.zero()
    for k in range(2, 6):
        coeff = Fraction((-1) ** (k - 1), k * (k - 1)) * G ** (k - 1)
        fk = GradedElement.one()
        for _ in range(k):
            fk = fk * F0
        expected = expected + (A0 * fk).scale(coeff)
    assert x.comp(0) == expected


def test_build_fedosov_reuses_its_connection():
    for name in VALID_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 4)
        assert fd.nabla == nabla_derivation(alg), name
        assert fd.x_field == fedosov_x(alg, 4), name


def both_orders_x(alg, max_b):
    """X by the recursion as written, 1/2 sum over a + b = k + 1 of [X_a, X_b]
    in both orders, each bracket between two distinct derivation objects."""
    nabla = nabla_derivation(alg)
    parts = {2: kappa(r_dual(alg))}
    for k in range(2, max_b):
        src = bracket_with(nabla, parts[k])
        for a in range(2, k):
            xa, xb = parts[a].as_derivation(), parts[k + 1 - a].as_derivation()
            src = src + DSection.from_derivation(xa.commutator(xb)).scale(Fraction(1, 2))
        parts[k + 1] = kappa(src)
    total = DSection()
    for part in parts.values():
        total = total + part
    return total


@pytest.mark.parametrize("name", VALID_NAMES)
def test_fedosov_x_matches_the_both_orders_recursion(name):
    alg = build(name)
    for max_b in (5, 6):
        assert fedosov_x(alg, max_b) == both_orders_x(alg, max_b), max_b


def test_correction_field_vanishes_when_flat():
    x = fedosov_x(build("tangent_flat"), 5)
    assert x.is_zero()


def test_fedosov_x_rejects_small_bound():
    with pytest.raises(ValueError):
        fedosov_x(build("point_aff1"), 1)


def test_flatness_all_fixtures():
    for name in VALID_NAMES:
        for max_b in (3, 4):
            fd = build_fedosov(build(name), max_b)
            assert flatness_defects(fd) == {}, (name, max_b)


def test_differential_leading_terms():
    alg = build("point_aff1", gamma=G)
    fd = build_fedosov(alg, 4)
    # D b = nabla b - beta + X-part
    v = fd.D.value("b", 0)
    assert v.part(0, 1, 0) == -B0
    assert v.part(1, 0, 1) == -(A0 * F0)
    assert v.part(0, 1, 1) == -(B0 * F0).scale(G)
    assert v.part(1, 0, 2) == (A0 * F0 * F0).scale(-G / 2)


def test_split_reassembles_and_anticommutes():
    for name in MATCHED_NAMES:
        fd = build_fedosov(build(name), 4)
        da, db = split_fedosov(fd)
        assert (da + db) == fd.D, name
        window = fd.window
        for comm in (da.commutator(da), da.commutator(db), db.commutator(db)):
            for (kind, i), v in comm.vals.items():
                if kind == "b":
                    assert v.truncate(window).is_zero(), (name, "b", i)
                else:
                    assert v.is_zero(), (name, kind, i)


@pytest.mark.parametrize("name", VALID_NAMES)
def test_bidegree_parts_are_formed_once_and_add_back(name):
    alg = build(name)
    fd = build_fedosov(alg, 3)
    assert fd.nabla is nabla_derivation(alg)
    for d in (fd.D, fd.nabla, d_L_derivation(alg)):
        parts = d.bidegree_parts()
        assert parts and d.bidegree_parts() is parts, name
        total = Derivation(d.degree)
        for (dp, dq), part in parts.items():
            assert part and d.bidegree_part(dp, dq) is part, (name, dp, dq)
            for (kind, i), v in part.vals.items():  # each value lies in its shift
                p, q = {"x": (0, 0), "alpha": (1, 0), "beta": (0, 1), "b": (0, 0)}[kind]
                assert v.part(p=p + dp, q=q + dq) == v, (name, kind, i, dp, dq)
            total = total + part
        assert total == d, name
        assert d.bidegree_part(3, 3).is_zero() and d.bidegree_part(3, 3).degree == d.degree


def test_split_rejects_unmatched():
    fd = build_fedosov(build("heisenberg"), 3)
    with pytest.raises(ValueError):
        split_fedosov(fd)


def test_mixed_bracket_is_curvature_bidegree_part():
    for name in MATCHED_NAMES:
        alg = build(name)
        na = nabla_derivation(alg).bidegree_part(1, 0)
        nb = nabla_derivation(alg).bidegree_part(0, 1)
        mixed = na.commutator(nb)
        rv11 = r_dual(alg).as_derivation().bidegree_part(1, 1)
        assert mixed == rv11, name


def test_mu_lift_scalar_identities():
    r = rng(51)
    for name in MATCHED_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 4)
        da, db = split_fedosov(fd)
        w = fd.window
        for _ in range(6):
            a = random_aform(r, alg.n, alg.t, r.randint(0, min(alg.t, 2)))
            m = mu_lift(fd, a)
            assert iota_star(m) == a, name
            assert q_act(db, m, "t").truncate(w).is_zero(), name
            lhs = q_act(da, m, "t").truncate(w)
            rhs = mu_lift(fd, d_A(alg, a)).truncate(w)
            assert lhs == rhs, name


def test_mu_lift_point_aff1_value():
    # lifting the fiber frame against gamma twists it by powers of b
    alg = build("point_aff1", gamma=G)
    fd = build_fedosov(alg, 4)
    y = DSection.basis(0)
    m = mu_lift(fd, y)
    c = m.comp(0)
    assert iota_star(c) == GradedElement.one()
    assert q_act(split_fedosov(fd)[1], m, "t").truncate(fd.window).is_zero()


def test_mu_lift_hom_identities():
    r = rng(52)
    for name in ("point_aff1", "aff_pair"):
        alg = build(name)
        fd = build_fedosov(alg, 4)
        da, db = split_fedosov(fd)
        w = fd.window
        for _ in range(4):
            phi = random_hom_aform(r, alg.n, alg.s, alg.t, r.randint(0, 1))
            m = mu_lift(fd, phi)
            assert iota_star(m) == phi, name
            assert q_act(db, m, "t").truncate(w).is_zero(), name


def test_mu_lift_requires_aform_input():
    alg = build("point_aff1")
    fd = build_fedosov(alg, 4)
    with pytest.raises(ValueError):
        mu_lift(fd, GradedElement.beta(0))


def test_mu_lift_rejects_unmatched():
    fd = build_fedosov(build("heisenberg"), 3)
    with pytest.raises(ValueError):
        mu_lift(fd, GradedElement.alpha(0))


def test_mu_lift_solves_the_fixed_point_equation():
    # the defining equation of the lift, checked without any budget
    r = rng(53)
    for name in MATCHED_NAMES:
        alg = build(name)
        for max_b in (3, 4):
            fd = build_fedosov(alg, max_b)
            _, db = split_fedosov(fd)
            samples = [
                random_aform(r, alg.n, alg.t, r.randint(0, min(alg.t, 2))),
                random_dsection(r, alg.n, alg.s, alg.t, 0, max_b=0),
                random_hom_aform(r, alg.n, alg.s, alg.t, r.randint(0, min(alg.t, 1)),
                                 terms=1, density=0.4),
            ]
            for a in samples:
                m = mu_lift(fd, a)
                rhs = a + kappa(q_act(db, m, "t") + delta(m)).truncate(max_b)
                assert m == rhs, (name, max_b, type(a).__name__)


def test_mu_lift_rejects_a_differential_that_lowers_fiber_degree():
    fd = build_fedosov(build("point_aff1"), 3)
    lowering = fd.D - delta_derivation(fd.alg.s)
    broken = FedosovData(fd.alg, fd.max_b, fd.nabla, fd.x_field, lowering)
    with pytest.raises(InternalInvariantError):
        mu_lift(broken, DSection.basis(0))


def test_mu_lift_rejects_a_carrier_of_the_wrong_rank(monkeypatch):
    import liepair.fedosov as fedosov

    fd = build_fedosov(build("aff_pair"), 3)  # rank_B 2
    one = GradedElement.one()
    monkeypatch.setattr(fedosov, "_lift", None)  # no work before the check
    for a in (HomSection(3, {(2, 2, 2): one}), HomSection(1, {(0, 0, 0): one}),
              DSection({5: one})):
        with pytest.raises(ValueError, match="rank_B 2"):
            mu_lift(fd, a)
    # a fiber index past the rank of a Hom-tensor is refused when it is built
    with pytest.raises(ValueError, match="not in 0..1"):
        HomSection(2, {(0, 1, 2): one})


def _aform_section(r, alg, degree):
    comps = {k: random_aform(r, alg.n, alg.t, degree) for k in range(alg.s) if r.random() < 0.75}
    return DSection({k: c for k, c in comps.items() if c})


@pytest.mark.parametrize("name", MATCHED_NAMES)
def test_frame_route_equals_the_recursion(name):
    # the recursion lifts any carrier on its own; mu_lift takes sections
    # and Hom-tensors through the flat frame
    r = rng(54)
    alg = build(name)
    for max_b in (3, 4, 5):
        fd = build_fedosov(alg, max_b)
        for degree in (0, 1):
            samples = (
                _aform_section(r, alg, degree),
                random_hom_aform(r, alg.n, alg.s, alg.t, degree, terms=2, density=0.4),
            )
            for a in samples:
                m = mu_lift(fd, a)
                assert m == _lift(fd, a), (max_b, degree, type(a).__name__)
                # the frame or the base coordinates move every nonzero sample
                assert m != a or not a, (max_b, degree, type(a).__name__)


@pytest.mark.parametrize("name", MATCHED_NAMES)
def test_frame_inverse_is_exact_through_max_b(name):
    alg = build(name)
    one, zero, s = GradedElement.one(), GradedElement.zero(), alg.s
    for max_b in (3, 4, 5):
        m, inv = _flat_frame(build_fedosov(alg, max_b))
        for k in range(s):  # M = I + N with N of fiber degree >= 1
            for n in range(s):
                assert iota_star(m[k].get(n, zero)) == (one if n == k else zero), (max_b, k, n)
        for left, right in ((m, inv), (inv, m)):
            for k in range(s):
                for j in range(s):
                    total = zero
                    for n, c in left[k].items():
                        if j in right[n]:
                            total = total + c.mul(right[n][j], upto=max_b)
                    assert total == (one if k == j else zero), (max_b, k, j)


def test_split_and_frame_are_formed_once():
    fd = build_fedosov(build("aff_pair"), 3)
    assert fd._frame is None
    da, db = split_fedosov(fd)
    assert all(x is y for x, y in zip(split_fedosov(fd), (da, db)))
    assert da is fd.D.bidegree_part(1, 0) and db is fd.D.bidegree_part(0, 1)
    mu_lift(fd, GradedElement.alpha(0))
    assert fd._frame is None  # functions are lifted term by term, without the frame
    mu_lift(fd, DSection.basis(0))
    frame = fd._frame
    mu_lift(fd, HomSection(2, {(0, 1, 1): GradedElement.alpha(0)}))
    assert fd._frame is frame


def test_a_failing_split_raises_and_caches_nothing():
    fd = build_fedosov(build("aff_pair"), 3)
    # a value of bidegree (0, 2) on alpha1 shifts bidegree by (-1, 2)
    stray = Derivation(1, {("alpha", 0): GradedElement.beta(0) * GradedElement.beta(1)})
    broken = FedosovData(fd.alg, fd.max_b, fd.nabla, fd.x_field, fd.D + stray)
    for _ in range(3):
        with pytest.raises(InternalInvariantError, match="outside bidegrees"):
            split_fedosov(broken)
    with pytest.raises(InternalInvariantError):
        mu_lift(broken, DSection.basis(0))
    assert broken._frame is None


def _function_samples(r, alg):
    """Multi-term alpha-only functions: one per alpha degree, and their sum."""
    forms = [random_aform(r, alg.n, alg.t, degree, terms=4) for degree in range(min(alg.t, 2) + 1)]
    total = GradedElement.zero()
    for form in forms:
        total = total + form
    return forms + [total]


@pytest.mark.parametrize("name", MATCHED_NAMES)
def test_linear_route_equals_the_recursion(name):
    # mu_lift sums cached lifts of basis monomials; _lift runs the recursion
    # on the whole function
    r = rng(55)
    alg = build(name)
    for max_b in (3, 4, 5):
        fd = build_fedosov(alg, max_b)
        for _ in range(3):
            for a in _function_samples(r, alg):
                assert mu_lift(fd, a) == _lift(fd, a), max_b


@pytest.mark.parametrize("name", MATCHED_NAMES)
def test_lift_budget_is_truncation(name):
    r = rng(56)
    alg = build(name)
    for max_b in (3, 4):
        fd = build_fedosov(alg, max_b)
        samples = _function_samples(r, alg) + [
            _aform_section(r, alg, 0),
            random_hom_aform(r, alg.n, alg.s, alg.t, min(alg.t, 1), terms=2, density=0.4),
        ]
        for a in samples:
            full = mu_lift(fd, a)
            for u in range(max_b + 2):
                assert mu_lift(fd, a, upto=u) == full.truncate(u), (max_b, u)


def test_each_basis_monomial_is_lifted_once():
    fd = build_fedosov(build("line_action"), 4)  # x-powers and an alpha
    x, a = GradedElement.xvar(0), GradedElement.alpha(0)
    f = (x * x).scale(3) + a * x + a.scale(Fraction(-1, 2))
    first = mu_lift(fd, f)
    lifts = dict(fd._lifts)
    assert len(lifts) == 3  # x^2, alpha1 x and alpha1
    assert mu_lift(fd, f) == first
    assert mu_lift(fd, f.scale(7) + a * x) == first.scale(7) + mu_lift(fd, a * x)
    phi = HomSection(1, {(0, 0, 0): a * x + a})  # coefficients of one degree
    assert mu_lift(fd, phi) == _lift(fd, phi)
    assert fd._lifts.keys() == lifts.keys()
    assert all(fd._lifts[key] is m for key, m in lifts.items())


def test_mu_lift_rejects_generators_the_chart_does_not_have(monkeypatch):
    import liepair.fedosov as fedosov

    fd = build_fedosov(build("line_action"), 3)  # dim_base 1, rank_A 1, rank_B 1
    monkeypatch.setattr(fedosov, "_lift", None)  # no work before the check
    x4, a5 = GradedElement.xvar(3), GradedElement.alpha(4)
    for a, what in ((x4, "x4"), (a5, "alpha5"), (x4 * GradedElement.xvar(0), "x4"),
                    (DSection({0: a5}), "alpha5"), (HomSection(1, {(0, 0, 0): x4}), "x4")):
        with pytest.raises(ValueError, match=f"has {what}, the chart has"):
            mu_lift(fd, a)
    assert fd._lifts == {}
