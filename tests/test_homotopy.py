from fractions import Fraction

import pytest

from liepair.algebroid import ChartAlgebroid
from liepair.fedosov import build_fedosov, split_fedosov
from liepair.graded import GradedElement
from liepair.homotopy import (
    delta,
    delta_derivation,
    homotopy_defect,
    iota_star,
    kappa,
)
from liepair.random_elements import (
    random_dsection,
    random_element,
    random_hom_aform,
    random_homsection,
    rng,
)
from liepair.sections import DSection, HomSection, _check_carrier, hom_bracket

from conftest import MATCHED_NAMES, VALID_NAMES, build

A0 = GradedElement.alpha(0)
B0 = GradedElement.beta(0)
F0 = GradedElement.bvar(0)


def test_delta_on_generators():
    assert delta(F0) == B0
    assert delta(B0).is_zero()
    assert delta(A0).is_zero()
    assert delta(GradedElement.one()).is_zero()


def test_kappa_on_generators():
    assert kappa(B0) == F0
    assert kappa(F0).is_zero()
    assert kappa(A0).is_zero()
    # the value feeding the quadratic correction term
    assert kappa(A0 * B0 * F0) == (A0 * F0 * F0).scale(Fraction(-1, 2))


def test_iota_star_projection():
    e = A0 + A0 * B0 + F0 + GradedElement.one()
    assert iota_star(e) == A0 + GradedElement.one()
    _check_carrier(ChartAlgebroid(0, 1, 1), iota_star(e), "iota_star(e)", aform=True)


def test_delta_derivation_agrees():
    dd = delta_derivation(2)
    r = rng(31)
    for _ in range(50):
        a = random_element(r, 2, 2, 2, max_b=4, terms=3)
        assert dd.apply(a) == delta(a)


def test_delta_kappa_square_zero_and_homotopy():
    r = rng(32)
    for _ in range(120):
        a = random_element(r, 2, 2, 2, max_b=5, terms=3)
        assert delta(delta(a)).is_zero()
        assert kappa(kappa(a)).is_zero()
        assert homotopy_defect(a).is_zero()


def test_homotopy_identity_on_sections():
    r = rng(33)
    for _ in range(40):
        y = random_dsection(r, 1, 2, 1, r.randint(0, 2), max_b=4)
        assert homotopy_defect(y).is_zero()
        assert delta(delta(y)).is_zero()
        assert kappa(kappa(y)).is_zero()


def test_homotopy_identity_on_hom_tensors():
    r = rng(34)
    for _ in range(40):
        phi = random_homsection(r, 1, 2, 1, r.randint(0, 2), max_b=4)
        assert homotopy_defect(phi).is_zero()
        assert delta(delta(phi)).is_zero()
        assert kappa(kappa(phi)).is_zero()


def test_edge_carriers():
    assert homotopy_defect(GradedElement.zero()).is_zero()
    assert homotopy_defect(DSection()).is_zero()
    assert homotopy_defect(HomSection(2)).is_zero()
    one = GradedElement.one()
    # constants are alpha-forms: the homotopy reproduces them untouched
    assert iota_star(one) == one
    assert delta(one).is_zero() and kappa(one).is_zero()


def test_homotopy_suite_forms_each_operator_once_per_sample(monkeypatch):
    # delta(a), kappa(a) once, then delta and kappa of those two: 3 and 3 per sample
    import liepair.homotopy as homotopy
    import liepair.suites as suites

    calls = {"delta": 0, "kappa": 0}

    def counted(name, real):
        def op(a):
            calls[name] += 1
            return real(a)

        return op

    for name in calls:
        op = counted(name, getattr(homotopy, name))
        monkeypatch.setattr(homotopy, name, op)
        monkeypatch.setattr(suites, name, op)
    checks = suites.homotopy_suite(build("aff_pair"), rounds=12)  # 6 + 3 + 3 samples
    assert all(c.passed for c in checks)
    assert calls == {"delta": 36, "kappa": 36}


@pytest.mark.parametrize("name", VALID_NAMES)
def test_built_carriers_record_the_degree_of_their_components(name):
    # delta, kappa, iota_star and hom_bracket carry the degree along
    # unchecked (+1, -1, 0 and deg Q + deg phi): it must be the components' own
    alg = build(name)
    fd = build_fedosov(alg, 3)
    qs = [fd.D, *split_fedosov(fd)] if name in MATCHED_NAMES else [fd.D]
    r = rng(46)
    n, s, t = alg.n, alg.s, alg.t
    outs = []
    for deg in range(3):
        for a in (random_dsection(r, n, s, t, deg, max_b=3),
                  random_homsection(r, n, s, t, deg, max_b=2),
                  random_hom_aform(r, n, s, t, deg)):
            outs += [delta(a), kappa(a), iota_star(a)]
            if isinstance(a, HomSection):
                outs += [hom_bracket(q, a, upto) for q in qs for upto in (None, 1)]
    assert sum(map(bool, outs)) >= 12
    for out in outs:
        assert {v.degree() for v in out.comps.values()} == ({out.degree()} if out else set())
