from fractions import Fraction

import pytest

from liepair.algebroid import ChartAlgebroid, d_L_derivation, nabla_derivation
from liepair.atiyah import atiyah_lie_pair
from liepair.ddg import ModuleCurvature, module_curvature_components, split_dL
from liepair.graded import GradedElement
from liepair.poly import Poly
from liepair.random_elements import random_dsection, random_poly, rng
from liepair.sections import DSection

from conftest import MATCHED_NAMES, VALID_NAMES, build

G = Fraction(5, 3)
A0 = GradedElement.alpha(0)
B0 = GradedElement.beta(0)
B1 = GradedElement.beta(1)


def test_differential_squares_to_zero_all_valid():
    for name in VALID_NAMES:
        d = d_L_derivation(build(name))
        assert d.commutator(d).is_zero(), name


def test_broken_jacobi_differential_does_not_square_to_zero():
    d = d_L_derivation(build("broken_jacobi"))
    assert not d.commutator(d).is_zero()


def test_split_reassembles():
    for name in VALID_NAMES:
        alg = build(name)
        d = d_L_derivation(alg)
        d10, d01, dm12 = split_dL(alg)
        assert (d10 + d01 + dm12) == d, name


def test_split_rejects_two_minus_one_component():
    # a bracket of two A generators with a B value is not a Lie pair
    alg = ChartAlgebroid(
        0,
        1,
        2,
        C={(1, 2, 0): Poly.one(), (2, 1, 0): -Poly.one()},
    )
    with pytest.raises(ValueError):
        split_dL(alg)


def test_bidegree_piece_identities():
    for name in VALID_NAMES:
        d10, d01, dm12 = split_dL(build(name))
        assert d10.commutator(d10).is_zero(), name
        assert d10.commutator(d01).is_zero(), name
        assert (d01.commutator(d01) + d10.commutator(dm12).scale(2)).is_zero(), name
        assert d01.commutator(dm12).is_zero(), name
        assert dm12.commutator(dm12).is_zero(), name


def test_matched_kills_minus12_and_heisenberg_does_not():
    for name in MATCHED_NAMES:
        assert split_dL(build(name))[2].is_zero(), name
    _, _, dm12 = split_dL(build("heisenberg"))
    assert dm12.value("alpha", 0) == -(B0 * B1)
    assert not dm12.is_zero()


def test_a_connection_flat_matched():
    for name in MATCHED_NAMES:
        na = nabla_derivation(build(name)).bidegree_part(1, 0)
        assert na.commutator(na).is_zero(), name


def test_module_curvature_point_aff1():
    alg = build("point_aff1", gamma=G)
    mc = ModuleCurvature(alg)
    y = DSection.basis(0)
    out = mc.apply(y)
    assert out.comps == {0: (A0 * B0).scale(G)}
    assert mc.apply_via_mixed(y) == out
    comps = module_curvature_components(alg, [out])
    assert comps == {(0, 0, 0, 0): GradedElement.scalar(-G)}


def test_module_curvature_matches_pair_cocycle():
    for name in MATCHED_NAMES:
        alg = build(name)
        mc = ModuleCurvature(alg)
        got = module_curvature_components(alg, [mc.apply(DSection.basis(k)) for k in range(alg.s)])
        want = {
            key: GradedElement.from_poly(v)
            for key, v in atiyah_lie_pair(alg).items()
        }
        assert got == want, name


def test_module_curvature_function_linear():
    r = rng(71)
    alg = build("line_action")
    mc = ModuleCurvature(alg)
    for _ in range(10):
        f = GradedElement.from_poly(random_poly(r, alg.n))
        y = random_dsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
        assert mc.apply(y.mul_left(f)) == mc.apply(y).mul_left(f)


def test_module_curvature_commutes_with_d10():
    for name in MATCHED_NAMES:
        alg = build(name)
        mc = ModuleCurvature(alg)
        r = rng(72)
        samples = [DSection.basis(k) for k in range(alg.s)]
        samples += [random_dsection(r, alg.n, alg.s, alg.t, 0, max_b=2) for _ in range(3)]
        for y in samples:
            assert mc.d10(mc.apply(y)) == mc.apply(mc.d10(y)), name


def test_module_curvature_rejects_unmatched():
    with pytest.raises(ValueError):
        ModuleCurvature(build("heisenberg"))


def test_ddg_suite_applies_each_sample_section_once(monkeypatch):
    # R_m(y) of each sample feeds the routes check, the frame components
    # (its first s = 2 samples are the frame fields) and the d10 check;
    # aff_pair draws 2 frame fields and 4 nonzero sections at the suite's
    # seed: 6 samples + 10 linearity + 6 d10 images
    import liepair.ddg as ddg
    import liepair.suites as suites

    seen = []
    real = ddg.ModuleCurvature.apply

    def counted(self, y):
        seen.append(y)
        return real(self, y)

    monkeypatch.setattr(ddg.ModuleCurvature, "apply", counted)
    checks = suites.ddg_suite(build("aff_pair"))
    assert all(c.passed for c in checks)
    assert len({id(y) for y in seen}) == len(seen)  # seen keeps every argument alive
    assert [sum(y == DSection.basis(k) for y in seen) for k in range(2)] == [1, 1]
    assert len(seen) == 22
