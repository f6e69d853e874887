from fractions import Fraction

import pytest

from liepair.algebroid import (
    ChartAlgebroid,
    complete_antisymmetric,
    curvature,
    d_A,
    nabla_derivation,
    require_valid,
    validate_structure,
)
from liepair.errors import ValidationFailure
from liepair.fixtures import MATCHED_NAMES, VALID_NAMES, build
from liepair.graded import GradedElement
from liepair.poly import Poly
from liepair.random_elements import random_aform, rng

G = Fraction(5, 3)


def test_all_shipped_valid_fixtures_pass():
    for name in VALID_NAMES:
        rep = validate_structure(build(name))
        assert rep.passed, (name, [c.name for c in rep.failing()])


def test_broken_jacobi_fails_only_jacobi():
    rep = validate_structure(build("broken_jacobi"))
    assert [c.name for c in rep.failing()] == ["jacobi"]
    jac = [c for c in rep.checks if c.name == "jacobi"][0]
    assert any("-2" in r for r in jac.residuals)
    with pytest.raises(ValidationFailure):
        require_valid(build("broken_jacobi"))


def test_complete_antisymmetric():
    full = complete_antisymmetric({(1, 0, 0): Poly.one()}, 2)
    assert full[(0, 1, 0)] == -Poly.one()
    with pytest.raises(ValueError):
        complete_antisymmetric({(0, 0, 0): Poly.one()}, 2)
    with pytest.raises(ValueError):
        complete_antisymmetric({(0, 1, 0): Poly.one(), (1, 0, 0): Poly.one()}, 2)


def test_point_aff1_curvature():
    alg = build("point_aff1", gamma=G)
    R = curvature(alg)
    assert R.at(1, 0, 0, 0) == Poly.const(-G)
    assert R.at(0, 1, 0, 0) == Poly.const(G)
    assert R.is_antisymmetric()


def test_line_action_curvature():
    alg = build("line_action")
    R = curvature(alg)
    x = Poly.variable(0)
    assert R.at(1, 0, 0, 0) == Poly.const(2) * x


def test_tangent_only_curvature_table():
    alg = build("tangent_only")
    R = curvature(alg)
    x1, x2 = Poly.variable(0), Poly.variable(1)
    expected = {(0, 1, 1, 0): x2 * x2, (0, 1, 1, 1): Poly.one()}
    for i in range(2):
        for j in range(i + 1, 2):
            for k in range(2):
                for l in range(2):
                    want = expected.get((i, j, k, l), Poly.zero())
                    assert R.at(i, j, k, l) == want, (i, j, k, l)


def test_two_action_curvature_and_flat_directions():
    alg = build("two_action", gamma=G)
    R = curvature(alg)
    assert R.at(1, 0, 0, 0) == Poly.const(-G)
    assert R.at(2, 0, 0, 0) == Poly.const(-G * G)
    # the two acting directions commute, so their mixed curvature vanishes
    assert R.at(1, 2, 0, 0) == Poly.zero()


def test_aff_pair_curvature_table():
    alg = build("aff_pair", gamma=G)
    R = curvature(alg)
    expected = {
        (0, 1, 0, 0): Poly.const(-G),
        (0, 1, 1, 0): Poly.const(G * G - 1),
        (0, 2, 0, 0): Poly.const(G),
        (0, 2, 1, 0): Poly.const(G),
        (1, 2, 0, 0): Poly.const(G),
        (1, 2, 1, 0): Poly.const(1 - G),
    }
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(2):
                for l in range(2):
                    want = expected.get((i, j, k, l), Poly.zero())
                    assert R.at(i, j, k, l) == want, (i, j, k, l)


def test_torsion_free_fixtures_have_no_torsion():
    for name in VALID_NAMES:
        alg = build(name)
        assert alg.torsion() == {}, name


def test_symmetrized_repairs_b_torsion():
    # perturb the connection of a fixture so its B-block torsion is nonzero
    alg = build("aff_pair")
    gamma = dict(alg.Gamma)
    gamma[(0, 1, 0)] = gamma.get((0, 1, 0), Poly.zero()) + Poly.const(2)
    bad = ChartAlgebroid(alg.n, alg.s, alg.t, alg.rho, alg.C, gamma, alg.matched)
    assert any(i < bad.s for (i, j, k) in bad.torsion())
    fixed = bad.symmetrized()
    assert not any(i < fixed.s for (i, j, k) in fixed.torsion())


def test_nabla_values_point_aff1():
    alg = build("point_aff1", gamma=G)
    nb = nabla_derivation(alg)
    a0 = GradedElement.alpha(0)
    b0 = GradedElement.beta(0)
    f0 = GradedElement.bvar(0)
    # bracket constant C_{A,B}^B = 1 enters the odd values quadratically
    assert nb.value("beta", 0) == -(a0 * b0)
    assert nb.value("alpha", 0).is_zero()
    # connection rows: A row weight 1, B row weight gamma
    assert nb.value("b", 0) == -(a0 * f0) - (b0 * f0).scale(G)


def test_d_A_squares_to_zero_on_aforms():
    r = rng(41)
    for name in MATCHED_NAMES:
        alg = build(name)
        for _ in range(10):
            a = random_aform(r, alg.n, alg.t, r.randint(0, min(alg.t, 1)))
            assert d_A(alg, d_A(alg, a)).is_zero(), name


def test_d_A_rejects_non_aform_or_unmatched():
    alg = build("point_aff1")
    with pytest.raises(ValueError):
        d_A(alg, GradedElement.beta(0))
    hei = build("heisenberg")
    with pytest.raises(ValueError):
        d_A(hei, GradedElement.alpha(0))


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        ChartAlgebroid(0, 1, 0, rho={}, C={}, Gamma={(0, 0, 5): Poly.one()})
    with pytest.raises(ValueError):
        ChartAlgebroid(0, 1, 1, rho={}, C={(0, 0, 0): Poly.one()}, Gamma={})


def test_curvature_is_computed_once_per_chart():
    for name in VALID_NAMES:
        alg = build(name)
        first = curvature(alg)
        assert curvature(alg) is first, name
        fresh = curvature(build(name))
        assert fresh is not first
        assert first.comps == fresh.comps, name
        sym = alg.symmetrized()
        same = ChartAlgebroid(sym.n, sym.s, sym.t, sym.rho, sym.C, sym.Gamma, sym.matched)
        assert curvature(sym).comps == curvature(same).comps, name
