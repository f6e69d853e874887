from fractions import Fraction

import pytest

import liepair.algebroid as algebroid
import liepair.cli as cli
import liepair.ddg as ddg
import liepair.suites as suites
from liepair.algebroid import (
    ChartAlgebroid,
    complete_antisymmetric,
    curvature,
    d_A,
    d_L_derivation,
    nabla_derivation,
    validate_structure,
)
from liepair.expressions import poly_str
from liepair.graded import Derivation, GradedElement
from liepair.poly import Poly
from liepair.random_elements import random_aform, random_poly, rng
from liepair.sections import DSection, HomSection

from conftest import ALL_NAMES, MATCHED_NAMES, VALID_NAMES, build, fixture_path, table

G = Fraction(5, 3)


def test_all_shipped_valid_fixtures_pass():
    for name in VALID_NAMES:
        failing = [axiom for axiom, res in validate_structure(build(name)).items() if res]
        assert not failing, (name, failing)


def test_broken_jacobi_fails_only_jacobi():
    axioms = validate_structure(build("broken_jacobi"))
    assert [axiom for axiom, res in axioms.items() if res] == ["jacobi"]
    assert any("-2" in r for r in axioms["jacobi"])


def test_complete_antisymmetric():
    full = complete_antisymmetric({(1, 0, 0): Poly.one()})
    assert full[(0, 1, 0)] == -Poly.one()
    with pytest.raises(ValueError):
        complete_antisymmetric({(0, 0, 0): Poly.one()})
    with pytest.raises(ValueError):
        complete_antisymmetric({(0, 1, 0): Poly.one(), (1, 0, 0): Poly.one()})


def test_point_aff1_curvature():
    alg = build("point_aff1", gamma=G)
    R = curvature(alg)
    assert R[(1, 0, 0, 0)] == Poly.const(-G)
    assert R[(0, 1, 0, 0)] == Poly.const(G)
    assert all(R.get((j, i, k, l)) == -v for (i, j, k, l), v in R.items())


def test_line_action_curvature():
    alg = build("line_action")
    R = curvature(alg)
    x = Poly.variable(0)
    assert R[(1, 0, 0, 0)] == Poly.const(2) * x


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
                    assert R.get((i, j, k, l), Poly.zero()) == want, (i, j, k, l)


def test_two_action_curvature_and_flat_directions():
    alg = build("two_action", gamma=G)
    R = curvature(alg)
    assert R[(1, 0, 0, 0)] == Poly.const(-G)
    assert R[(2, 0, 0, 0)] == Poly.const(-G * G)
    # the two acting directions commute, so their mixed curvature vanishes
    assert R.get((1, 2, 0, 0), Poly.zero()) == Poly.zero()


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
                    assert R.get((i, j, k, l), Poly.zero()) == want, (i, j, k, l)


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


def test_d_A_refuses_a_hom_tensor_of_another_rank():
    # it used to give [1,1->1] -alpha1 on aff_pair (rank_B 2), one component of three
    with pytest.raises(ValueError, match="rank_B 2"):
        d_A(build("aff_pair"), HomSection(1, {(0, 0, 0): GradedElement.one()}))


def test_d_A_refuses_a_section_past_rank_b():
    # DSection({5: one}) used to give zero on aff_pair (rank_B 2)
    with pytest.raises(ValueError, match="rank_B 2"):
        d_A(build("aff_pair"), DSection({5: GradedElement.one()}))


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
        assert all(first.values()) and list(first) == sorted(first), name
        fresh = curvature(build(name))
        assert fresh is not first
        assert first == fresh, name
        sym = alg.symmetrized()
        same = ChartAlgebroid(sym.n, sym.s, sym.t, sym.rho, sym.C, sym.Gamma, sym.matched)
        assert curvature(sym) == curvature(same), name


def test_nabla_is_computed_once_per_chart():
    for name in VALID_NAMES:
        alg = build(name)
        first = nabla_derivation(alg)
        assert nabla_derivation(alg) is first, name
        fresh = nabla_derivation(build(name))
        assert fresh is not first
        assert first == fresh, name
        sym = alg.symmetrized()
        same = ChartAlgebroid(sym.n, sym.s, sym.t, sym.rho, sym.C, sym.Gamma, sym.matched)
        assert nabla_derivation(sym) == nabla_derivation(same), name


@pytest.mark.parametrize("name", ["aff_pair", "two_action", "tangent_only"])
def test_verify_all_builds_nabla_once(name, monkeypatch, capsys):
    # one d_L per chart: nabla_derivation, ddg_suite and split_dL each read
    # it through their own module's name, and all get the same object
    got = []
    real = algebroid.d_L_derivation

    def recorded(alg):
        got.append(real(alg))
        return got[-1]

    for module in (algebroid, ddg, suites):
        monkeypatch.setattr(module, "d_L_derivation", recorded)
    argv = ["verify", "--suite", "all", "--max-b-degree", "3", "--input", fixture_path(name)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(got) >= 3 and all(d is got[0] for d in got), name


def _random_charts(seed, s=2, t=2):
    """Four sparse random charts; neither valid nor torsion free in general."""
    r = rng(seed)
    n = 2
    m = s + t
    out = []
    for _ in range(4):
        rho = {(i, j): random_poly(r, n) for i in range(m) for j in range(n) if r.random() < 0.5}
        c = {
            (i, j, k): random_poly(r, n)
            for i in range(m)
            for j in range(i + 1, m)
            for k in range(m)
            if r.random() < 0.3
        }
        gamma = {
            (i, j, k): random_poly(r, n)
            for i in range(m)
            for j in range(s)
            for k in range(s)
            if r.random() < 0.4
        }
        out.append(ChartAlgebroid(n, s, t, rho, complete_antisymmetric(c), gamma))
    return out


def _matched_copy(alg):
    return ChartAlgebroid(alg.n, alg.s, alg.t, alg.rho, alg.C, alg.Gamma, matched=True)


def _reference_charts():
    """Every fixture, matched copies of them, and random charts of several ranks."""
    fixtures = [build(name) for name in ALL_NAMES]
    random = _random_charts(17) + _random_charts(18, s=3, t=1) + _random_charts(19, s=1, t=0)
    random += _random_charts(20, s=1, t=2)
    return fixtures + random + [_matched_copy(alg) for alg in fixtures + random]


def _at(table, *key):
    """A structure table entry, zero when absent."""
    return table.get(key, Poly.zero())


def _anchor_reference(alg, i, f):
    out = Poly.zero()
    for j in range(alg.n):
        out = out + _at(alg.rho, i, j) * f.diff(j)
    return out


def _curvature_reference(alg):
    """R_ijk^l term by term, every absent table entry multiplied as a zero."""
    comps = {}
    m, s = alg.rank, alg.s
    G, C = alg.Gamma, alg.C
    for i in range(m):
        for j in range(m):
            for k in range(s):
                for l in range(s):
                    v = _anchor_reference(alg, i, _at(G, j, k, l))
                    v = v - _anchor_reference(alg, j, _at(G, i, k, l))
                    for mm in range(s):
                        v = v + _at(G, i, mm, l) * _at(G, j, k, mm)
                        v = v - _at(G, j, mm, l) * _at(G, i, k, mm)
                    for mm in range(m):
                        v = v - _at(C, i, j, mm) * _at(G, mm, k, l)
                    if v:
                        comps[(i, j, k, l)] = v
    return comps


def _torsion_reference(alg):
    """T_ij^k over every index triple, every absent entry read as a zero."""
    out = {}
    s, G, C = alg.s, alg.Gamma, alg.C
    for i in range(alg.rank):
        for j in range(s):
            for k in range(s):
                v = _at(G, i, j, k) - _at(C, i, j, k)
                if i < s:
                    v = v - _at(G, j, i, k)
                if v:
                    out[(i, j, k)] = v
    return out


def _axiom_residuals_reference(alg):
    """Every validate_structure check's residual strings, computed unguarded."""
    m, s, C = alg.rank, alg.s, alg.C
    morph = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(alg.n):
                d = _anchor_reference(alg, i, _at(alg.rho, j, k))
                d = d - _anchor_reference(alg, j, _at(alg.rho, i, k))
                for mm in range(m):
                    d = d - _at(C, i, j, mm) * _at(alg.rho, mm, k)
                if d:
                    morph.append(f"i={i+1},j={j+1},x{k+1}: {poly_str(d)}")
    jac = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for l in range(m):
                    total = Poly.zero()
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for mm in range(m):
                            total = total + _at(C, a, b, mm) * _at(C, mm, c, l)
                        total = total - _anchor_reference(alg, c, _at(C, a, b, l))
                    if total:
                        jac.append(f"i={i+1},j={j+1},k={k+1} -> l={l+1}: {poly_str(total)}")
    a_sub, b_sub = [], []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                v = _at(C, i, j, k)
                if v and i >= s and j >= s and k < s:
                    a_sub.append(f"[A{i-s+1},A{j-s+1}] has B{k+1} part {poly_str(v)}")
                if v and i < s and j < s and k >= s:
                    b_sub.append(f"[B{i+1},B{j+1}] has A{k-s+1} part {poly_str(v)}")
    tor = _torsion_reference(alg)
    out = {
        "anchor_bracket_morphism": morph,
        "jacobi": jac,
        "a_subalgebroid": a_sub,
        "torsion_free": [
            f"i=B{i+1},j=B{j+1},k=B{k+1}: {poly_str(v)}" for (i, j, k), v in tor.items() if i < s
        ],
        "extends_a_action": [
            f"i=A{i-s+1},j=B{j+1},k=B{k+1}: {poly_str(v)}"
            for (i, j, k), v in tor.items()
            if i >= s
        ],
    }
    if alg.matched:
        out["b_subalgebroid"] = b_sub
    return out


def _d_L_reference(alg):
    """d_L summed over every index, every absent entry read as a zero."""
    m, s = alg.rank, alg.s

    def lam(i):
        return GradedElement.beta(i) if i < s else GradedElement.alpha(i - s)

    vals = {}
    for j in range(alg.n):
        vals["x", j] = GradedElement.zero()
        for i in range(m):
            vals["x", j] = vals["x", j] + lam(i).scale(_at(alg.rho, i, j))
    for k in range(m):
        gen = ("beta", k) if k < s else ("alpha", k - s)
        vals[gen] = GradedElement.zero()
        for i in range(m):
            for j in range(m):
                c = _at(alg.C, i, j, k) * Fraction(-1, 2)
                vals[gen] = vals[gen] + (lam(i) * lam(j)).scale(c)
    return Derivation(1, vals)


def test_skipping_absent_entries_keeps_curvature_and_residuals():
    charts = _reference_charts()
    for alg in charts:
        assert curvature(alg) == _curvature_reference(alg)
        assert alg.torsion() == _torsion_reference(alg)
        assert d_L_derivation(alg) == _d_L_reference(alg)
        assert validate_structure(alg) == _axiom_residuals_reference(alg)
    # the charts reach every check's residual strings
    refs = [_axiom_residuals_reference(alg) for alg in charts]
    names = ("anchor_bracket_morphism", "jacobi", "a_subalgebroid", "b_subalgebroid")
    for name in names + ("torsion_free", "extends_a_action"):
        assert any(ref.get(name) for ref in refs), name


def test_curvature_antisymmetric_check_rejects_a_missing_or_wrong_mirror(monkeypatch):
    def check(name):
        (c,) = [c for c in suites.fedosov_suite(build(name), max_b=2)
                if c.name == "curvature_antisymmetric"]
        return c

    for name in VALID_NAMES:
        assert check(name).passed, name
    one = Poly.one()
    for bad in ({(0, 1, 0, 0): one}, {(0, 1, 0, 0): one, (1, 0, 0, 0): one}):
        monkeypatch.setattr(suites, "curvature", lambda alg: bad)
        assert check("point_aff1") == ("curvature_antisymmetric", False, ["R_ijk^l = -R_jik^l"])
    monkeypatch.setattr(suites, "curvature", lambda alg: {(0, 1, 0, 0): one, (1, 0, 0, 0): -one})
    assert check("point_aff1").passed


def test_curvature_and_validation_multiply_no_zero_polynomials(monkeypatch):
    charts = [build(name) for name in VALID_NAMES] + _random_charts(17)
    zero_operand = []
    mul = Poly.__mul__

    def counted(left, right):
        if not left.terms or (isinstance(right, Poly) and not right.terms):
            zero_operand.append((left, right))
        return mul(left, right)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    for alg in charts:
        curvature(alg)
        validate_structure(alg)
    assert len(zero_operand) == 0


def test_nabla_is_d_L_plus_the_connection_term():
    for name in ALL_NAMES:
        alg = build(name)
        nb, dl = nabla_derivation(alg), d_L_derivation(alg)
        assert not table(dl, "b"), name
        assert (table(nb, "x"), table(nb, "alpha"), table(nb, "beta")) == (
            table(dl, "x"),
            table(dl, "alpha"),
            table(dl, "beta"),
        ), name
        for k in range(alg.s):
            want = GradedElement.zero()
            for (i, j, kk), g in alg.Gamma.items():
                if kk == k:
                    want = want - (alg.lam(i) * GradedElement.bvar(j)).scale(g)
            assert nb.value("b", k) == want, (name, k)
