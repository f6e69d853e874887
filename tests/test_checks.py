"""The failing paths of the check layer: every residual a suite or command can report.

Passing reports are pinned by tests/golden; these tests make the checks
fail, by monkeypatching one ingredient or by feeding data that really
violates an identity, and pin the report lines that result: their labels,
their order, the cap of 8 residuals per check and the 200-character cut.
"""

import json

import pytest

import liepair.cli as cli
import liepair.suites as suites
from liepair.algebroid import ChartAlgebroid, validate_structure
from liepair.atiyah import LiePairCocycle, atiyah_lie_pair
from liepair.errors import InternalInvariantError
from liepair.fedosov import FedosovData, build_fedosov, flatness_defects, r_dual
from liepair.graded import GradedElement
from liepair.homotopy import delta_derivation
from liepair.loader import load_chart
from liepair.poly import Poly
from liepair.sections import DSection

from conftest import build, fixture_path

X1 = GradedElement.xvar(0)


def _without_correction_field(alg, max_b):
    """FedosovData whose D is nabla - delta: X left out, so D^2 = R on a curved chart."""
    fd = build_fedosov(alg, max_b)
    return FedosovData(alg, max_b, fd.nabla, DSection(), fd.nabla - delta_derivation(alg.s))


def _by_name(checks):
    return {c.name: c for c in checks}


def test_d_without_x_squares_to_the_curvature():
    for name in ("tangent_only", "aff_pair", "two_action", "point_aff1", "line_action"):
        alg = build(name)
        want = {f"b{l + 1}": v for l, v in r_dual(alg).comps.items()}
        assert want and flatness_defects(_without_correction_field(alg, 4)) == want, name


def test_fedosov_suite_on_a_differential_without_x(monkeypatch):
    monkeypatch.setattr(suites, "build_fedosov", _without_correction_field)
    checks = suites.fedosov_suite(build("tangent_only"), max_b=3)
    assert [(c.name, c.passed) for c in checks] == [
        ("curvature_antisymmetric", True),
        ("nabla_squared_equals_curvature_lift", True),
        ("correction_field_normalized", True),
        ("differential_squares_to_zero", False),
        ("bidegree_split_exact", True),
        ("split_components_anticommute", False),
        ("horizontal_lift_identities", False),
    ]
    by = _by_name(checks)
    assert by["differential_squares_to_zero"].residuals == [
        "D^2 on b1: -x2^2*beta1*beta2*b2",
        "D^2 on b2: -beta1*beta2*b2",
    ]
    assert by["split_components_anticommute"].residuals == [
        "[D_B, D_B] on b1: -2*x2^2*beta1*beta2*b2",
        "[D_B, D_B] on b2: -2*beta1*beta2*b2",
    ]
    lift = by["horizontal_lift_identities"].residuals
    # 8 of the 10 failing samples are kept; each value is cut to 200 characters
    assert [r.split(":")[0] for r in lift] == [f"D_B mu(a) windowed, sample {i}" for i in range(8)]
    assert lift[0] == (
        "D_B mu(a) windowed, sample 0: (-2/3*x2^3 + x2^2 - 2/3*x1 + 2/3*x2 + 2/3)*beta1*b2^2"
        " + (2/3*x2^3 - x2^2 + 2/3*x1 - 2/3*x2 - 2/3)*beta2*b1*b2"
    )
    cut = [r.split(": ", 1)[1] for r in lift if r.endswith("...")]
    assert len(cut) == 4 and all(len(value) == 200 for value in cut)


def test_fedosov_suite_keeps_eight_flatness_residuals(monkeypatch):
    defects = {f"b{i}": X1.scale(i) for i in range(1, 11)}
    monkeypatch.setattr(suites, "flatness_defects", lambda fd: defects)
    by = _by_name(suites.fedosov_suite(build("aff_pair"), max_b=3))
    assert not by["differential_squares_to_zero"].passed
    assert by["differential_squares_to_zero"].residuals == [
        "D^2 on b1: x1", "D^2 on b10: 10*x1", "D^2 on b2: 2*x1", "D^2 on b3: 3*x1",
        "D^2 on b4: 4*x1", "D^2 on b5: 5*x1", "D^2 on b6: 6*x1", "D^2 on b7: 7*x1",
    ]
    assert by["horizontal_lift_identities"].passed


def test_fedosov_suite_keeps_eight_anticommutator_residuals(monkeypatch):
    monkeypatch.setattr(
        suites, "commutator_defects", lambda d1, d2, window: {f"b{i}": X1 for i in (1, 2, 3)}
    )
    by = _by_name(suites.fedosov_suite(build("aff_pair"), max_b=3))
    assert not by["split_components_anticommute"].passed
    assert by["split_components_anticommute"].residuals == [
        f"{label} on b{i}: x1"
        for label in ("[D_A, D_A]", "[D_A, D_B]", "[D_B, D_B]")
        for i in (1, 2, 3)
    ][:8]


def test_a_failed_split_ends_the_fedosov_suite(monkeypatch):
    def failing(fd):
        raise InternalInvariantError("synthetic split failure")

    monkeypatch.setattr(suites, "split_fedosov", failing)
    checks = suites.fedosov_suite(build("aff_pair"), max_b=3)
    assert [c.name for c in checks][-2:] == ["differential_squares_to_zero", "bidegree_split_exact"]
    assert checks[-1].passed is False
    assert checks[-1].residuals == ["synthetic split failure"]


def test_a_bracket_differential_that_does_not_split_ends_the_ddg_suite():
    # a bracket of two A generators with a B value is not a Lie pair
    alg = ChartAlgebroid(0, 1, 2, C={(1, 2, 0): Poly.one(), (2, 1, 0): -Poly.one()})
    checks = suites.ddg_suite(alg)
    assert [(c.name, c.passed, c.residuals) for c in checks] == [
        ("bracket_differential_squares_zero", True, []),
        (
            "bracket_differential_splits",
            False,
            ["not a Lie pair presentation: [A, A] has a B component"],
        ),
    ]


def test_module_curvature_mismatch_names_each_component(monkeypatch):
    real = suites.module_curvature_components

    def altered(alg, images):
        got = dict(real(alg, images))
        assert sorted(got) == [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)]
        del got[(0, 0, 0, 0)]  # missing from the frame
        got[(0, 0, 1, 0)] = got[(0, 0, 1, 0)].scale(3)  # a different value
        got[(0, 1, 1, 1)] = GradedElement.alpha(0)  # missing from the cocycle
        return got

    monkeypatch.setattr(suites, "module_curvature_components", altered)
    checks = suites.ddg_suite(build("aff_pair"))
    assert [c.name for c in checks if not c.passed] == ["module_curvature_matches_cocycle"]
    assert _by_name(checks)["module_curvature_matches_cocycle"].residuals == [
        "component (0, 0, 0, 0): frame gives 0, cocycle gives -1",
        "component (0, 0, 1, 0): frame gives -3, cocycle gives -1",
        "component (0, 1, 1, 1): frame gives alpha1, cocycle gives 0",
    ]


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suites(build("aff_pair"), "nope")


def test_the_homotopy_suite_alone_has_no_axiom_checks(monkeypatch):
    def no_axioms(alg, names=None):
        raise AssertionError("the homotopy suite does not read the structure axioms")

    monkeypatch.setattr(suites, "validate_structure", no_axioms)
    checks = suites.run_suites(build("broken_jacobi"), "homotopy")
    assert [c.name for c in checks] == [
        "delta_squared_zero",
        "kappa_squared_zero",
        "homotopy_identity",
        "delta_agrees_with_derivation",
        "restriction_embedding_identities",
    ]
    assert all(c.passed for c in checks)


def test_an_asymmetric_pair_cocycle_is_not_symmetric():
    alg = build("aff_pair")
    comps = dict(atiyah_lie_pair(alg).comps)
    assert LiePairCocycle(alg, comps).is_symmetric()
    comps[(0, 1, 0, 0)] = Poly.const(-2)
    assert not LiePairCocycle(alg, comps).is_symmetric()


def test_fedosov_command_reports_the_residuals_of_a_differential_without_x(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_fedosov", _without_correction_field)
    argv = ["fedosov", "--input", fixture_path("tangent_only"), "--format", "json"]
    assert cli.main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["correction_field"] == {}
    (check,) = [c for c in payload["checks"] if not c["passed"]]
    assert check == {
        "name": "differential_squares_to_zero",
        "passed": False,
        "residuals": ["D^2 on b1: -x2^2*beta1*beta2*b2", "D^2 on b2: -beta1*beta2*b2"],
    }


def test_fedosov_command_keeps_eight_residuals(monkeypatch, capsys):
    defects = {f"b{i}": X1 for i in range(1, 11)}
    monkeypatch.setattr(cli, "flatness_defects", lambda fd: defects)
    assert cli.main(["fedosov", "--input", fixture_path("line_action"), "--format", "json"]) == 1
    (check,) = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert check["residuals"] == [f"D^2 on {g}: x" for g in sorted(defects)][:8]


def test_atiyah_command_reports_a_pair_cocycle_the_dg_cocycle_does_not_restrict_to(
    monkeypatch, capsys
):
    def asymmetric(alg):
        return LiePairCocycle(alg, {(0, 1, 0, 0): Poly.const(2)})

    monkeypatch.setattr(cli, "atiyah_lie_pair", asymmetric)
    argv = ["atiyah", "--input", fixture_path("aff_pair"), "--max-b-degree", "3", "--format", "json"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"name": "pair_cocycle_symmetric", "passed": False, "residuals": ["At[a; j,k] = At[a; k,j]"]},
        {
            "name": "cocycle_comparison",
            "passed": False,
            "residuals": ["(1,1)->1: -alpha1", "(1,2)->1: -alpha1", "(2,1)->1: -3*alpha1"],
        },
    ]


def test_atiyah_command_keeps_eight_comparison_residuals(monkeypatch, tmp_path, capsys):
    # rank_B 3 and no structure: the dg cocycle vanishes, so every pair component is a residual
    chart = tmp_path / "flat.json"
    chart.write_text(json.dumps({"rank_B": 3, "rank_A": 1, "matched_pair": True}))
    comps = {(0, j, k, l): Poly.one() for j in range(3) for k in range(3) for l in range(3)}
    monkeypatch.setattr(cli, "atiyah_lie_pair", lambda alg: LiePairCocycle(alg, comps))
    assert cli.main(["atiyah", "--input", str(chart), "--format", "text"]) == 1
    assert capsys.readouterr().out.splitlines()[-11:] == [
        "PASS pair_cocycle_symmetric",
        "FAIL cocycle_comparison",
        "     (1,1)->1: -alpha1",
        "     (1,1)->2: -alpha1",
        "     (1,1)->3: -alpha1",
        "     (1,2)->1: -alpha1",
        "     (1,2)->2: -alpha1",
        "     (1,2)->3: -alpha1",
        "     (1,3)->1: -alpha1",
        "     (1,3)->2: -alpha1",
        "result: failed",
    ]


# rank_B 5 over one variable with anchor rows x^1 ... x^5: the anchor fails
# to be a morphism on every pair i < j, by (j - i) x^(i+j-1), 10 residuals
OVER_CAP = {"dim_base": 1, "rank_B": 5, "variables": ["x"],
            "anchor": [[f"x^{i}"] for i in range(1, 6)]}
AXIOMS = ["anchor_bracket_morphism", "jacobi", "a_subalgebroid", "torsion_free",
          "extends_a_action"]


@pytest.mark.parametrize("argv, prefix", [
    (["validate"], ""),
    (["fedosov"], ""),
    (["atiyah"], ""),
    (["verify", "--suite", "fedosov"], "axiom_"),
], ids=["validate", "fedosov", "atiyah", "verify"])
def test_every_command_keeps_eight_axiom_residuals(argv, prefix, tmp_path, capsys):
    chart = tmp_path / "over_cap.json"
    chart.write_text(json.dumps(OVER_CAP))
    assert len(validate_structure(load_chart(str(chart)).alg)["anchor_bracket_morphism"]) == 10
    assert cli.main(argv + ["--input", str(chart), "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [prefix + name for name in AXIOMS]
    assert checks[0]["residuals"] == [
        "i=1,j=2,x: x^2", "i=1,j=3,x: 2*x^3", "i=1,j=4,x: 3*x^4", "i=1,j=5,x: 4*x^5",
        "i=2,j=3,x: x^4", "i=2,j=4,x: 2*x^5", "i=2,j=5,x: 3*x^6", "i=3,j=4,x: x^6",
    ]
    assert [c["passed"] for c in checks] == [False, True, True, True, True]
