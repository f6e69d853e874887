import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import liepair.cli as cli
import liepair.suites as suites
from liepair.algebroid import ChartAlgebroid, validate_structure
from liepair.errors import InternalInvariantError
from liepair.expressions import MAX_NESTING
from liepair.graded import GradedElement
from liepair.loader import MAX_BASE_EXPONENT, MAX_DIM_BASE, MAX_RANK, load_chart
from liepair.poly import MAX_EXP, Poly
from liepair.report import CheckResult

from conftest import ALL_NAMES, FIXTURE_DIR, MATCHED_NAMES, VALID_NAMES, build, fixture_path


def run(argv):
    return cli.main(argv)


def test_fixture_catalog():
    assert sorted(p.stem for p in FIXTURE_DIR.glob("*.json")) == sorted(ALL_NAMES)
    valid = tuple(n for n in ALL_NAMES if not any(validate_structure(build(n)).values()))
    assert valid == VALID_NAMES
    files = {n: json.loads((FIXTURE_DIR / f"{n}.json").read_text()) for n in VALID_NAMES}
    assert tuple(n for n in VALID_NAMES if files[n]["matched_pair"] is True) == MATCHED_NAMES


def _same_chart(got, want):
    assert (got.n, got.s, got.t, got.matched) == (want.n, want.s, want.t, want.matched)
    assert (got.rho, got.C, got.Gamma) == (want.rho, want.C, want.Gamma)


def test_loader_against_hand_written_tables():
    # line_action: a base variable, anchor rows B first, 1-based keys, and
    # one structure entry completed antisymmetrically
    chart = load_chart(fixture_path("line_action"))
    x, one = Poly.variable(0), Poly.one()
    want = ChartAlgebroid(
        1, 1, 1,
        rho={(0, 0): one, (1, 0): x},
        C={(1, 0, 0): -one, (0, 1, 0): one},
        Gamma={(1, 0, 0): -one, (0, 0, 0): x},
        matched=True,
    )
    _same_chart(chart.alg, want)
    assert chart.variables == ["x"]

    # two_action at a caller's gamma, which enters structure and christoffel
    g = Fraction(5, 3)
    chart = load_chart(fixture_path("two_action"), {"gamma": g})
    gp = Poly.const(g)
    want = ChartAlgebroid(
        0, 1, 2,
        rho={},
        C={(1, 0, 0): one, (0, 1, 0): -one, (2, 0, 0): gp, (0, 2, 0): -gp},
        Gamma={(1, 0, 0): one, (2, 0, 0): gp, (0, 0, 0): gp},
        matched=True,
    )
    _same_chart(chart.alg, want)
    assert chart.params["gamma"] == g


def test_validate_ok_and_broken(capsys):
    assert run(["validate", "--input", fixture_path("point_aff1")]) == 0
    out = capsys.readouterr().out
    assert "PASS jacobi" in out and "result: ok" in out

    assert run(["validate", "--input", fixture_path("broken_jacobi")]) == 1
    out = capsys.readouterr().out
    assert "FAIL jacobi" in out and "result: failed" in out


def test_missing_file_is_exit_2(capsys):
    assert run(["validate", "--input", fixture_path("no_such_fixture")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_schema_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"rank_B": 1, "unknown_key": 3}')
    assert run(["validate", "--input", str(p)]) == 2
    assert "unknown keys" in capsys.readouterr().err

    p2 = tmp_path / "bad2.json"
    p2.write_text("not json at all")
    assert run(["validate", "--input", str(p2)]) == 2


def test_bad_flag_values_are_usage_errors():
    with pytest.raises(SystemExit) as e:
        run(["fedosov", "--input", fixture_path("point_aff1"), "--max-b-degree", "1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        run(["fedosov", "--input", fixture_path("point_aff1"), "--gamma-param", "x"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        run(["verify", "--input", fixture_path("point_aff1"), "--suite", "nope"])
    assert e.value.code == 2
    start = time.perf_counter()
    with pytest.raises(SystemExit) as e:
        run(["fedosov", "--input", fixture_path("point_aff1"), "--max-b-degree", "9"])
    assert e.value.code == 2
    assert time.perf_counter() - start < 1.0


def test_main_builds_its_parser_once_and_not_at_import(capsys):
    code = "import liepair.cli as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(FIXTURE_DIR.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "0", out.stderr
    assert run(["validate", "--input", fixture_path("point_aff1")]) == 0
    parser = cli._parser()
    assert run(["validate", "--input", fixture_path("broken_jacobi")]) == 1
    assert cli._parser() is parser
    assert cli.build_parser() is not cli.build_parser()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(FIXTURE_DIR.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import liepair.cli; print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    added = out.stdout.split()
    assert "liepair.cli" in added, out.stderr
    assert "dataclasses" not in added and "inspect" not in added, added


def test_internal_invariant_is_exit_3(monkeypatch, capsys):
    def boom(path, param_overrides=None):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "load_chart", boom)
    assert run(["validate", "--input", fixture_path("point_aff1")]) == 3
    assert "internal invariant" in capsys.readouterr().err


def test_gamma_param_overrides_file(capsys):
    assert (
        run(
            [
                "fedosov",
                "--input",
                fixture_path("point_aff1"),
                "--gamma-param",
                "3/2",
                "--max-b-degree",
                "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "gamma=3/2" in out
    assert "-3/4*alpha1*b1^2" in out


def test_json_output_to_file_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = [
        "verify",
        "--input",
        fixture_path("two_action"),
        "--suite",
        "atiyah",
        "--format",
        "json",
    ]
    assert run(argv + ["--output", str(out1)]) == 0
    assert run(argv + ["--output", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2
    assert d1["passed"] is True
    assert all(c["passed"] for c in d1["checks"])


def test_verify_suites_exit_codes():
    assert run(["verify", "--input", fixture_path("aff_pair"), "--suite", "ddg"]) == 0
    assert (
        run(["verify", "--input", fixture_path("broken_jacobi"), "--suite", "fedosov"])
        == 1
    )


def test_atiyah_reports_both_cocycles(capsys):
    assert (
        run(
            [
                "atiyah",
                "--input",
                fixture_path("aff_pair"),
                "--gamma-param",
                "2",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["pair_cocycle"]["alpha1; (1,1)->1"] == "-2"
    assert payload["dg_cocycle_restricted"]["(1,1)->1"] == "-2*alpha1"
    names = [c["name"] for c in payload["checks"]]
    assert "cocycle_comparison" in names and payload["passed"]


def test_fedosov_residuals_use_the_chart_variables(monkeypatch, capsys):
    # line_action names its variable x; a residual must not fall back to x1
    monkeypatch.setattr(cli, "flatness_defects", lambda fd: {"b1": GradedElement.xvar(0)})
    assert run(["fedosov", "--input", fixture_path("line_action"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    (check,) = [c for c in payload["checks"] if c["name"] == "differential_squares_to_zero"]
    assert check["residuals"] == ["D^2 on b1: x"]


def test_atiyah_forms_the_restricted_cocycle_once(monkeypatch, capsys):
    import liepair.atiyah as atiyah

    calls = []
    real = atiyah.atiyah_dg

    def counted(*args, **kwargs):
        calls.append(kwargs.get("upto"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "atiyah_dg", counted)
    monkeypatch.setattr(atiyah, "atiyah_dg", counted)
    assert run(["atiyah", "--input", fixture_path("aff_pair"), "--max-b-degree", "3"]) == 0
    assert calls == [0]
    assert "PASS cocycle_comparison" in capsys.readouterr().out


def test_atiyah_builds_the_pair_cocycle_once(monkeypatch, capsys):
    import liepair.atiyah as atiyah

    calls = []
    real = atiyah.atiyah_lie_pair

    def counted(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(cli, "atiyah_lie_pair", counted)
    monkeypatch.setattr(atiyah, "atiyah_lie_pair", counted)
    assert run(["atiyah", "--input", fixture_path("aff_pair"), "--max-b-degree", "3"]) == 0
    assert len(calls) == 1
    assert "PASS cocycle_comparison" in capsys.readouterr().out


def test_atiyah_unmatched_reports_dg_only(capsys):
    assert run(["atiyah", "--input", fixture_path("heisenberg")]) == 0
    out = capsys.readouterr().out
    assert "dg_cocycle_restricted" in out
    assert "pair_cocycle" not in out


def test_symmetrize_connection_round_trip(tmp_path):
    # a torsionful connection is accepted once the flag symmetrizes it
    data = json.loads(Path(fixture_path("aff_pair")).read_text())
    data["christoffel"]["1,2,1"] = "3"
    data["christoffel"]["2,1,1"] = "1"
    p = tmp_path / "torsionful.json"
    p.write_text(json.dumps(data))
    assert run(["validate", "--input", str(p)]) == 1

    data["symmetrize_connection"] = True
    p.write_text(json.dumps(data))
    assert run(["validate", "--input", str(p)]) == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["fedosov", "atiyah"])
def test_failed_axioms_stop_before_the_construction(command, fmt, tmp_path):
    def report(cmd):
        out = tmp_path / f"{cmd}.{fmt}"
        argv = [cmd, "--input", fixture_path("broken_jacobi"), "--format", fmt]
        assert run(argv + ["--output", str(out)]) == 1
        return out.read_text()

    got, want = report(command), report("validate")
    if fmt == "json":
        got, want = json.loads(got), json.loads(want)
        assert got["command"] == command and got["passed"] is False
        assert got["checks"] == want["checks"]
        assert got["max_b_degree"] == 4
        for key in ("window", "correction_field", "dg_cocycle_restricted"):
            assert key not in got
    else:
        def check_lines(text):
            return [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL", "   "))]

        assert got.startswith(command + " ")
        assert check_lines(got) == check_lines(want)
        assert "FAIL jacobi" in got and got.endswith("result: failed\n")
        for key in ("window", "correction_field", "dg_cocycle_restricted"):
            assert key not in got


LONG = "1" * 4301  # one digit over the interpreter's default int conversion limit


@pytest.mark.parametrize(
    "entry, params, message",
    [
        (json.dumps(LONG), {}, "integer literal of 4301 digits is too long"),
        (json.dumps("1/" + LONG), {}, "integer literal of 4301 digits is too long"),
        (LONG, {}, "not valid JSON"),
        (json.dumps("a"), {"a": json.dumps(LONG)}, "rational literal of 4301 characters"),
        (json.dumps("a"), {"a": LONG}, "not valid JSON"),
        (json.dumps("x^101"), {}, "exponent 101 exceeds the limit of 100"),
        (json.dumps("(x+1)^81*((x+1)^60*(y+1))"), {}, "product of 82 and 122 terms"),
        (json.dumps("(x+y+1)^82"), {}, "product of 3403 and 3 terms"),
    ],
)
def test_oversized_entries_exit_2_fast(entry, params, message, tmp_path, capsys):
    # entry and params values are raw JSON text, so an over-long integer
    # can reach the JSON reader itself
    data = {
        "dim_base": 2, "rank_B": 2, "variables": ["x", "y"],
        "anchor": [["1", "0"], ["0", "1"]], "christoffel": {"1,1,1": "@ENTRY@"},
        "params": {key: f"@{key}@" for key in params},
    }
    text = json.dumps(data).replace('"@ENTRY@"', entry)
    for key, raw in params.items():
        text = text.replace(f'"@{key}@"', raw)
    p = tmp_path / "oversized.json"
    p.write_text(text)
    start = time.perf_counter()
    rc = run(["validate", "--input", str(p)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error:") and message in err, err
    assert elapsed < 1.0


@pytest.mark.parametrize("entry", ["(" * 300 + "x" + ")" * 300, "-" * 2000 + "x"])
def test_deeply_nested_entry_exits_2_fast(entry, tmp_path, capsys):
    p = tmp_path / "nested.json"
    p.write_text(json.dumps({"dim_base": 1, "rank_B": 1, "variables": ["x"], "anchor": [[entry]]}))
    start = time.perf_counter()
    rc = run(["validate", "--input", str(p)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"nesting deeper than the limit of {MAX_NESTING}" in err, err
    assert elapsed < 1.0


@pytest.mark.parametrize("entry", ["(" * MAX_NESTING + "1" + ")" * MAX_NESTING, "-" * MAX_NESTING + "1"])
def test_nesting_at_the_limit_loads(entry, tmp_path, capsys):
    p = tmp_path / "nested.json"
    p.write_text(json.dumps({"dim_base": 1, "rank_B": 1, "variables": ["x"], "anchor": [[entry]]}))
    assert run(["validate", "--input", str(p)]) == 0, capsys.readouterr().err
    assert load_chart(str(p)).alg.rho == {(0, 0): Poly.one()}


def test_undecodable_chart_file_is_exit_2(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "caf\xe9", "rank_B": 1}')
    assert run(["validate", "--input", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"rank_B": MAX_RANK + 1}, f"over the limit of {MAX_RANK}"),
        ({"rank_B": MAX_RANK - 1, "rank_A": 2}, f"over the limit of {MAX_RANK}"),
        ({"rank_B": 2, "christoffel": {"1,1,\u00b2": "1"}}, "must look like"),
        ({"rank_B": 2, "structure": {"1,2," + "1" * 5000: "1"}}, "must look like"),
        ({"rank_B": 2, "structure": {"--1,2,1": "1"}}, "must look like"),
    ],
)
def test_bad_rank_and_index_keys_exit_2_fast(data, message, tmp_path, capsys):
    p = tmp_path / "chart.json"
    p.write_text(json.dumps({"dim_base": 0, **data}))
    start = time.perf_counter()
    rc = run(["validate", "--input", str(p)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err
    assert elapsed < 1.0


def _power(name, e):
    """name^e written with exponent literals of at most 100."""
    return "*".join([f"{name}^100"] * (e // 100) + [f"{name}^{e % 100}"] * (e % 100 > 0))


def _chart_over(n, entry):
    """rank_B 1 over n variables; the anchor's last entry is entry."""
    names = [f"x{i + 1}" for i in range(n)]
    return {"dim_base": n, "rank_B": 1, "variables": names, "anchor": [["0"] * (n - 1) + [entry]]}


@pytest.mark.parametrize(
    "data, message",
    [
        (_chart_over(MAX_DIM_BASE + 1, "1"), f"dim_base is 33, over the limit of {MAX_DIM_BASE}"),
        (_chart_over(1, _power("x1", MAX_BASE_EXPONENT + 1)),
         f"exponent 256 of x1 is over the limit of {MAX_BASE_EXPONENT}"),
        (_chart_over(1, "((x1^100)^100)^100"), f"passes base exponent {MAX_EXP}"),
        (_chart_over(2, f"(x1 + x2)^2*{_power('x2', MAX_BASE_EXPONENT - 1)}"),
         "exponent 256 of x2"),
    ],
)
def test_past_the_packed_base_key_exits_2_fast(data, message, tmp_path, capsys):
    p = tmp_path / "chart.json"
    p.write_text(json.dumps(data))
    start = time.perf_counter()
    rc = run(["validate", "--input", str(p)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["validate", "fedosov"])
def test_at_the_packed_base_key_bounds_runs(command, tmp_path, capsys):
    # the last of MAX_DIM_BASE variables, at the exponent cap, in the top field
    p = tmp_path / "chart.json"
    p.write_text(json.dumps(_chart_over(MAX_DIM_BASE, _power("x32", MAX_BASE_EXPONENT))))
    argv = [command, "--input", str(p)] + (["--max-b-degree", "8"] if command == "fedosov" else [])
    assert run(argv) == 0, capsys.readouterr()
    assert load_chart(str(p)).alg.rho == {(0, 31): Poly.monomial(((31, MAX_BASE_EXPONENT),))}


def test_deeply_nested_chart_file_is_exit_2_fast(tmp_path, capsys):
    p = tmp_path / "nested.json"
    p.write_text("[" * 200000 + "]" * 200000)
    start = time.perf_counter()
    rc = run(["validate", "--input", str(p)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert elapsed < 1.0


def test_empty_chart_of_the_largest_rank_validates_fast(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"rank_B": MAX_RANK, "dim_base": 0}))
    start = time.perf_counter()
    rc = run(["validate", "--input", str(p)])
    elapsed = time.perf_counter() - start
    assert rc == 0, capsys.readouterr()
    assert elapsed < 1.0


def test_verify_all_checks_the_axioms_once(monkeypatch, capsys):
    calls = []
    real = suites.validate_structure

    def counted(alg, names=None):
        calls.append(alg)
        return real(alg, names)

    monkeypatch.setattr(suites, "validate_structure", counted)
    argv = ["verify", "--suite", "all", "--max-b-degree", "3", "--input", fixture_path("aff_pair")]
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_verify_all_on_broken_axioms_reports_homotopy_then_axioms(capsys):
    argv = ["verify", "--suite", "all", "--format", "json", "--input", fixture_path("broken_jacobi")]
    assert run(argv) == 1
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    alg = build("broken_jacobi")
    homotopy = [c.name for c in suites.homotopy_suite(alg)]
    assert names == homotopy + ["axiom_" + axiom for axiom in validate_structure(alg)]


def test_failing_homotopy_check_does_not_stop_the_suites(monkeypatch):
    def failing(alg, seed=1):
        return [CheckResult("delta_squared_zero", False, ["synthetic"])]

    monkeypatch.setattr(suites, "homotopy_suite", failing)
    names = [c.name for c in suites.run_suites(build("aff_pair"), "all", max_b=3)]
    assert names[:2] == ["delta_squared_zero", "axiom_anchor_bracket_morphism"]
    for name in ("differential_squares_to_zero", "transgression_exact", "a_connection_flat"):
        assert name in names


@pytest.mark.parametrize("rank_b", [cli.MAX_VERIFY_RANK_B + 1, MAX_RANK])
def test_verify_on_a_rank_b_over_the_limit_exits_2_fast(rank_b, tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"rank_B": rank_b, "dim_base": 0}))
    start = time.perf_counter()
    rc = run(["verify", "--suite", "all", "--input", str(p)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert rc == 2 and out == "", err
    assert err.startswith("error:") and err.count("\n") == 1 and "rank_B" in err, err
    assert elapsed < 1.0


def test_verify_accepts_the_largest_rank_b(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_suites", lambda alg, suite, max_b, names: [])
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"rank_B": cli.MAX_VERIFY_RANK_B, "dim_base": 0}))
    assert run(["verify", "--suite", "all", "--input", str(p)]) == 0, capsys.readouterr()
