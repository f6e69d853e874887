"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from liepair import cli  # noqa: E402
from liepair.poly import Poly  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text(encoding="utf-8"))


@pytest.fixture
def at_root(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    return tmp_path


def _patchable_state():
    """Every attribute the tracer may replace, by identity."""
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "liepair" or name.startswith("liepair.")):
            for key, value in vars(mod).items():
                state[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        state[(name, key, attr)] = member
    return state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_charts_validate(at_root, workload, seed):
    charts, _ = workloads.build(workload, seed, at_root / "w")
    assert charts
    for chart in charts:
        assert cli.main(["validate", "--input", chart, "--output", str(at_root / "v.txt")]) == 0


def test_flatness_seed_changes_coefficients_not_pattern(at_root):
    one = json.loads(Path(workloads.build("flatness", 1, at_root / "a")[0][0]).read_text())
    two = json.loads(Path(workloads.build("flatness", 2, at_root / "b")[0][0]).read_text())
    assert one["christoffel"].keys() == two["christoffel"].keys()
    assert one["christoffel"] != two["christoffel"]


def test_recorded_verdicts_cover_every_command(at_root):
    for workload in workloads.WORKLOADS:
        workdir = at_root / workload
        charts, commands = workloads.build(workload, EXPECTED["seed"], workdir)
        labels = {c.label for c in workloads.validation_commands(charts, workdir) + commands}
        assert labels == set(EXPECTED["workloads"][workload])


def _recorded_workdir(workload):
    # Reports name their input file, so digests hold only for the run's own paths.
    return run.WORK / f"{workload}-seed{EXPECTED['seed']}"


def test_wrapped_functions_return_identical_results(at_root):
    _, commands = workloads.build("cocycle", EXPECTED["seed"], _recorded_workdir("cocycle"))
    cheap = [c for c in commands if c.label.startswith(("two_action", "gl3.atiyah"))]
    plain = run.Checker(EXPECTED["workloads"]["cocycle"], check_digests=True)
    run.run_pass(cli, cheap, plain)
    tracer = spans.Tracer()
    traced = run.Checker(EXPECTED["workloads"]["cocycle"], check_digests=True)
    with tracer:
        run.run_pass(cli, cheap, traced)
        p = Poly.variable(0) + Poly.const(Fraction(1, 3))
        wrapped = (p * p, 3 * p, p * Fraction(2))
    assert plain.failed == traced.failed == 0
    assert traced.first_digest == plain.first_digest
    assert wrapped == (p * p, 3 * p, p * Fraction(2))
    assert tracer.totals["cli.main"][0] == len(cheap)
    assert tracer.counts["poly.mul.term_products"] > 0


def test_uninstall_restores_every_attribute(at_root):
    before = _patchable_state()
    tracer = spans.Tracer().install()
    during = _patchable_state()
    changed = [k for k in before if during[k] is not before[k]]
    # suites imports mu_lift by name, so both bindings must be wrapped
    assert ("liepair.suites", "mu_lift") in changed
    assert ("liepair.fedosov", "mu_lift") in changed
    assert ("liepair.poly", "Poly", "__rmul__") in changed
    tracer.uninstall()
    after = _patchable_state()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrong_expected_verdict_counts_as_failure(at_root):
    _, commands = workloads.build("cocycle", 5, at_root / "w")
    cmd = next(c for c in commands if c.label == "two_action.atiyah")
    checker = run.Checker(EXPECTED["workloads"]["cocycle"], check_digests=False)
    run.run_pass(cli, [cmd, dataclasses.replace(cmd, expect_exit=1)], checker)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "expected 1" in checker.problems[0]


def test_wrong_recorded_digest_counts_as_failure(at_root):
    _, commands = workloads.build("cocycle", EXPECTED["seed"], _recorded_workdir("cocycle"))
    cmd = next(c for c in commands if c.label == "two_action.atiyah")
    recorded = json.loads(json.dumps(EXPECTED["workloads"]["cocycle"]))
    recorded[cmd.label]["digest"] = "0" * 64
    checker = run.Checker(recorded, check_digests=True)
    run.run_pass(cli, [cmd], checker)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_benchmark_json_lists_what_the_runs_print(at_root):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    _, commands = workloads.build("cocycle", EXPECTED["seed"], _recorded_workdir("cocycle"))
    cheap = [c for c in commands if c.label.startswith("two_action")]
    checker = run.Checker(EXPECTED["workloads"]["cocycle"], check_digests=True)
    traced = run.traced_run(cli, cheap, checker, 0, at_root)
    assert checker.failed == 0
    assert {m["name"] for m in spec["per_layer"]} == set(traced)
    untraced = run.untraced_run(cli, cheap, checker, 0, at_root)
    assert {m["name"] for m in spec["end_to_end"]} == set(untraced)
    assert all(v["value"] > 0 for v in untraced.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
