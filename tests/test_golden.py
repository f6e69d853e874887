"""fedosov, atiyah and verify reports on every valid fixture, and the failing
validate report of broken_jacobi, byte for byte against tests/golden.

Each command is pinned at its first window (fedosov at --max-b-degree 5,
atiyah and verify at 3) in <name>.<command>.json/.txt, and atiyah and
verify again at a second window, 4, in <name>.<command>.b4.json/.txt.
The golden files hold the reports with their timing removed: the JSON
report without elapsed_seconds, re-dumped with indent 2 and sorted keys,
and the text report without its elapsed_seconds line.  The CI workflow
diffs the same commands run through ``python -m liepair.cli``.
"""

import json
import pathlib

import pytest

import liepair.cli as cli

from conftest import VALID_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = (
    [(name, "fedosov", 5) for name in VALID_NAMES]
    + [(name, "atiyah", 3) for name in VALID_NAMES]
    + [(name, "verify", 3) for name in VALID_NAMES]  # every suite
    + [(name, "atiyah", 4) for name in VALID_NAMES]
    + [(name, "verify", 4) for name in VALID_NAMES]
)
FIRST_WINDOW = {"fedosov": 5, "atiyah": 3, "verify": 3}


def _report(argv, fmt, tmp_path):
    """Exit status and report of cli.main(argv) in fmt, with its timing removed."""
    out = tmp_path / "report"
    status = cli.main(argv + ["--format", fmt, "--output", str(out)])
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        del payload["elapsed_seconds"]
        return status, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = text.splitlines(keepends=True)
    return status, "".join(l for l in lines if not l.startswith("  elapsed_seconds: "))


def _golden(stem, fmt):
    return (GOLDEN / f"{stem}.{'json' if fmt == 'json' else 'txt'}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name, command, max_b", CASES)
def test_report_matches_the_golden_file(name, command, max_b, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the report names its input as given: fixtures/<name>.json
    argv = [command, "--input", f"fixtures/{name}.json", "--max-b-degree", str(max_b)]
    stem = f"{name}.{command}" + ("" if max_b == FIRST_WINDOW[command] else f".b{max_b}")
    assert _report(argv, fmt, tmp_path) == (0, _golden(stem, fmt))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_failing_axiom_report_matches_the_golden_file(fmt, tmp_path, monkeypatch):
    # one failing structure axiom, with its residual, pinned byte for byte
    monkeypatch.chdir(ROOT)
    argv = ["validate", "--input", "fixtures/broken_jacobi.json"]
    assert _report(argv, fmt, tmp_path) == (1, _golden("broken_jacobi.validate", fmt))
