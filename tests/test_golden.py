"""fedosov, atiyah and verify reports on every valid fixture, byte for byte against tests/golden.

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
)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name, command, max_b", CASES)
def test_report_matches_the_golden_file(name, command, max_b, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the report names its input as given: fixtures/<name>.json
    out = tmp_path / "report"
    argv = [command, "--input", f"fixtures/{name}.json", "--max-b-degree", str(max_b),
            "--format", fmt, "--output", str(out)]
    assert cli.main(argv) == 0
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        del payload["elapsed_seconds"]
        got, suffix = json.dumps(payload, indent=2, sort_keys=True) + "\n", "json"
    else:
        lines = text.splitlines(keepends=True)
        got, suffix = "".join(l for l in lines if not l.startswith("  elapsed_seconds: ")), "txt"
    assert got == (GOLDEN / f"{name}.{command}.{suffix}").read_text(encoding="utf-8")
