"""Each demo in demos/, run as a script, against its recorded stdout.

The demos print through the public API (demo 04 prints the pair cocycle
and its symmetry), so a change to what any of them prints shows here.
tests/golden/demos/<demo>.txt holds the output of demos/<demo>.py, run
from the repository root.  The CI workflow diffs the same outputs.
"""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_every_demo_has_a_golden_file():
    assert DEMOS and [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_the_golden_file(demo, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the demos load fixtures/<name>.json
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
