"""The package namespace: every exported name resolves and is listed in the
README, and every `from liepair import` in the README and the demos is exported."""

import ast
import pathlib
import re

import liepair

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imported_from_liepair(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "liepair":
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_resolves():
    names = liepair.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(liepair, name, None) is not None, name


def test_readme_lists_every_exported_name():
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_]+)`", library))
    assert set(liepair.__all__) <= listed, sorted(set(liepair.__all__) - listed)


def test_documented_imports_are_exported():
    used = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _imported_from_liepair(demo.read_text())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _imported_from_liepair(block)
    assert used, "no 'from liepair import' found in the README or the demos"
    assert used <= set(liepair.__all__), sorted(used - set(liepair.__all__))
