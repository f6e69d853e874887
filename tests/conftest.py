import pathlib

import pytest

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


def table(d, kind):
    """A derivation's values on one generator kind, as {index: value}."""
    return {i: v for (k, i), v in d.vals.items() if k == kind}
