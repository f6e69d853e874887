import pathlib

from liepair.loader import load_chart

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the shipped chart catalog: every fixtures/<name>.json, the valid ones, and
# the valid ones that are matched pairs
ALL_NAMES = ("point_aff1", "line_action", "tangent_only", "tangent_flat",
             "two_action", "aff_pair", "heisenberg", "broken_jacobi")
VALID_NAMES = ALL_NAMES[:-1]  # broken_jacobi fails the Jacobi identity
MATCHED_NAMES = VALID_NAMES[:-1]  # heisenberg is a Lie pair, not a matched pair


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


def build(name: str, **params):
    """A shipped chart, loaded the way the CLI loads it; params override the file's."""
    return load_chart(fixture_path(name), params).alg


def table(d, kind):
    """A derivation's values on one generator kind, as {index: value}."""
    return {i: v for (k, i), v in d.vals.items() if k == kind}
