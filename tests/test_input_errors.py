"""Every schema and expression error of a chart file exits 2 with its own message.

Each case writes one chart, runs ``validate`` through cli.main and
checks the exit code and the single ``error:`` line on stderr.
"""

import json

import pytest

import liepair.cli as cli

ONE_VAR = {"dim_base": 1, "rank_B": 1, "variables": ["x"]}


def _anchor(entry):
    """One variable, rank_B 1, the single anchor entry given."""
    return {**ONE_VAR, "anchor": [[entry]]}


ERRORS = [
    # loader.py: the top level and the integer fields
    ([], "chart file must contain a JSON object"),
    ({"rank_B": 0}, "'rank_B' must be an integer >= 1"),
    ({"rank_B": True}, "'rank_B' must be an integer >= 1"),
    # variable names
    ({"dim_base": 1, "rank_B": 1}, "'variables' must list exactly 1 names"),
    ({**ONE_VAR, "variables": ["1x"]}, "variable name '1x' is not an identifier"),
    ({**ONE_VAR, "variables": ["b1"]}, "variable name 'b1' collides with a fiber coordinate"),
    ({"dim_base": 2, "rank_B": 1, "variables": ["x", "x"]}, "duplicate variable name 'x'"),
    # parameters
    ({"rank_B": 1, "params": []}, "'params' must be an object"),
    ({"rank_B": 1, "params": {"alpha1": "1"}}, "parameter name 'alpha1' is not allowed"),
    ({**ONE_VAR, "params": {"x": "1"}}, "parameter 'x' shadows a variable"),
    ({"rank_B": 1, "params": {"c": 1.5}}, "params.c: expected a rational string or integer"),
    # the anchor and its entries
    ({**ONE_VAR, "anchor": [["1"], ["1"]]}, "'anchor' must have 1 rows (B rows first)"),
    ({**ONE_VAR, "anchor": [["1", "1"]]}, "anchor row 1 must have 1 entries"),
    (_anchor(1.5), "anchor[1][1]: expected an expression string or integer"),
    (_anchor(False), "anchor[1][1]: expected an expression string or integer"),
    (_anchor(None), "anchor[1][1]: expected an expression string or integer"),
    # the index tables
    ({"rank_B": 2, "structure": []}, "'structure' must be an object"),
    ({"rank_B": 2, "structure": {"1,3,1": "1"}}, "structure key '1,3,1': indices must lie in 1..2"),
    ({"rank_B": 2, "structure": {"1,2,1": "1", "2,1,1": "1"}},
     "inconsistent antisymmetric entries at C[2,1,1]"),
    # the flags and the label
    ({"rank_B": 1, "matched_pair": "yes"}, "'matched_pair' must be a boolean"),
    ({"rank_B": 1, "name": 3}, "'name' must be a string"),
    # expressions.py: tokens, exponents and rational literals
    (_anchor("x $ 1"), "anchor[1][1]: unexpected character '$' (at position 2)"),
    (_anchor("x^y"), "anchor[1][1]: exponent must be an integer literal (at position 2)"),
    (_anchor("1/x"), "anchor[1][1]: '/' needs an integer literal denominator (at position 2)"),
    (_anchor("1/0"), "anchor[1][1]: zero denominator (at position 2)"),
]


@pytest.mark.parametrize("data, message", ERRORS)
def test_a_bad_chart_exits_2_with_its_message(data, message, tmp_path, capsys):
    p = tmp_path / "chart.json"
    p.write_text(json.dumps(data))
    assert cli.main(["validate", "--input", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data",
    [
        {"rank_B": 1, "params": {"c": 2}},  # an integer parameter
        _anchor(1),  # an integer entry
        _anchor("x  "),  # trailing blanks
    ],
)
def test_integer_values_and_trailing_blanks_load(data, tmp_path, capsys):
    p = tmp_path / "chart.json"
    p.write_text(json.dumps(data))
    assert cli.main(["validate", "--input", str(p)]) == 0, capsys.readouterr().err
