"""Reading chart presentations from JSON files.

Schema (all structure values are expression strings or integers)::

    {
      "name": "optional label",
      "description": "optional prose",
      "dim_base": 1,
      "rank_B": 1,
      "rank_A": 1,
      "variables": ["x"],
      "anchor": [["1"], ["x"]],            # s+t rows (B first), n columns
      "structure": {"2,1,1": "-1"},        # [l_i, l_j] = C_ij^k l_k, 1-based
      "christoffel": {"2,1,1": "-1"},      # nabla_{l_i} b_j = G_ij^k b_k
      "matched_pair": true,
      "symmetrize_connection": false,
      "params": {"gamma": "1/2"}
    }

The structure table is completed antisymmetrically: giving C[i,j,k]
implies C[j,i,k] = -C[i,j,k]; giving both with inconsistent values, or a
nonzero diagonal i = j, is an error.  The parameter "gamma" is always
bound (default 1) so shipped charts can use it; caller overrides win
over file values.  rank_B + rank_A is at most MAX_RANK.  All loading
problems raise LoadError.

Two bounds keep every element the commands form inside the packed base
key of poly.py, whose fields hold exponents up to poly.MAX_EXP =
32,767.  dim_base is at most MAX_DIM_BASE = 32, one field per variable.
A base exponent in a chart entry is at most MAX_BASE_EXPONENT = 255:
every term a command forms is a product of chart entries (x-derivatives
only lower exponents) and of seeded suite data with exponents at most 4.
Counted in chart-entry factors, nabla carries 1, the curvature 2 and
the correction field X_k carries k (X_{k+1} is kappa of [nabla, X_k]
and of the [X_a, X_b] with a + b = k + 1), so D = nabla - delta + X
carries at most max_b <= 8, and the flatness, split and cocycle checks,
which apply D at most twice, at most 16.  The horizontal lift is bounded
by fiber degree instead.  D_B + delta adds at most one factor more than
it raises fiber degree (X_k raises it by k - 1 with k factors, nabla by
0 with 1), and kappa raises it by one, so each step of the recursion
adds no more factors than fiber degree: a term of fiber degree r of an
element lift or of a frame lift M_k carries at most r factors beyond
its input's.  The frame route only multiplies such terms, M_k^n,
(M^{-1})_l^i = sum_{p <= max_b} (-N)^p and element lifts, whose factors
add as their fiber degrees do, and it keeps fiber degree <= max_b.  So
a lift carries at most max_b factors beyond its input's, which is
seeded data (none) or d_A of it (one), and the lift checks apply D_A
or D_B once more to the lift of seeded data: 16 factors in all.  The
structure checks multiply at most three entries.
So no exponent passes 16 * 255 + 4 = 4,084 (verify --suite fedosov at
max_b 8 on a tangent chart with every entry at the cap forms 2,042),
and the CLI reaches the guard of a product only while parsing an entry,
which is exit 2.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction

from .algebroid import ChartAlgebroid, complete_antisymmetric
from .errors import LoadError
from .expressions import parse_poly, parse_rational
from .poly import Poly, exponents

MAX_RANK = 32
MAX_DIM_BASE = 32
MAX_BASE_EXPONENT = 255

_RESERVED = re.compile(r"^(alpha|beta|b)[0-9]+$")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

_KNOWN_KEYS = {
    "name", "description", "dim_base", "rank_B", "rank_A", "variables",
    "anchor", "structure", "christoffel", "matched_pair",
    "symmetrize_connection", "params",
}


# the chart, its variable names and the bound parameters {name: Fraction}
LoadedChart = namedtuple("LoadedChart", "alg variables params")


def _require_int(data, key, minimum):
    v = data.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise LoadError(f"'{key}' must be an integer >= {minimum}")
    return v


def _expr(value, names, params, where) -> Poly:
    if isinstance(value, bool) or isinstance(value, float):
        raise LoadError(f"{where}: expected an expression string or integer")
    if isinstance(value, int):
        return Poly.const(value)
    if isinstance(value, str):
        try:
            p = parse_poly(value, names, params)
        except LoadError as exc:
            raise LoadError(f"{where}: {exc}") from None
        for key in p.num:
            for i, e in exponents(key):
                if e > MAX_BASE_EXPONENT:
                    limit = f"the limit of {MAX_BASE_EXPONENT}"
                    raise LoadError(f"{where}: exponent {e} of {names[i]} is over {limit}")
        return p
    raise LoadError(f"{where}: expected an expression string or integer")


def _index_key(key, where):
    parts = [p.strip() for p in str(key).split(",")]
    # int() reads exactly the decimal digits; longer indices are out of range anyway
    if len(parts) != 3 or not all(p.removeprefix("-").isdecimal() and len(p) < 10 for p in parts):
        raise LoadError(f"{where}: key {key!r} must look like \"i,j,k\"")
    return tuple(int(p) for p in parts)


def _table(data, what, bounds, rule, names, params):
    """The nonzero entries of the "i,j,k"-keyed table data[what], 0-based; index a in 1..bounds[a]."""
    raw = data.get(what, {})
    if not isinstance(raw, dict):
        raise LoadError(f"'{what}' must be an object")
    out = {}
    for key, val in raw.items():
        idx = _index_key(key, what)
        if not all(1 <= i <= b for i, b in zip(idx, bounds)):
            raise LoadError(f"{what} key {key!r}: {rule}")
        if p := _expr(val, names, params, f"{what}[{key}]"):
            out[tuple(i - 1 for i in idx)] = p
    return out


def load_chart_dict(data, param_overrides=None) -> LoadedChart:
    if not isinstance(data, dict):
        raise LoadError("chart file must contain a JSON object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise LoadError(f"unknown keys: {', '.join(unknown)}")

    n = _require_int(data, "dim_base", 0) if "dim_base" in data else 0
    if n > MAX_DIM_BASE:
        raise LoadError(f"dim_base is {n}, over the limit of {MAX_DIM_BASE}")
    s = _require_int(data, "rank_B", 1)
    t = _require_int(data, "rank_A", 0) if "rank_A" in data else 0
    m = s + t
    if m > MAX_RANK:
        raise LoadError(f"rank_B + rank_A is {m}, over the limit of {MAX_RANK}")

    variables = data.get("variables", [])
    if not isinstance(variables, list) or len(variables) != n:
        raise LoadError(f"'variables' must list exactly {n} names")
    seen = set()
    for v in variables:
        if not isinstance(v, str) or not _IDENT.match(v):
            raise LoadError(f"variable name {v!r} is not an identifier")
        if _RESERVED.match(v):
            raise LoadError(f"variable name {v!r} collides with a fiber coordinate")
        if v in seen:
            raise LoadError(f"duplicate variable name {v!r}")
        seen.add(v)

    params = {"gamma": Fraction(1)}
    raw_params = data.get("params", {})
    if not isinstance(raw_params, dict):
        raise LoadError("'params' must be an object")
    for key, val in raw_params.items():
        if not isinstance(key, str) or not _IDENT.match(key) or _RESERVED.match(key):
            raise LoadError(f"parameter name {key!r} is not allowed")
        if key in seen:
            raise LoadError(f"parameter {key!r} shadows a variable")
        if isinstance(val, int) and not isinstance(val, bool):
            params[key] = Fraction(val)
        elif isinstance(val, str):
            try:
                params[key] = parse_rational(val)
            except LoadError as exc:
                raise LoadError(f"params.{key}: {exc}") from None
        else:
            raise LoadError(f"params.{key}: expected a rational string or integer")
    for key, val in (param_overrides or {}).items():
        params[key] = Fraction(val)

    anchor = data.get("anchor")
    rho = {}
    if anchor is not None:
        if not isinstance(anchor, list) or len(anchor) != m:
            raise LoadError(f"'anchor' must have {m} rows (B rows first)")
        for i, row in enumerate(anchor):
            if not isinstance(row, list) or len(row) != n:
                raise LoadError(f"anchor row {i+1} must have {n} entries")
            for j, entry in enumerate(row):
                p = _expr(entry, variables, params, f"anchor[{i+1}][{j+1}]")
                if p:
                    rho[(i, j)] = p

    c_entries = _table(data, "structure", (m, m, m), f"indices must lie in 1..{m}",
                       variables, params)
    try:
        c_full = complete_antisymmetric(c_entries)
    except ValueError as exc:
        raise LoadError(str(exc)) from None
    gamma = _table(data, "christoffel", (m, s, s), f"first index in 1..{m}, others in 1..{s}",
                   variables, params)

    matched = data.get("matched_pair", False)
    symmetrize = data.get("symmetrize_connection", False)
    for key, val in (("matched_pair", matched), ("symmetrize_connection", symmetrize)):
        if not isinstance(val, bool):
            raise LoadError(f"'{key}' must be a boolean")

    try:
        alg = ChartAlgebroid(n, s, t, rho=rho, C=c_full, Gamma=gamma, matched=matched)
    except ValueError as exc:
        raise LoadError(str(exc)) from None
    if symmetrize:
        alg = alg.symmetrized()

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise LoadError("'name' must be a string")
    return LoadedChart(alg, list(variables), params)


def load_chart(path, param_overrides=None) -> LoadedChart:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # bad JSON, bad UTF-8, an over-long integer literal, or nesting too deep
        raise LoadError(f"{path} is not valid JSON: {exc}") from None
    return load_chart_dict(data, param_overrides)
