"""Seeded generators of chart files that are valid by construction.

Two families:

* ``tangent_chart``: a torsion-free polynomial connection on the tangent
  bundle of R^n.  Christoffel symbols are symmetric in their lower
  indices, so the torsion check passes by construction; with the
  identity anchor and zero bracket every other axiom is empty.  The
  sparsity pattern is fixed by the caller; the seed only draws the
  nonzero rational coefficients, so the monomial structure does not
  depend on the seed (barring exact cancellations); the cost still moves
  a few percent with the size of the coefficients.
* ``gauss_pair_chart``: the Gauss matched pair of gl_n over a point.
  B is the strictly lower triangular part, A the upper Borel part.  The
  connection is nabla_b b' = 1/2 [b, b'] on B plus the Bott A-action
  nabla_a b = pr_B [a, b] (Majid 1990; Mokri 1997).  Every coefficient
  is a one-term constant.
"""

from __future__ import annotations

import random
from fractions import Fraction

HALF = Fraction(1, 2)


def _rational(r: random.Random) -> str:
    num = r.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    den = r.choice((1, 2, 3))
    return str(Fraction(num, den))


def _polynomial(r: random.Random, support, names) -> str:
    """A polynomial with the given support; monomials are tuples of variable indices."""
    parts = []
    for mon in support:
        factors = [names[i] for i in mon]
        parts.append("*".join([f"({_rational(r)})"] + factors))
    return " + ".join(parts)


def tangent_chart(name: str, n: int, pattern: dict, seed: int) -> dict:
    """Torsion-free connection on T R^n.

    ``pattern`` maps (i, j, k) with i <= j (1-based, i, j lower and k upper
    index) to the support of Gamma_ij^k: a list of monomials, each a tuple
    of 0-based variable indices.  The mirrored entry (j, i, k) gets the
    same polynomial.
    """
    r = random.Random(f"tangent:{name}:{seed}")
    names = [f"x{i + 1}" for i in range(n)]
    christoffel = {}
    for (i, j, k), support in sorted(pattern.items()):
        if not (1 <= i <= j <= n and 1 <= k <= n):
            raise ValueError(f"pattern key {(i, j, k)} is not (i <= j, k) in 1..{n}")
        expr = _polynomial(r, support, names)
        christoffel[f"{i},{j},{k}"] = expr
        if i != j:
            christoffel[f"{j},{i},{k}"] = expr
    return {
        "name": name,
        "description": f"seeded torsion-free polynomial connection on T R^{n}",
        "dim_base": n,
        "rank_B": n,
        "rank_A": 0,
        "variables": names,
        "anchor": [["1" if a == b else "0" for b in range(n)] for a in range(n)],
        "structure": {},
        "christoffel": christoffel,
        "matched_pair": True,
    }


def _gl_bracket(n: int):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj as {(a, b): {c: coeff}}."""
    basis = [(i, j) for i in range(n) for j in range(n)]
    out = {}
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            acc = {}
            if j == k:
                acc[(i, l)] = acc.get((i, l), 0) + 1
            if l == i:
                acc[(k, j)] = acc.get((k, j), 0) - 1
            acc = {key: v for key, v in acc.items() if v}
            if acc:
                out[((i, j), (k, l))] = acc
    return out


def gauss_pair_chart(n: int) -> dict:
    """Gauss matched pair of gl_n: B strictly lower (s = n(n-1)/2), A upper Borel."""
    b_frame = [(i, j) for i in range(n) for j in range(n) if i > j]
    a_frame = [(i, j) for i in range(n) for j in range(n) if i <= j]
    frame = b_frame + a_frame
    index = {e: pos + 1 for pos, e in enumerate(frame)}
    s = len(b_frame)
    bracket = _gl_bracket(n)
    structure, christoffel = {}, {}
    for x in frame:
        for y in frame:
            for z, c in bracket.get((x, y), {}).items():
                i, j, k = index[x], index[y], index[z]
                if i < j:
                    structure[f"{i},{j},{k}"] = str(c)
                if j > s or k > s:
                    continue
                # nabla_b b' = 1/2 [b, b'] on B; nabla_a b = pr_B [a, b] for a in A
                coeff = Fraction(c) * HALF if i <= s else Fraction(c)
                christoffel[f"{i},{j},{k}"] = str(coeff)
    return {
        "name": f"gauss_gl{n}",
        "description": f"Gauss matched pair of gl_{n}: strictly lower B, upper Borel A",
        "dim_base": 0,
        "rank_B": s,
        "rank_A": len(a_frame),
        "variables": [],
        "structure": structure,
        "christoffel": christoffel,
        "matched_pair": True,
    }
