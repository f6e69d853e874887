"""The printers that expressions.Printer replaced, kept as a test reference.

poly_to_str is the former Poly.to_str method, taking the polynomial as its
first argument; poly_str, element_str, dsection_str and homsection_str are
the former expressions.py printers, calling poly_to_str and each other here.
Their bodies are unchanged.  The new printers must match them byte for byte.
"""

from fractions import Fraction

from liepair.poly import _FIELD, _W, exponents


def poly_to_str(self, names) -> str:
    """Render in the input grammar; graded-lex term order, leading term first."""
    if not self.num:
        return "0"

    def order(k):  # higher degree first, then graded-lex on the dense exponents
        dense = [-(k >> _W * i & _FIELD) for i in range(len(names))]
        return sum(dense), dense

    parts = []
    for k in sorted(self.num, key=order):
        n = self.num[k]
        factors = [f"{names[i]}" if e == 1 else f"{names[i]}^{e}" for i, e in exponents(k)]
        mag = Fraction(abs(n), self.den)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if n > 0 else "-" + body)
        else:
            parts.append(("+ " if n > 0 else "- ") + body)
    return " ".join(parts)


def poly_str(p, names=None) -> str:
    if names is None:
        names = _default_names([p])
    return poly_to_str(p, names)


def _default_names(polys):
    n = max((i + 1 for p in polys for k in p.num for i, _ in exponents(k)), default=0)
    return [f"x{i+1}" for i in range(n)]


def _mono_gens(mon) -> list:
    gens = [f"alpha{i+1}" for i in mon.alphas]
    gens += [f"beta{i+1}" for i in mon.betas]
    gens += [f"b{i+1}" if e == 1 else f"b{i+1}^{e}" for i, e in mon.bexp]
    return gens


def element_str(elem, var_names=None) -> str:
    """Grammar-compatible rendering; terms ordered by degree then index."""
    if not elem.terms:
        return "0"
    names = var_names if var_names is not None else _default_names(elem.terms.values())
    rendered = []
    order = sorted(elem.terms, key=lambda m: (m.degree, m.bdeg, m.alphas, m.betas, m.bexp))
    for mon in order:
        coeff = elem.terms[mon]
        gens = _mono_gens(mon)
        cs = poly_to_str(coeff, names)
        if not gens:
            body, neg = cs, False
        elif len(coeff.num) > 1:
            body, neg = "(" + cs + ")*" + "*".join(gens), False
        elif cs == "1":
            body, neg = "*".join(gens), False
        elif cs == "-1":
            body, neg = "*".join(gens), True
        elif cs.startswith("-"):
            body, neg = cs[1:] + "*" + "*".join(gens), True
        else:
            body, neg = cs + "*" + "*".join(gens), False
        if not rendered:
            rendered.append(("-" if neg else "") + body)
        else:
            rendered.append(("- " if neg else "+ ") + body)
    return " ".join(rendered)


def dsection_str(sec, var_names=None) -> str:
    parts = [f"({element_str(sec.comps[k], var_names)}) d/db{k+1}" for k in sorted(sec.comps)]
    return " + ".join(parts) or "0"


def homsection_str(phi, var_names=None) -> str:
    parts = [f"[{i+1},{j+1}->{k+1}] {element_str(phi.comps[i, j, k], var_names)}"
             for (i, j, k) in sorted(phi.comps)]
    return "; ".join(parts) or "0"
