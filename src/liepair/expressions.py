"""Parsing and printing of polynomial structure data.

The input grammar covers exactly what chart files need::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT ('/' INT)? | NAME | '(' expr ')'

Rational literals use '/' between two integer literals only; exponents
are non-negative integer literals.  Names resolve to chart variables or
to bound parameters; anything else is a positioned error.  The printers
emit strings this grammar accepts, so printing and parsing round-trip.

Fixed input budgets keep a short entry from running for minutes or
exhausting the stack: an exponent literal may not exceed MAX_EXPONENT; a
product (each factor of a power included) is refused before it is formed
when its operands' term counts multiply to more than MAX_TERMS, the most
terms it could have, and once formed when an exponent passes poly.MAX_EXP;
and open parentheses plus pending unary minus signs may nest at most
MAX_NESTING deep.  An integer literal longer than the interpreter
converts (4,300 digits by default) is a positioned error too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import LoadError
from .poly import Poly, exponents

MAX_EXPONENT = 100
MAX_TERMS = 10_000
MAX_NESTING = 100


class ParseError(LoadError):
    """Input text rejected; carries the 0-based position of the offender."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.group(1) is not None:
            tokens.append(("INT", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append(("OP", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, var_names, params):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.vars = {name: idx for idx, name in enumerate(var_names)}
        self.params = dict(params or {})

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nest(self, pos, parse):
        """Run parse one nesting level deeper; past MAX_NESTING is an error."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than the limit of {MAX_NESTING}", pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "OP" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.take()

    def parse(self) -> Poly:
        kind, _, pos = self.peek()
        if kind == "END":
            raise ParseError("empty expression", pos)
        result = self.expr()
        kind, val, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {val!r}", pos)
        return result

    def expr(self) -> Poly:
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val == "*":
                _, _, pos = self.take()
                acc = _product(acc, self.factor(), pos)
            else:
                return acc

    def factor(self) -> Poly:
        kind, val, pos = self.peek()
        if kind == "OP" and val == "-":
            self.take()
            return -self.nest(pos, self.factor)
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "OP" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind == "OP" and val == "-":
                raise ParseError("negative exponents are not allowed", pos)
            if kind != "INT":
                raise ParseError("exponent must be an integer literal", pos)
            self.take()
            e = _int_literal(val, pos)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the limit of {MAX_EXPONENT}", pos)
            out = Poly.one()
            for _ in range(e):
                out = _product(out, base, pos)
            return out
        return base

    def atom(self) -> Poly:
        kind, val, pos = self.take()
        if kind == "INT":
            num = _int_literal(val, pos)
            kind2, val2, pos2 = self.peek()
            if kind2 == "OP" and val2 == "/":
                self.take()
                kind3, val3, pos3 = self.peek()
                if kind3 != "INT":
                    raise ParseError("'/' needs an integer literal denominator", pos3)
                self.take()
                den = _int_literal(val3, pos3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                return Poly.const(Fraction(num, den))
            return Poly.const(num)
        if kind == "NAME":
            if val in self.vars:
                return Poly.variable(self.vars[val])
            if val in self.params:
                return Poly.const(self.params[val])
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "OP" and val == "(":
            inner = self.nest(pos, self.expr)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def _int_literal(text, pos) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None


def _product(a: Poly, b: Poly, pos) -> Poly:
    if len(a.num) * len(b.num) > MAX_TERMS:
        raise ParseError(
            f"product of {len(a.num)} and {len(b.num)} terms exceeds the limit of "
            f"{MAX_TERMS} terms",
            pos,
        )
    try:
        return a * b
    except ValueError as exc:  # past the exponent field, as Poly's guard reports
        raise ParseError(str(exc), pos) from None


def parse_poly(text: str, var_names, params=None) -> Poly:
    """Parse an expression over the chart variables and bound parameters."""
    return _Parser(text, var_names, params).parse()


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """A rational literal: optional sign, integer, optional /positive-integer."""
    if not _RATIONAL_RE.match(text.strip()):
        raise ParseError(f"not a rational literal: {text!r}", 0)
    try:
        return Fraction(text.strip())
    except ValueError:  # longer than the interpreter's int conversion limit
        raise ParseError(f"rational literal of {len(text.strip())} characters is too long", 0) from None


# -- printers -----------------------------------------------------------


def poly_str(p: Poly, names=None) -> str:
    if names is None:
        names = _default_names([p])
    return p.to_str(names)


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
    order = sorted(elem.terms, key=lambda m: (m.degree, m.bdeg, m.sort_key()))
    for mon in order:
        coeff = elem.terms[mon]
        gens = _mono_gens(mon)
        cs = coeff.to_str(names)
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
