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
from math import gcd

from .errors import LoadError
from .poly import _W, MAX_VARS, Poly, exponents

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


class Printer:
    """Renders in the input grammar over fixed variable names (None: x1, x2, ...).

    A term shows its magnitude reduced by one gcd (dropped when it is 1 and
    the term has variables), then x_i^e by index; a fiber monomial's alphas,
    betas and b-powers follow its coefficient, in parentheses when that has
    several terms.  Term order: base terms by descending total degree, then
    by the exponent of x1, then of x2, and so on, the larger first; fiber
    monomials by total degree, then fiber degree, then their alpha indices,
    beta indices and (index, exponent) b-pairs, each compared as sequences
    (a prefix first).  Each distinct base key and fiber monomial gets its
    order key and string once per printer, decoded once from its packed
    key, so one printer serves a whole report.
    """

    def __init__(self, names=None):
        self.names, self._base, self._fiber = names, {}, {}

    def _base_entry(self, k):
        names, factors, deg, rev = self.names, [], 0, 0
        for i, e in exponents(k):
            try:
                name = f"x{i + 1}" if names is None else names[i]
            except IndexError:
                given = f"{len(names)} variable name{'' if len(names) == 1 else 's'} given"
                raise ValueError(f"no name for x{i + 1}: {given}") from None
            factors.append(name if e == 1 else f"{name}^{e}")
            deg, rev = deg + e, rev | e << _W * (MAX_VARS - 1 - i)  # x1 in the top field
        entry = self._base[k] = (-(deg << _W * MAX_VARS | rev), "*".join(factors))
        return entry

    def _fiber_entry(self, m):
        alphas, betas, bexp = m.alphas, m.betas, m.bexp
        gens = [f"alpha{i + 1}" for i in alphas] + [f"beta{i + 1}" for i in betas]
        gens += [f"b{i + 1}" if e == 1 else f"b{i + 1}^{e}" for i, e in bexp]
        order = (len(alphas) + len(betas), m.bdeg, alphas, betas, bexp)
        entry = self._fiber[m] = (order, "*".join(gens))
        return entry

    def coeff(self, t, den) -> str:
        """The polynomial with numerators t {base key: int} over den."""
        rows = [(self._base.get(k) or self._base_entry(k)) + (n,) for k, n in t.items()]
        rows.sort()  # the order keys differ, so nothing past them is compared
        out = []
        for _, factors, n in rows:
            g = gcd(n, den)
            mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            body = mag if not factors else factors if mag == "1" else f"{mag}*{factors}"
            out.append(("- " if n < 0 else "+ ") + body)
        return _sum(out)

    def element(self, elem) -> str:
        rows = [(self._fiber.get(m) or self._fiber_entry(m)) + (t,) for m, t in elem.num.items()]
        rows.sort()
        out = []
        for _, gens, t in rows:
            cs = self.coeff(t, elem.den)
            if gens and len(t) == 1:  # the sign of the one term moves in front of the generators
                sign, c = ("- ", cs[1:]) if cs[0] == "-" else ("+ ", cs)
                out.append(sign + (gens if c == "1" else f"{c}*{gens}"))
            else:
                out.append("+ " + (f"({cs})*{gens}" if gens else cs))
        return _sum(out)


def _sum(terms) -> str:
    """The terms, each led by "+ " or "- ", as the grammar writes their sum; "0" when empty."""
    out = " ".join(terms)
    return (out[2:] if out[0] == "+" else "-" + out[2:]) if out else "0"


def poly_str(p: Poly, names=None) -> str:
    return Printer(names).coeff(p.num, p.den)


def element_str(elem, var_names=None) -> str:
    """Grammar-compatible rendering, in the term order of Printer."""
    return Printer(var_names).element(elem)


def dsection_str(sec, var_names=None) -> str:
    out = Printer(var_names)
    return " + ".join(f"({out.element(c)}) d/db{k+1}" for k, c in sorted(sec.comps.items())) or "0"


def homsection_str(phi, var_names=None) -> str:
    out = Printer(var_names)
    parts = [f"[{i+1},{j+1}->{k+1}] {out.element(c)}" for (i, j, k), c in sorted(phi.comps.items())]
    return "; ".join(parts) or "0"
