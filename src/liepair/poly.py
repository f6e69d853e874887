"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in base variables x1..xn is stored as integer numerators
over one common denominator, as FLINT's fmpq_poly does: ``num`` maps
exponent keys to nonzero ints and ``den`` is a positive int, so the
coefficient of key k is num[k] / den.  An exponent key is a tuple of
(variable index, exponent) pairs sorted by index with every exponent
positive; the empty tuple is the constant term.  Variable indices are
0-based.

The stored form is canonical: den >= 1, gcd(den, *num.values()) == 1,
and den == 1 for the zero polynomial.  Two equal polynomials therefore
have equal (num, den), and equality is a dict comparison.  Every
operation works on ints and normalizes its result once, with a single
gcd.  Fraction appears only at the boundary: the public constructor
Poly({key: rational}), const, monomial, constant_value, to_str and the
read-only ``terms`` view {key: Fraction}.

Example::

    >>> p = Poly.variable(0) + Poly.const(2)
    >>> p * p == Poly.variable(0)**2 + 4*Poly.variable(0) + Poly.const(4)
    True
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd


def _key_mul(k1, k2):
    # merge two sorted exponent keys, adding exponents
    if not k1:
        return k2
    if not k2:
        return k1
    out = dict(k1)
    for i, e in k2:
        out[i] = out.get(i, 0) + e
    return tuple(sorted(out.items()))


_new = object.__new__


def _canonical(num, den):
    """The Poly num / den in canonical form; num holds no zero values, den > 0."""
    g = gcd(den, *num.values()) if den != 1 else 1  # den itself when num is empty
    if g != 1:
        den //= g
        num = {k: v // g for k, v in num.items()}
    p = _new(Poly)
    p.num, p.den = num, den
    return p


class _View(Mapping):
    """Read-only view of a store: its keys, each value passed through read."""

    __slots__ = ("_num", "_read")

    def __init__(self, num, read):
        self._num, self._read = num, read

    def __getitem__(self, key):
        return self._read(self._num[key])

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


class Poly:
    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        # the rational boundary: {key: int or Fraction}, zero values dropped
        coeffs = [(k, Fraction(v)) for k, v in (terms or {}).items() if v]
        den = 1
        for _, c in coeffs:
            den = den // gcd(den, c.denominator) * c.denominator
        self.num = {k: c.numerator * (den // c.denominator) for k, c in coeffs}
        self.den = den

    @classmethod
    def zero(cls):
        return _canonical({}, 1)

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return _canonical({(): c.numerator} if c else {}, c.denominator)

    @classmethod
    def one(cls):
        return _canonical({(): 1}, 1)

    @classmethod
    def variable(cls, i: int) -> "Poly":
        return _canonical({((i, 1),): 1}, 1)

    @classmethod
    def monomial(cls, key, c=1) -> "Poly":
        c = Fraction(c)
        return _canonical({tuple(sorted(key)): c.numerator} if c else {}, c.denominator)

    @property
    def terms(self):
        """The coefficients as a read-only {exponent key: Fraction} mapping."""
        return _View(self.num, lambda v: Fraction(v, self.den))

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        g = gcd(self.den, other.den)
        a, b = other.den // g, self.den // g
        out = dict(self.num) if a == 1 else {k: v * a for k, v in self.num.items()}
        for k, v in other.num.items():
            if s := out.get(k, 0) + v * b:
                out[k] = s
            else:
                del out[k]
        return _canonical(out, self.den * a)

    __radd__ = __add__

    def __neg__(self):
        p = _new(Poly)
        p.num = {k: -v for k, v in self.num.items()}
        p.den = self.den
        return p

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            n, d = other, 1
        elif isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
        elif isinstance(other, Poly):
            out = {}
            t2 = other.num.items()
            for k1, v1 in self.num.items():
                for k2, v2 in t2:
                    k = _key_mul(k1, k2)
                    v = v1 * v2
                    old = out.get(k)
                    out[k] = v if old is None else old + v
            return _canonical({k: v for k, v in out.items() if v}, self.den * other.den)
        else:
            return NotImplemented
        if not n:
            return _canonical({}, 1)
        return _canonical({k: v * n for k, v in self.num.items()}, self.den * d)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        out = Poly.one()
        for _ in range(e):
            out = out * self
        return out

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        out = {}  # k -> k with x_i lowered is injective on the keys holding x_i
        for k, v in self.num.items():
            if e := dict(k).get(i):
                out[tuple((j, f - (j == i)) for j, f in k if j != i or f > 1)] = v * e
        return _canonical(out, self.den)

    def total_degree(self):
        """Largest total degree of a term, or None for the zero polynomial."""
        return max((sum(e for _, e in k) for k in self.num), default=None)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term."""
        return Fraction(self.num.get((), 0), self.den)

    def to_str(self, names) -> str:
        """Render in the input grammar; graded-lex term order, leading term first."""
        if not self.num:
            return "0"

        def order(k):
            deg = sum(e for _, e in k)
            dense = tuple(dict(k).get(i, 0) for i in range(len(names)))
            return (-deg, tuple(-e for e in dense))

        parts = []
        for k in sorted(self.num, key=order):
            n = self.num[k]
            factors = [f"{names[i]}" if e == 1 else f"{names[i]}^{e}" for i, e in k]
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

    def __repr__(self):
        n = max((i + 1 for k in self.num for i, _ in k), default=0)
        return f"Poly({self.to_str([f'x{i+1}' for i in range(n)])})"
