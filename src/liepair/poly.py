"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in base variables x1..xn (0-based indices) is stored as
integer numerators over one common denominator, as FLINT's fmpq_poly
does: ``num`` maps packed base keys to nonzero ints and ``den`` is a
positive int, so the coefficient of key k is num[k] / den.

Keys.  A base monomial is one int, the exponent of x_i in the 16-bit
field at bit 16 i (the packed exponent vectors of Monagan and Pearce):
the constant term is 0 and a product's key is the sum of its factors'.
Indices stay below MAX_VARS = 32 and exponents at most MAX_EXP = 2^15 - 1
(ValueError beyond): bit 15 of a field is a guard that only a sum past
MAX_EXP sets, and a product tests the guard bits of its result once.
The partial by x_i maps x^k to e x^(k - u_i) with e = k >> 16 i & 0xFFFF
and u_i = 1 << 16 i.  GradedElement coefficients use these keys and rules.

The stored form is canonical: den >= 1, gcd(den, *num.values()) == 1,
and den == 1 for zero, so equality compares (num, den).  Every operation
works on ints and normalizes its result once, with a single gcd.
Fractions and tuple keys ((index, exponent), ...), indices ascending and
exponents positive, appear only at the boundary: Poly({tuple: rational}),
const, variable, monomial, constant_value, total_degree and the read-only
``terms`` view {tuple: Fraction}; _pack and exponents convert.  to_str
prints straight from the store (expressions.Printer).

Example::

    >>> p = Poly.variable(0) + Poly.const(2)
    >>> p * p == Poly.variable(0)**2 + 4*Poly.variable(0) + Poly.const(4)
    True
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_


MAX_VARS = 32
_W = 16  # width of one exponent field (module docstring)
MAX_EXP, _FIELD = (1 << (_W - 1)) - 1, (1 << _W) - 1
_GUARD = sum(1 << (_W * i + _W - 1) for i in range(MAX_VARS))


def _pack(exps):
    """The packed key of ((index, exponent), ...); ValueError outside the fields."""
    k = 0
    for i, e in exps:
        if not (0 <= i < MAX_VARS and 0 <= e <= MAX_EXP) or k >> _W * i & _FIELD:
            raise ValueError(f"x{i + 1}^{e} is repeated or outside the packed base key")
        k += e << _W * i
    return k


def exponents(key):
    """The ((index, exponent), ...) pairs of a packed key, indices ascending."""
    out, i = [], 0
    while key:
        if e := key & _FIELD:
            out.append((i, e))
        key, i = key >> _W, i + 1
    return tuple(out)


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


class _Terms(_View):
    """The view with tuple keys; a key that is not a stored tuple key is missing."""

    __slots__ = ()

    def __getitem__(self, key):
        try:
            k = _pack(key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if k not in self._num or exponents(k) != key:
            raise KeyError(key)
        return self._read(self._num[k])

    def __iter__(self):
        return map(exponents, self._num)


class Poly:
    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        # the rational boundary: {tuple key: int or Fraction}, zero values dropped
        coeffs = [(_pack(k), Fraction(v)) for k, v in (terms or {}).items() if v]
        self.den = den = lcm(*(c.denominator for _, c in coeffs))
        self.num = {k: c.numerator * (den // c.denominator) for k, c in coeffs}

    @classmethod
    def zero(cls):
        return _canonical({}, 1)

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return _canonical({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def one(cls):
        return _canonical({0: 1}, 1)

    @classmethod
    def variable(cls, i: int) -> "Poly":
        return _canonical({_pack(((i, 1),)): 1}, 1)

    @classmethod
    def monomial(cls, key, c=1) -> "Poly":
        c = Fraction(c)
        return _canonical({_pack(key): c.numerator} if c else {}, c.denominator)

    @property
    def terms(self):
        """The coefficients as a read-only {tuple key: Fraction} mapping."""
        return _Terms(self.num, lambda v: Fraction(v, self.den))

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
        if self.num.keys() <= {0}:  # a constant hashes as the rational it equals
            return hash(self.constant_value())
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
                    k = k1 + k2
                    out[k] = out.get(k, 0) + v1 * v2
            if out and reduce(or_, out) & _GUARD:
                raise ValueError(f"a product passes base exponent {MAX_EXP}")
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
        at = _W * (i if i >= 0 else MAX_VARS)  # no key has a field at i < 0 or i >= MAX_VARS
        # k -> k - unit_i is injective on the keys holding x_i
        return _canonical({k - (1 << at): e * v for k, v in self.num.items()
                           if (e := k >> at & _FIELD)}, self.den)

    def total_degree(self):
        """Largest total degree of a term, or None for the zero polynomial."""
        return max((sum(e for _, e in exponents(k)) for k in self.num), default=None)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term."""
        return Fraction(self.num.get(0, 0), self.den)

    def to_str(self, names) -> str:
        """Render in the input grammar, in the term order of expressions.Printer."""
        from .expressions import poly_str  # lazy: expressions imports poly

        return poly_str(self, names)

    def __repr__(self):
        return f"Poly({self.to_str(None)})"
