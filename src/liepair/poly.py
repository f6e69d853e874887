"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in base variables x1..xn is a mapping from exponent keys to
fractions.Fraction coefficients.  An exponent key is a tuple of
(variable index, exponent) pairs sorted by index with every exponent
positive; the empty tuple is the constant term.  Zero coefficients are
never stored, so two equal polynomials always have equal dicts and
equality is decidable by dict comparison.  Variable indices are 0-based.

Example::

    >>> p = Poly.variable(0) + Poly.const(2)
    >>> p * p == Poly.variable(0)**2 + 4*Poly.variable(0) + Poly.const(4)
    True
"""

from __future__ import annotations

from fractions import Fraction


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


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # do not store 0-values
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return cls({(): c} if c else {})

    @classmethod
    def one(cls):
        return cls({(): Fraction(1)})

    @classmethod
    def variable(cls, i: int) -> "Poly":
        return cls({((i, 1),): Fraction(1)})

    @classmethod
    def monomial(cls, key, c=1) -> "Poly":
        c = Fraction(c)
        return cls({tuple(sorted(key)): c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly()
            return Poly({k: v * c for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = _key_mul(k1, k2)
                v = v1 * v2
                old = out.get(k)
                out[k] = v if old is None else old + v
        return Poly(out)

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
        out = {}
        for k, v in self.terms.items():
            for pos, (j, e) in enumerate(k):
                if j == i:
                    nk = k[:pos] + ((j, e - 1),) + k[pos + 1:] if e > 1 else k[:pos] + k[pos + 1:]
                    s = out.get(nk, 0) + v * e
                    if s:
                        out[nk] = s
                    else:
                        out.pop(nk, None)
                    break
        return Poly(out)

    def total_degree(self):
        """Largest total degree of a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e for _, e in k) for k in self.terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term."""
        return self.terms.get((), Fraction(0))

    def to_str(self, names) -> str:
        """Render in the input grammar; graded-lex term order, leading term first."""
        if not self.terms:
            return "0"

        def order(k):
            deg = sum(e for _, e in k)
            dense = tuple(dict(k).get(i, 0) for i in range(len(names)))
            return (-deg, tuple(-e for e in dense))

        parts = []
        for k in sorted(self.terms, key=order):
            c = self.terms[k]
            factors = [f"{names[i]}" if e == 1 else f"{names[i]}^{e}" for i, e in k]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        n = 0
        for k in self.terms:
            for i, _ in k:
                n = max(n, i + 1)
        return f"Poly({self.to_str([f'x{i+1}' for i in range(n)])})"
