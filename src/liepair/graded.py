"""Functions on the graded manifold underlying a Lie pair chart.

Coordinates: base variables x1..xn (degree 0), odd fiber coordinates
alpha1..alphat and beta1..betas (degree 1), and even formal fiber
coordinates b1..bs (degree 0).  A function is a finite sum of monomials

    c(x) * alpha_{i1}...alpha_{ip} * beta_{j1}...beta_{jq} * b^e

with c an exact-rational polynomial.  The generator order inside a
monomial is all alphas (ascending) then all betas (ascending); this
fixed order pins every Koszul sign.  Indices are 0-based internally.

Bidegree of a monomial is (p, q) = (#alphas, #betas); its fiber degree
is the total b-exponent; its (total) degree is p + q.

Derivations are stored by their values on the generators and extended
lazily by the graded Leibniz rule.  The graded commutator of two
derivations is again a derivation and is evaluated on generators only.

Fiber-degree budget.  GradedElement.mul, Derivation.apply and
Derivation.commutator take an optional ``upto``.  A budgeted product
skips every monomial pair whose fiber degrees add up to more than
``upto``, so the terms above the window are never formed.  Fiber
degrees are never negative, so the contract is exact:

    x.mul(y, upto) == (x * y).truncate(upto)
    d.apply(x, upto) == d.apply(x).truncate(upto)

commutator windows only its values on the b generators; its values on
x, alpha and beta stay exact, because callers test those for exact
vanishing (verticality of a bracket, flatness of D off the fiber).  A
derivation whose value on some b has fiber degree zero (the -delta in
D = nabla - delta + X) lowers fiber degree by one, so an element that a
caller truncates itself before applying such a derivation with budget
``upto`` must be kept through ``upto + 1``.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly


class Monomial:
    """Immutable product of odd generators and b-powers (coefficient excluded).

    alphas, betas: strictly increasing index tuples.
    bexp: sorted tuple of (index, exponent) pairs, exponents positive.
    """

    __slots__ = ("alphas", "betas", "bexp", "bdeg", "_hash")

    def __init__(self, alphas=(), betas=(), bexp=()):
        self.alphas = tuple(alphas)
        self.betas = tuple(betas)
        self.bexp = tuple(bexp)
        self.bdeg = sum(e for _, e in self.bexp)
        if any(self.alphas[i] >= self.alphas[i + 1] for i in range(len(self.alphas) - 1)):
            raise ValueError("alpha indices must be strictly increasing")
        if any(self.betas[i] >= self.betas[i + 1] for i in range(len(self.betas) - 1)):
            raise ValueError("beta indices must be strictly increasing")
        if any(e <= 0 for _, e in self.bexp):
            raise ValueError("b exponents must be positive")
        self._hash = hash((self.alphas, self.betas, self.bexp))

    @property
    def p(self):
        return len(self.alphas)

    @property
    def q(self):
        return len(self.betas)

    @property
    def degree(self):
        return len(self.alphas) + len(self.betas)

    def sort_key(self):
        return (self.alphas, self.betas, self.bexp)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.alphas == other.alphas
            and self.betas == other.betas
            and self.bexp == other.bexp
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self.alphas}, {self.betas}, {self.bexp})"


_ONE_MON = Monomial()


def _inversions(a, b):
    # pairs (x in a, y in b) with x > y; both tuples sorted ascending
    count = 0
    for x in a:
        for y in b:
            if x > y:
                count += 1
    return count


def _merge_odd(m1: Monomial, m2: Monomial):
    """Merge odd generator lists of two monomials.

    Returns (alphas, betas, sign) or None when a generator repeats.
    The sign counts transpositions needed to reach canonical order,
    where every alpha precedes every beta.
    """
    if set(m1.alphas) & set(m2.alphas) or set(m1.betas) & set(m2.betas):
        return None
    inv = (
        _inversions(m1.alphas, m2.alphas)
        + _inversions(m1.betas, m2.betas)
        + len(m1.betas) * len(m2.alphas)
    )
    alphas = tuple(sorted(m1.alphas + m2.alphas))
    betas = tuple(sorted(m1.betas + m2.betas))
    return alphas, betas, (-1 if inv & 1 else 1)


def _bexp_mul(b1, b2):
    if not b1:
        return b2
    if not b2:
        return b1
    out = dict(b1)
    for i, e in b2:
        out[i] = out.get(i, 0) + e
    return tuple(sorted(out.items()))


def _acc(store, mon, poly):
    cur = store.get(mon)
    s = poly if cur is None else cur + poly
    if s:
        store[mon] = s
    elif cur is not None:
        del store[mon]


class GradedElement:
    """A function on the graded manifold: mapping Monomial -> Poly coefficient.

    Supports graded-commutative multiplication with Koszul signs; the
    canonical stored form is unique, so equality is dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_poly(cls, p: Poly) -> "GradedElement":
        return cls({_ONE_MON: p}) if p else cls()

    @classmethod
    def scalar(cls, c) -> "GradedElement":
        return cls.from_poly(Poly.const(c))

    @classmethod
    def one(cls):
        return cls.from_poly(Poly.one())

    @classmethod
    def xvar(cls, i: int) -> "GradedElement":
        return cls.from_poly(Poly.variable(i))

    @classmethod
    def alpha(cls, i: int) -> "GradedElement":
        return cls({Monomial((i,), (), ()): Poly.one()})

    @classmethod
    def beta(cls, i: int) -> "GradedElement":
        return cls({Monomial((), (i,), ()): Poly.one()})

    @classmethod
    def bvar(cls, i: int) -> "GradedElement":
        return cls({Monomial((), (), ((i, 1),)): Poly.one()})

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, GradedElement):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        raise TypeError("GradedElement is unhashable")

    def degrees(self):
        return {m.degree for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self):
        """Common total degree, None for zero; raises on mixed degrees."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, c)
        return GradedElement(out)

    def __neg__(self):
        return GradedElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GradedElement":
        """Multiply by a rational or a base polynomial (both central, even)."""
        if isinstance(c, (int, Fraction)):
            c = Fraction(c)
            if not c:
                return GradedElement()
            return GradedElement({m: v * c for m, v in self.terms.items()})
        if isinstance(c, Poly):
            out = {}
            for m, v in self.terms.items():
                _acc(out, m, v * c)
            return GradedElement(out)
        raise TypeError(type(c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return self.mul(other)

    def mul(self, other: "GradedElement", upto=None) -> "GradedElement":
        """Graded product, keeping only fiber degrees <= upto when given."""
        limit = float("inf") if upto is None else upto
        out = {}
        for m1, c1 in self.terms.items():
            room = limit - m1.bdeg
            if room < 0:
                continue
            for m2, c2 in other.terms.items():
                if m2.bdeg > room:
                    continue
                merged = _merge_odd(m1, m2)
                if merged is None:
                    continue
                alphas, betas, sign = merged
                c = c1 * c2
                if sign < 0:
                    c = -c
                _acc(out, Monomial(alphas, betas, _bexp_mul(m1.bexp, m2.bexp)), c)
        return GradedElement(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    # -- projections ---------------------------------------------------
    def project(self, pred) -> "GradedElement":
        """Keep monomials whose (p, q, bdeg) satisfies the predicate."""
        return GradedElement(
            {m: c for m, c in self.terms.items() if pred(m.p, m.q, m.bdeg)}
        )

    def part(self, p=None, q=None, r=None) -> "GradedElement":
        """Bidegree / fiber-degree slice; None entries match anything."""
        return self.project(
            lambda mp, mq, mr: (p is None or mp == p)
            and (q is None or mq == q)
            and (r is None or mr == r)
        )

    def truncate(self, n: int) -> "GradedElement":
        """Drop monomials of fiber degree greater than n."""
        return self.project(lambda mp, mq, mr: mr <= n)

    def bparts(self):
        """Split by fiber degree: dict fiber degree -> element."""
        out = {}
        for m, c in self.terms.items():
            out.setdefault(m.bdeg, {})[m] = c
        return {r: GradedElement(t) for r, t in sorted(out.items())}

    def __repr__(self):
        from .expressions import element_str

        return f"<{element_str(self)}>"


GEN_X, GEN_ALPHA, GEN_BETA, GEN_B = "x", "alpha", "beta", "b"
_GEN_DEGREE = {GEN_X: 0, GEN_ALPHA: 1, GEN_BETA: 1, GEN_B: 0}


class Derivation:
    """A graded derivation given by its values on the chart generators.

    Application to a general element uses the graded Leibniz rule; the
    sign in front of the value for an odd-position factor is
    (-1)^(deg(D) * deg(prefix)).  Values must be homogeneous of degree
    deg(generator) + deg(D) (zero values are always allowed).
    """

    __slots__ = ("degree", "x_vals", "alpha_vals", "beta_vals", "b_vals")

    def __init__(self, degree, x_vals=None, alpha_vals=None, beta_vals=None, b_vals=None):
        self.degree = degree
        self.x_vals = {i: v for i, v in (x_vals or {}).items() if v}
        self.alpha_vals = {i: v for i, v in (alpha_vals or {}).items() if v}
        self.beta_vals = {i: v for i, v in (beta_vals or {}).items() if v}
        self.b_vals = {i: v for i, v in (b_vals or {}).items() if v}
        for kind, table in self._tables():
            want = _GEN_DEGREE[kind] + degree
            for i, v in table.items():
                if v.degree() != want:
                    raise ValueError(
                        f"value on {kind}{i+1} has degree {v.degree()}, expected {want}"
                    )

    def _tables(self):
        return (
            (GEN_X, self.x_vals),
            (GEN_ALPHA, self.alpha_vals),
            (GEN_BETA, self.beta_vals),
            (GEN_B, self.b_vals),
        )

    def value(self, kind, i) -> GradedElement:
        table = {GEN_X: self.x_vals, GEN_ALPHA: self.alpha_vals,
                 GEN_BETA: self.beta_vals, GEN_B: self.b_vals}[kind]
        return table.get(i, GradedElement.zero())

    def is_zero(self) -> bool:
        return not (self.x_vals or self.alpha_vals or self.beta_vals or self.b_vals)

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.degree != other.degree:
            return self.is_zero() and other.is_zero()
        return (
            self.x_vals == other.x_vals
            and self.alpha_vals == other.alpha_vals
            and self.beta_vals == other.beta_vals
            and self.b_vals == other.b_vals
        )

    # -- linear structure ----------------------------------------------
    def __add__(self, other):
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("cannot add derivations of different degrees")
        deg = other.degree if self.is_zero() else self.degree

        def merge(a, b):
            out = dict(a)
            for i, v in b.items():
                s = out.get(i, GradedElement.zero()) + v
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
            return out

        return Derivation(
            deg,
            merge(self.x_vals, other.x_vals),
            merge(self.alpha_vals, other.alpha_vals),
            merge(self.beta_vals, other.beta_vals),
            merge(self.b_vals, other.b_vals),
        )

    def __neg__(self):
        return Derivation(
            self.degree,
            {i: -v for i, v in self.x_vals.items()},
            {i: -v for i, v in self.alpha_vals.items()},
            {i: -v for i, v in self.beta_vals.items()},
            {i: -v for i, v in self.b_vals.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Derivation":
        return Derivation(
            self.degree,
            {i: v.scale(c) for i, v in self.x_vals.items()},
            {i: v.scale(c) for i, v in self.alpha_vals.items()},
            {i: v.scale(c) for i, v in self.beta_vals.items()},
            {i: v.scale(c) for i, v in self.b_vals.items()},
        )

    # -- action ----------------------------------------------------------
    def apply(self, elem: GradedElement, upto=None) -> GradedElement:
        """Extend to the whole algebra by the graded Leibniz rule.

        With upto, only fiber degrees <= upto are formed (module docstring).
        """
        odd = self.degree & 1
        # a b factor lowers fiber degree by one at most, every other factor not at all
        skip_above = float("inf") if upto is None else upto + 1
        out = {}
        for mon, coeff in elem.terms.items():
            if mon.bdeg > skip_above:
                continue
            rest = GradedElement({Monomial(mon.alphas, mon.betas, mon.bexp): Poly.one()})
            # base-variable factors sit to the left of all odd generators
            for j, val in self.x_vals.items():
                dc = coeff.diff(j)
                if dc:
                    for m, c in val.mul(rest, upto).scale(dc).terms.items():
                        _acc(out, m, c)
            # alpha factors
            for pos, i in enumerate(mon.alphas):
                val = self.alpha_vals.get(i)
                if val is None:
                    continue
                sgn = -1 if (odd and pos & 1) else 1
                prefix = GradedElement({Monomial(mon.alphas[:pos], (), ()): coeff})
                suffix = GradedElement(
                    {Monomial(mon.alphas[pos + 1:], mon.betas, mon.bexp): Poly.one()}
                )
                term = prefix.mul(val, upto).mul(suffix, upto)
                if sgn < 0:
                    term = -term
                for m, c in term.terms.items():
                    _acc(out, m, c)
            # beta factors; preceded by all alphas
            for pos, i in enumerate(mon.betas):
                val = self.beta_vals.get(i)
                if val is None:
                    continue
                tot = len(mon.alphas) + pos
                sgn = -1 if (odd and tot & 1) else 1
                prefix = GradedElement({Monomial(mon.alphas, mon.betas[:pos], ()): coeff})
                suffix = GradedElement(
                    {Monomial((), mon.betas[pos + 1:], mon.bexp): Poly.one()}
                )
                term = prefix.mul(val, upto).mul(suffix, upto)
                if sgn < 0:
                    term = -term
                for m, c in term.terms.items():
                    _acc(out, m, c)
            # b factors; preceded by all odd generators, even themselves
            if self.b_vals and mon.bexp:
                tot = len(mon.alphas) + len(mon.betas)
                sgn = -1 if (odd and tot & 1) else 1
                for slot, (i, e) in enumerate(mon.bexp):
                    val = self.b_vals.get(i)
                    if val is None:
                        continue
                    nb = (
                        mon.bexp[:slot] + ((i, e - 1),) + mon.bexp[slot + 1:]
                        if e > 1
                        else mon.bexp[:slot] + mon.bexp[slot + 1:]
                    )
                    lead = GradedElement(
                        {Monomial(mon.alphas, mon.betas, nb): coeff * Fraction(sgn * e)}
                    )
                    for m, c in lead.mul(val, upto).terms.items():
                        _acc(out, m, c)
        return GradedElement(out)

    def __call__(self, elem):
        return self.apply(elem)

    def commutator(self, other: "Derivation", upto=None) -> "Derivation":
        """[D1, D2] = D1 D2 - (-1)^(deg1*deg2) D2 D1, evaluated on generators.

        With upto, the values on b generators keep fiber degrees <= upto;
        the values on x, alpha and beta are always exact.
        """
        sign = -1 if (self.degree & 1) and (other.degree & 1) else 1
        tables = {}
        for kind in (GEN_X, GEN_ALPHA, GEN_BETA, GEN_B):
            mine = dict(self._tables())[kind]
            theirs = dict(other._tables())[kind]
            cap = upto if kind == GEN_B else None
            vals = {}
            for i in set(mine) | set(theirs):
                v = self.apply(other.value(kind, i), cap)
                w = other.apply(self.value(kind, i), cap)
                res = v - w.scale(sign)
                if res:
                    vals[i] = res
            tables[kind] = vals
        return Derivation(
            self.degree + other.degree,
            tables[GEN_X],
            tables[GEN_ALPHA],
            tables[GEN_BETA],
            tables[GEN_B],
        )

    def bidegree_part(self, dp: int, dq: int) -> "Derivation":
        """The component shifting bidegree by exactly (dp, dq)."""
        return Derivation(
            self.degree,
            {i: v.part(p=dp, q=dq) for i, v in self.x_vals.items()},
            {i: v.part(p=1 + dp, q=dq) for i, v in self.alpha_vals.items()},
            {i: v.part(p=dp, q=1 + dq) for i, v in self.beta_vals.items()},
            {i: v.part(p=dp, q=dq) for i, v in self.b_vals.items()},
        )

    def __repr__(self):
        vals = []
        for kind, table in self._tables():
            for i in sorted(table):
                vals.append(f"{kind}{i+1} -> {table[i]!r}")
        return f"Derivation(deg={self.degree}, " + "; ".join(vals) + ")"


def project(elem, pred):
    return elem.project(pred)


def truncate(obj, n: int):
    return obj.truncate(n)
