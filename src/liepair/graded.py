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

A derivation is stored as one map vals from generators (kind, index),
kind x, alpha, beta or b, to nonzero values.  A derivation of a free
graded-commutative algebra is fixed by them, so it acts as

    D(f) = sum_g D(g) * d_g f

with d_g the left partial derivative: write f = +-g * rest by moving g
to the front, then d_g f = +-rest.  On a monomial holding g after k odd
generators the sign is (-1)^(k * |g|), whatever deg D is; d_x is the
coefficient derivative and d_b carries the exponent of b.  The graded
commutator of two derivations is again a derivation and is evaluated
on generators only.

The public constructors Monomial() and Derivation() check invariants;
results built here go through the unchecked _make, which takes bdeg
and the degree as carried along instead of recomputing them.

Every product of terms goes through one kernel, _mac: it adds
sign * f * p1 * p2 into a plain {Monomial: [den, {exponent key: int}]}
accumulator over term pairs (m1, p1), (m2, p2, f), and _finish builds
each coefficient (normalized once, see poly.py) and the element once.
Each output monomial keeps integer numerators over a running
denominator, so the inner loop is int multiply-adds.  When a pair's
p1.den * p2.den does not divide the running denominator, that is raised
to their lcm and the numerators already held are rescaled; with the
denominators charts produce (powers of 2, the gamma denominators) this
is rare.  mul is one _mac call, apply is one per generator g (d_g is
injective on monomials, so its term list needs no accumulation), and
commutator puts both halves of a value, with the sign folded in, into
one accumulator.

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
from math import gcd

from .poly import Poly, _canonical, _key_mul, _new


class Monomial:
    """Immutable product of odd generators and b-powers (coefficient excluded).

    alphas, betas: strictly increasing index tuples.
    bexp: sorted tuple of (index, exponent) pairs, exponents positive.
    """

    __slots__ = ("alphas", "betas", "bexp", "bdeg", "_hash")

    def __init__(self, alphas=(), betas=(), bexp=()):
        self.alphas = alphas = tuple(alphas)
        self.betas = betas = tuple(betas)
        self.bexp = bexp = tuple(bexp)
        for i in range(1, len(alphas)):
            if alphas[i - 1] >= alphas[i]:
                raise ValueError("alpha indices must be strictly increasing")
        for i in range(1, len(betas)):
            if betas[i - 1] >= betas[i]:
                raise ValueError("beta indices must be strictly increasing")
        bdeg = 0
        for _, e in bexp:
            if e <= 0:
                raise ValueError("b exponents must be positive")
            bdeg += e
        self.bdeg = bdeg
        self._hash = hash((alphas, betas, bexp))

    @classmethod
    def _make(cls, alphas, betas, bexp, bdeg):
        """Unchecked constructor for parts that are valid by construction."""
        m = _new(cls)
        m.alphas, m.betas, m.bexp, m.bdeg = alphas, betas, bexp, bdeg
        m._hash = hash((alphas, betas, bexp))
        return m

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


def _merge_sorted(a, b):
    """Merged ascending tuple and inversion count, or None on a repeat."""
    if not (a and b):
        return a or b, 0
    if not set(a).isdisjoint(b):
        return None
    return tuple(sorted(a + b)), _inversions(a, b)


def _merge_odd(m1: Monomial, m2: Monomial):
    """Merge odd generator lists of two monomials.

    Returns (alphas, betas, sign) or None when a generator repeats.
    The sign counts transpositions needed to reach canonical order,
    where every alpha precedes every beta.
    """
    al = _merge_sorted(m1.alphas, m2.alphas)
    be = _merge_sorted(m1.betas, m2.betas)
    if al is None or be is None:
        return None
    inv = al[1] + be[1] + len(m1.betas) * len(m2.alphas)
    return al[0], be[0], (-1 if inv & 1 else 1)


def _acc(store, mon, poly):
    cur = store.get(mon)
    s = poly if cur is None else cur + poly
    if s:
        store[mon] = s
    elif cur is not None:
        del store[mon]


_INF = float("inf")


def _mac(acc, xs, ys, sign, limit):
    """acc[m1 m2] += sign * f * p1 * p2, the one product kernel.

    xs holds terms (m1, p1) and ys terms (m2, p2, f) with f an integer
    factor; only pairs with m1.bdeg + m2.bdeg <= limit are formed.  acc
    maps Monomial -> [den, {exponent key: int numerator}] (module
    docstring); _finish reads it out.
    """
    for m1, p1 in xs:
        room = limit - m1.bdeg
        if room < 0:
            continue
        t1 = p1.num.items()
        d1 = p1.den
        for m2, p2, f in ys:
            if m2.bdeg > room:
                continue
            merged = _merge_odd(m1, m2)
            if merged is None:
                continue
            alphas, betas, s = merged
            s *= sign * f
            mon = Monomial._make(alphas, betas, _key_mul(m1.bexp, m2.bexp), m1.bdeg + m2.bdeg)
            d = d1 * p2.den
            entry = acc.get(mon)
            if entry is None:
                out = {}
                acc[mon] = [d, out]
            else:
                den, out = entry
                if den % d:
                    # raise the running denominator to lcm(den, d)
                    r = d // gcd(den, d)
                    for k in out:
                        out[k] *= r
                    den *= r
                    entry[0] = den
                s *= den // d
            t2 = p2.num.items()
            for k1, c1 in t1:
                if s != 1:
                    c1 = -c1 if s == -1 else s * c1
                for k2, c2 in t2:
                    k = _key_mul(k1, k2)
                    v = c1 * c2
                    old = out.get(k)
                    out[k] = v if old is None else old + v


def _unit(elem):
    """The terms of an element as kernel y-terms with factor one."""
    return [(m, p, 1) for m, p in elem.terms.items()]


def _seed(elem):
    """A kernel accumulator already holding elem, for further _mac calls."""
    return {m: [p.den, dict(p.num)] for m, p in elem.terms.items()}


def _finish(acc):
    """The element held by a kernel accumulator; zero entries are dropped."""
    out = {}
    for m, (den, t) in acc.items():
        num = {k: v for k, v in t.items() if v}
        if num:
            out[m] = _canonical(num, den)
    return GradedElement(out)


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
        acc = {}
        _mac(acc, self.terms.items(), _unit(other), 1, _INF if upto is None else upto)
        return _finish(acc)

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
# bidegree (p, q) of each generator kind, in listing order; its degree is p + q
_GEN_PQ = {GEN_X: (0, 0), GEN_ALPHA: (1, 0), GEN_BETA: (0, 1), GEN_B: (0, 0)}
_GEN_RANK = {kind: r for r, kind in enumerate(_GEN_PQ)}


def l_generator(i: int, s: int):
    """The odd generator (kind, index) dual to the L-index i of a chart with rank(B) = s.

    L-indices 0..s-1 are the B directions (beta i), the rest the A
    directions (alpha i - s).
    """
    return (GEN_BETA, i) if i < s else (GEN_ALPHA, i - s)


def _gen_order(gen):
    return _GEN_RANK[gen[0]], gen[1]


class Derivation:
    """A graded derivation given by its values on the chart generators.

    vals maps a generator (kind, index), kind one of GEN_X, GEN_ALPHA,
    GEN_BETA, GEN_B, to its nonzero value.  Application to a general
    element is sum_g D(g) * d_g (module docstring).  Values must be
    homogeneous of degree deg(generator) + deg(D); zero values are
    dropped.
    """

    __slots__ = ("degree", "vals")

    def __init__(self, degree, vals=None):
        self.degree = degree
        self.vals = {g: v for g, v in (vals or {}).items() if v}
        for (kind, i), v in self.vals.items():
            if kind not in _GEN_PQ:
                raise ValueError(f"unknown generator kind {kind!r}")
            want = sum(_GEN_PQ[kind]) + degree
            if v.degree() != want:
                raise ValueError(f"value on {kind}{i+1} has degree {v.degree()}, expected {want}")

    @classmethod
    def _make(cls, degree, vals):
        """Unchecked constructor: vals holds no zero and has the right degrees."""
        d = _new(cls)
        d.degree, d.vals = degree, vals
        return d

    def value(self, kind, i) -> GradedElement:
        return self.vals.get((kind, i), GradedElement.zero())

    def __bool__(self):
        return bool(self.vals)

    def is_zero(self) -> bool:
        return not self.vals

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.vals == other.vals and (self.degree == other.degree or not self.vals)

    # -- linear structure ----------------------------------------------
    def __add__(self, other):
        if self.degree != other.degree and self.vals and other.vals:
            raise ValueError("cannot add derivations of different degrees")
        vals = dict(self.vals)
        for g, v in other.vals.items():
            _acc(vals, g, v)
        return Derivation._make(self.degree if self.vals else other.degree, vals)

    def __neg__(self):
        return Derivation._make(self.degree, {g: -v for g, v in self.vals.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Derivation":
        vals = {g: w for g, v in self.vals.items() if (w := v.scale(c))}
        return Derivation._make(self.degree, vals)

    # -- action ----------------------------------------------------------
    def _act(self, acc, elem, sign, limit):
        """acc += sign * D(elem) through fiber degree limit, as sum_g D(g) * d_g elem."""
        vals = self.vals
        xs = [i for kind, i in vals if kind == GEN_X]
        parts = {}  # generator -> terms of the left partial
        for mon, coeff in elem.terms.items():
            # d_b lowers fiber degree by one, every other partial keeps it
            r = mon.bdeg
            if r > limit + 1:
                continue
            al, be, bx = mon.alphas, mon.betas, mon.bexp
            for j in xs:
                dc = coeff.diff(j)
                if dc:
                    parts.setdefault((GEN_X, j), []).append((mon, dc, 1))
            for pos, i in enumerate(al):
                g = (GEN_ALPHA, i)
                if g in vals:
                    rest = Monomial._make(al[:pos] + al[pos + 1:], be, bx, r)
                    parts.setdefault(g, []).append((rest, coeff, -1 if pos & 1 else 1))
            for pos, i in enumerate(be):
                g = (GEN_BETA, i)
                if g in vals:
                    rest = Monomial._make(al, be[:pos] + be[pos + 1:], bx, r)
                    odd = (len(al) + pos) & 1
                    parts.setdefault(g, []).append((rest, coeff, -1 if odd else 1))
            for slot, (i, e) in enumerate(bx):
                g = (GEN_B, i)
                if g in vals:
                    nb = bx[:slot] + ((i, e - 1),) * (e > 1) + bx[slot + 1:]
                    parts.setdefault(g, []).append((Monomial._make(al, be, nb, r - 1), coeff, e))
        for g, ys in parts.items():
            _mac(acc, vals[g].terms.items(), ys, sign, limit)

    def apply(self, elem: GradedElement, upto=None) -> GradedElement:
        """Extend to the whole algebra as sum_g D(g) * d_g (module docstring).

        With upto, only fiber degrees <= upto are formed.
        """
        acc = {}
        self._act(acc, elem, 1, _INF if upto is None else upto)
        return _finish(acc)

    def commutator(self, other: "Derivation", upto=None) -> "Derivation":
        """[D1, D2] = D1 D2 - (-1)^(deg1*deg2) D2 D1, evaluated on generators.

        With upto, the values on b generators keep fiber degrees <= upto;
        the values on x, alpha and beta are always exact.  The values
        are listed in generator order (x, alpha, beta, b; index ascending).
        """
        sign = -1 if (self.degree & 1) and (other.degree & 1) else 1
        mine, theirs = self.vals, other.vals
        vals = {}
        for g in sorted(mine.keys() | theirs.keys(), key=_gen_order):
            limit = upto if g[0] == GEN_B and upto is not None else _INF
            acc = {}
            if g in theirs:
                self._act(acc, theirs[g], 1, limit)
            if g in mine:
                other._act(acc, mine[g], -sign, limit)
            v = _finish(acc)
            if v:
                vals[g] = v
        return Derivation._make(self.degree + other.degree, vals)

    def bidegree_part(self, dp: int, dq: int) -> "Derivation":
        """The component shifting bidegree by exactly (dp, dq)."""
        vals = {}
        for (kind, i), v in self.vals.items():
            p, q = _GEN_PQ[kind]
            if w := v.part(p=p + dp, q=q + dq):
                vals[kind, i] = w
        return Derivation._make(self.degree, vals)

    def __repr__(self):
        gens = sorted(self.vals, key=_gen_order)
        vals = "; ".join(f"{kind}{i+1} -> {self.vals[kind, i]!r}" for kind, i in gens)
        return f"Derivation(deg={self.degree}, {vals})"
