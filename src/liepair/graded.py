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

A monomial is one int (Monomial, an int subclass), and only this module
knows its layout: bits 0-7 hold the fiber degree, alpha i is bit 8 + i,
beta j bit 40 + j, and the exponent of b^k the 8-bit field at bit
72 + 8k.  Ascending bits are the canonical order, and a product with no
repeated odd generator has the sum of the keys as its key.  Indices stay
below MAX_INDEX = 32 and the fiber degree at most MAX_FIBER = 255
(ValueError beyond).  The unit monomial is 0, so no code tests a key for
truth.  Every Koszul sign is one of two rules: a product m1 m2 carries
(-1) to the number of pairs of odd generators x of m1 and y of m2 with x
above y; taking an odd generator out of a monomial or putting one in
carries (-1) to the number of its odd generators below the slot.

A derivation is stored as one map vals from generators (kind, index),
kind x, alpha, beta or b, to nonzero values.  A derivation of a free
graded-commutative algebra is fixed by them, so it acts as

    D(f) = sum_g D(g) * d_g f

with d_g the left partial derivative: write f = +-g * rest by moving g
to the front, then d_g f = +-rest, the second sign rule for odd g.
d_x is the coefficient derivative and d_b carries the exponent of b.
The graded commutator of two derivations is again a derivation and is
evaluated on generators only.  The public constructors Monomial() and
Derivation() check invariants; derivations built here go through the
unchecked Derivation._make.

Every product of terms goes through one kernel, _mac: it adds
sign * f * p1 * p2 into a plain {key: [den, {exponent key: int}]}
accumulator over term pairs (m1, p1), (m2, p2, f), with keys plain ints;
_finish wraps each kept key as a Monomial once and builds each
coefficient (normalized once, see poly.py) and the element once.
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


GEN_X, GEN_ALPHA, GEN_BETA, GEN_B = "x", "alpha", "beta", "b"
MAX_INDEX, MAX_FIBER = 32, 255
_ALPHA0, _BETA0, _B0 = 8, 8 + MAX_INDEX, 8 + 2 * MAX_INDEX  # (module docstring)
_IDX = (1 << MAX_INDEX) - 1
_ODD = ((1 << (2 * MAX_INDEX)) - 1) << _ALPHA0


def _odd_bit(kind, i):
    return 1 << ((_ALPHA0 if kind == GEN_ALPHA else _BETA0) + i)


def _b_unit(i):
    """The key of b^i alone: exponent 1 in its field, fiber degree 1."""
    return (1 << (_B0 + 8 * i)) | 1


def _below_sign(mon, bit):
    """(-1)^(number of odd generators of mon below the odd slot bit)."""
    return -1 if ((mon & (bit - 1)) >> _ALPHA0).bit_count() & 1 else 1


def _indices(mask):
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Monomial(int):
    """Immutable product of odd generators and b-powers (coefficient excluded).

    The packed key (module docstring), read as alphas and betas (strictly
    increasing index tuples) and bexp ((index, exponent) pairs, indices
    strictly increasing, exponents positive).
    """

    __slots__ = ()

    def __new__(cls, alphas=(), betas=(), bexp=()):
        key = bdeg = 0
        for what, idx, at in (("alpha", alphas, _ALPHA0), ("beta", betas, _BETA0)):
            last = -1
            for i in idx:
                if not last < i < MAX_INDEX:
                    raise ValueError(f"{what} indices must increase strictly in 0..{MAX_INDEX - 1}")
                key, last = key | 1 << (at + i), i
        last = -1
        for i, e in bexp:
            if e <= 0 or not last < i < MAX_INDEX:
                raise ValueError(f"b part {(i, e)}: need {last} < i < {MAX_INDEX} and e > 0")
            key, last, bdeg = key | e << (_B0 + 8 * i), i, bdeg + e
        if bdeg > MAX_FIBER:
            raise ValueError(f"fiber degree {bdeg} is over {MAX_FIBER}")
        return int.__new__(cls, key | bdeg)

    alphas = property(lambda self: _indices((self >> _ALPHA0) & _IDX))
    betas = property(lambda self: _indices((self >> _BETA0) & _IDX))
    bdeg = property(lambda self: self & MAX_FIBER)
    p = property(lambda self: ((self >> _ALPHA0) & _IDX).bit_count())
    q = property(lambda self: ((self >> _BETA0) & _IDX).bit_count())
    degree = property(lambda self: (self & _ODD).bit_count())

    @property
    def bexp(self):
        rest = self >> _B0  # each nonzero 8-bit field is one b-power
        return tuple((k, rest >> 8 * k & 255) for k in dict.fromkeys(i >> 3 for i in _indices(rest)))

    def __reduce__(self):  # copy and pickle rebuild from the parts
        return Monomial, (self.alphas, self.betas, self.bexp)

    def sort_key(self):
        return (self.alphas, self.betas, self.bexp)

    def __repr__(self):
        return f"Monomial({self.alphas}, {self.betas}, {self.bexp})"


_ONE_MON = Monomial()


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
    factor; only pairs with fiber degree sum <= limit are formed, and a
    pair within limit whose sum passes MAX_FIBER raises ValueError.
    acc maps key -> [den, {exponent key: int numerator}] (module
    docstring); _finish reads it out.
    """
    cap = limit if limit < MAX_FIBER else MAX_FIBER
    for m1, p1 in xs:
        r1 = m1 & MAX_FIBER
        room = cap - r1
        if room < 0:
            continue
        o1 = m1 & _ODD
        # flip: the odd slots with an odd number of odd bits of m1 above
        flip = o1 >> (_ALPHA0 + 1)
        for shift in (1, 2, 4, 8, 16, 32):
            flip ^= flip >> shift
        flip <<= _ALPHA0
        t1 = p1.num.items()
        d1 = p1.den
        for m2, p2, f in ys:
            if (m2 & MAX_FIBER) > room:
                if (m2 & MAX_FIBER) > limit - r1:
                    continue
                raise ValueError(f"a product passes fiber degree {MAX_FIBER}")
            if m2 & o1:
                continue
            s = -sign * f if (m2 & flip).bit_count() & 1 else sign * f
            mon = m1 + m2
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


def _finish(acc):
    """The element held by a kernel accumulator; zero entries are dropped.

    Each kept key is wrapped as a Monomial here, once.
    """
    out = {}
    for m, (den, t) in acc.items():
        num = {k: v for k, v in t.items() if v}
        if num:
            out[int.__new__(Monomial, m)] = _canonical(num, den)
    return GradedElement._make(out)


class GradedElement:
    """A function on the graded manifold: mapping Monomial -> Poly coefficient.

    Supports graded-commutative multiplication with Koszul signs; the
    canonical stored form is unique, so equality is dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _make(cls, terms):
        """Unchecked constructor: terms holds no zero coefficient."""
        e = _new(cls)
        e.terms = terms
        return e

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
        return GradedElement._make({m: -c for m, c in self.terms.items()})

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
        return GradedElement._make(
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
            if kind != GEN_X and not 0 <= i < MAX_INDEX:
                raise ValueError(f"{kind} index {i} is not in 0..{MAX_INDEX - 1}")
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
        gens = sorted(vals, key=_gen_order)
        odd = [(g, _odd_bit(*g)) for g in gens if g[0] in (GEN_ALPHA, GEN_BETA)]
        bs = [(g, _B0 + 8 * g[1], _b_unit(g[1])) for g in gens if g[0] == GEN_B]
        parts = {}  # generator -> terms of the left partial
        for mon, coeff in elem.terms.items():
            # d_b lowers fiber degree by one, every other partial keeps it
            if (mon & MAX_FIBER) > limit + 1:
                continue
            for j in xs:
                dc = coeff.diff(j)
                if dc:
                    parts.setdefault((GEN_X, j), []).append((mon, dc, 1))
            for g, bit in odd:
                if mon & bit:
                    parts.setdefault(g, []).append((mon ^ bit, coeff, _below_sign(mon, bit)))
            for g, at, unit in bs:
                e = (mon >> at) & 255
                if e:
                    parts.setdefault(g, []).append((mon - unit, coeff, e))
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
