"""Functions on the graded manifold underlying a Lie pair chart.

Coordinates: base variables x1..xn (degree 0), odd fiber coordinates
alpha1..alphat and beta1..betas (degree 1), and even formal fiber
coordinates b1..bs (degree 0).  A function is a finite sum of terms
c * x^k * alpha_{i1}...alpha_{ip} * beta_{j1}...beta_{jq} * b^e with c
rational and all alphas (ascending) before all betas (ascending); this
fixed order pins every Koszul sign.  Indices are 0-based.  A monomial
has bidegree (p, q) = (#alphas, #betas), fiber degree the total
b-exponent and (total) degree p + q.

Keys.  A fiber monomial is one int (Monomial, an int subclass): bits 0-7
hold the fiber degree, alpha i is bit 8 + i, beta j bit 40 + j, and the
exponent of b^k the 8-bit field at bit 72 + 8k.  A base monomial x^k is
the packed key of poly.py (fields, guard and MAX_EXP in its docstring).
Indices stay below MAX_INDEX = 32 and the fiber degree at most MAX_FIBER
= 255 (ValueError beyond).  A product with no repeated odd generator has
the sum of the keys as its key; _finish tests the base guard bits once.
The unit monomials are 0.  Every Koszul sign is one of two rules: a
product m1 m2 carries (-1) to the number of pairs of odd generators x of
m1 and y of m2 with x above y; taking an odd generator out of a monomial
or putting one in carries (-1) to the number of its odd generators below
the slot.

The store.  An element is one denominator den and integer numerators
num = {Monomial: {base key: int}}, kept canonical: no zero numerator, no
empty inner dict, den >= 1, gcd(den, *numerators) == 1 and den == 1 for
zero, so equality compares (den, num).  Inner dicts are in the format of
Poly.num and never change once stored: GradedElement({Monomial: Poly}),
from_poly, scale and terms share Poly numerators, or rescale to the lcm.

A derivation is one map vals from generators (kind, index), kind x,
alpha, beta or b, to nonzero values, and acts as D(f) = sum_g D(g) * d_g f
with d_g the left partial derivative: write f = +-g * rest by moving g
to the front, then d_g f = +-rest, the second sign rule for odd g; d_x
and d_b bring down the exponent in their field.  The graded commutator
of two derivations is evaluated on generators only.  The public
constructors Monomial() and Derivation() check invariants; results built
here go through the unchecked _make.

The kernel.  Every product of terms goes through _mac: it adds
sign * f * (t1 / d1) * (t2 / d2) into an accumulator [den, {key: {base
key: int}}] over the x-terms of an operand (x-terms, d1, scalar view)
and the y-terms (m2, t2, f) over d2, f an integer factor.  _operand
builds an element's x-terms once, in ascending fiber degree, each with
the flip mask that makes the sign of a pair one bit count.  Sign and
fiber budget are settled once per pair of fiber monomials, and the inner
loop is int multiply-adds keyed by k1 + k2.  When every coefficient of
the operand is a constant (base key 0 alone), _operand also keeps its
scalar view, x-terms (m, flip, c); when that view exists and every
y-term is a constant too, checked per call, _mac takes the scalar lane:
one int multiply-add per pair into store[key][0], with the same signs,
budget breaks and MAX_FIBER raise.  Charts over a point meet only this
lane.  The accumulator's denominator is raised to the lcm only when
d1 d2 does not divide it; _finish drops zeros and divides the whole
result by one gcd (a caller that reduces later may skip it).  mul is one
_mac call, apply one per generator g (d_g is injective on terms), and
commutator puts both halves of a value, with the sign folded in, into
one accumulator (one nothing was added to is zero, and skips _finish).
The two halves of the self-bracket [D, D] of an odd D are equal, so it
forms D(D(g)) once with the factor 2 (even D keeps both halves, which
cancel).  A derivation's plan, formed on first use, holds every value
D(g) as an operand.  The carriers (hom_bracket, the transgression
route, the frame lift) multiply through _contract, which adds
sign * F * e to the accumulator of key for each move (key, F, sign), F
an operand; _collect returns the nonzero results by key.  The rows
[D, d/db^k] they read are kept on D too, once, exact
(sections._frame_rows, slot _rows); a budget ends the loops of _mac
over them.  So are D's bidegree parts (bidegree_parts): a derivation's
plan, rows and bidegree parts are each formed once.

Fiber-degree budget.  mul, apply and commutator take an optional upto
and form no pair whose fiber degrees add up to more than upto; fiber
degrees are never negative, so x.mul(y, upto) == (x * y).truncate(upto)
and d.apply(x, upto) == d.apply(x).truncate(upto).  The budget ends the
kernel's loops instead of filtering inside them, as in the truncated
products of Monagan and Pearce (CASC 2007): x-terms ascend in fiber
degree, and under a finite budget so do the y-terms (mul and apply sort
them; _contract drops those over the budget and sorts the rest, once per
call).  So _mac leaves an x-term's row at the first y-term past the room
that x-term leaves, and the whole loop at the first x-term past the
budget.  In a row, a pair within the budget but past MAX_FIBER comes
before every pair over the budget, so it still raises.  apply takes d_b
alone of a term one past the budget: it is the one partial that lowers
fiber degree.  commutator windows only its values on the b generators;
those on x, alpha and beta stay exact, because callers test them for
exact vanishing.  A derivation whose value on some b has fiber degree
zero (the -delta in D = nabla - delta + X) lowers fiber degree by one,
so an element that a caller truncates before applying it with budget
upto must be kept through upto + 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

from .expressions import element_str
from .poly import _FIELD, _GUARD, _W, MAX_EXP, MAX_VARS, Poly, _View, _canonical, _new


GEN_X, GEN_ALPHA, GEN_BETA, GEN_B = "x", "alpha", "beta", "b"
MAX_INDEX, MAX_FIBER = 32, 255
_ALPHA0, _BETA0, _B0 = 8, 8 + MAX_INDEX, 8 + 2 * MAX_INDEX  # (module docstring)
_IDX = (1 << MAX_INDEX) - 1
_ALPHAS, _BETAS = _IDX << _ALPHA0, _IDX << _BETA0
_ODD = _ALPHAS | _BETAS


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
    p = property(lambda self: (self & _ALPHAS).bit_count())
    q = property(lambda self: (self & _BETAS).bit_count())
    degree = property(lambda self: (self & _ODD).bit_count())

    @property
    def bexp(self):
        out, rest, k = [], self >> _B0, 0  # each nonzero 8-bit field is one b-power
        while rest:
            if e := rest & 255:
                out.append((k, e))
            rest, k = rest >> 8, k + 1
        return tuple(out)

    def __reduce__(self):  # copy and pickle rebuild from the parts
        return Monomial, (self.alphas, self.betas, self.bexp)

    def __repr__(self):
        return f"Monomial({self.alphas}, {self.betas}, {self.bexp})"


_ONE_MON = Monomial()
_INF = float("inf")


def _acc(store, key, value):
    """store[key] += value, dropping a zero sum."""
    if s := store[key] + value if key in store else value:
        store[key] = s
    else:
        store.pop(key, None)


def _fiber(term):
    """The fiber degree of a kernel term, which holds its monomial first."""
    return term[0] & MAX_FIBER


def _operand(e):
    """e as the kernel's left operand (x-terms, den, scalar x-terms), x-terms by fiber degree.

    An x-term is (m, flip, inner dict), flip the odd slots with an odd
    number of odd bits of m above them.  The scalar x-terms are the same
    terms as (m, flip, c) when every inner dict is a constant {0: c}, else
    None: the view _mac's scalar lane reads.
    """
    xs = []
    for m, t in sorted(e.num.items(), key=_fiber):
        flip = (m & _ODD) >> (_ALPHA0 + 1)
        for shift in (1, 2, 4, 8, 16, 32):
            flip ^= flip >> shift
        xs.append((m, flip << _ALPHA0, t))
    scalar = [(m, flip, t[0]) for m, flip, t in xs if len(t) == 1 and 0 in t]
    return xs, e.den, scalar if len(scalar) == len(xs) else None


def _mac(acc, x, ys, d2, sign, limit):
    """acc += sign * f * (t1 / d1) * (t2 / d2) over the x-terms of x (_operand) and ys (m2, t2, f).

    Only pairs with fiber degree sum <= limit are formed; one within limit
    past MAX_FIBER raises ValueError.  acc is [den, {key: {base key: int}}].
    Precondition: the x-terms are sorted by fiber degree (_operand) always,
    and ys are whenever limit is finite, so the first pair over limit ends
    its loop (module docstring); with no limit ys may come in any order.
    When x has scalar x-terms and every t2 is a constant, the pairs are
    formed in the scalar lane, one int multiply-add each, into the same
    accumulator.
    """
    xs, d1, scalar = x
    d = d1 * d2
    den, store = acc
    if den % d:
        # raise the running denominator to lcm(den, d)
        r = d // gcd(den, d)
        for t in store.values():
            for k in t:
                t[k] *= r
        acc[0] = den = den * r
    sign *= den // d
    cap = limit if limit < MAX_FIBER else MAX_FIBER
    if scalar is not None:
        sy = []  # (m2, its fiber degree, f * c2) while every t2 is {0: c2}
        for m2, t2, f in ys:
            if len(t2) != 1 or 0 not in t2:
                break
            sy.append((m2, m2 & MAX_FIBER, f * t2[0]))
        else:
            for m1, flip, c1 in scalar:
                r1 = m1 & MAX_FIBER
                room = cap - r1
                if room < 0:
                    break
                o1 = m1 & _ODD
                c1 *= sign
                for m2, r2, c2 in sy:
                    if r2 > room:
                        if r2 > limit - r1:
                            break
                        raise ValueError(f"a product passes fiber degree {MAX_FIBER}")
                    if m2 & o1:
                        continue
                    v = -c1 * c2 if (m2 & flip).bit_count() & 1 else c1 * c2
                    mon = m1 + m2
                    out = store.get(mon)
                    if out is None:
                        store[mon] = {0: v}
                    else:
                        out[0] = out.get(0, 0) + v
            return
    for m1, flip, t1 in xs:
        r1 = m1 & MAX_FIBER
        room = cap - r1
        if room < 0:
            break
        o1 = m1 & _ODD
        t1 = t1.items()
        for m2, t2, f in ys:
            if (m2 & MAX_FIBER) > room:
                if (m2 & MAX_FIBER) > limit - r1:
                    break
                raise ValueError(f"a product passes fiber degree {MAX_FIBER}")
            if m2 & o1:
                continue
            s = -sign * f if (m2 & flip).bit_count() & 1 else sign * f
            mon = m1 + m2
            out = store.get(mon)
            if out is None:
                out = store[mon] = {}
            t2 = t2.items()
            for k1, c1 in t1:
                if s != 1:
                    c1 = -c1 if s == -1 else s * c1
                for k2, c2 in t2:
                    k = k1 + k2
                    out[k] = out.get(k, 0) + c1 * c2


def _kept(store):
    """The nonzero inner dicts of a store {key: {base key: int}}, keys wrapped as Monomials once."""
    num, wrap = {}, int.__new__
    for m, t in store.items():
        if 0 in t.values():  # inner dicts start with a term, so only sums empty them
            t = {k: v for k, v in t.items() if v}
            if not t:
                continue
        num[wrap(Monomial, m)] = t
    return num


def _finish(acc, canonical=True):
    """The element held by a kernel accumulator; not canonical, it is not divided by its gcd."""
    num = _kept(acc[1])
    if num and reduce(or_, chain.from_iterable(num.values())) & _GUARD:
        raise ValueError(f"a product passes base exponent {MAX_EXP}")
    if not canonical:  # for a caller that divides it by its gcd later
        return GradedElement._make(num, acc[0])
    return _reduced(num, acc[0])


def _contract(accs, e, moves, limit):
    """accs[key] += sign * F * e for each (key, F, sign) of moves, through fiber degree limit.

    F is a kernel operand (_operand); accs maps keys to kernel
    accumulators, made on first use.  e's terms are built once: those
    within limit, by fiber degree."""
    ys = sorted(((m, t, 1) for m, t in e.num.items() if m & MAX_FIBER <= limit), key=_fiber)
    for key, f, sign in moves:
        _mac(accs.setdefault(key, [1, {}]), f, ys, e.den, sign, limit)


def _collect(accs, canonical=True):
    """The nonzero elements held by a dict of kernel accumulators, by key (canonical as _finish)."""
    return {key: v for key, t in accs.items() if (v := _finish(t, canonical))}


def _reduced(num, den):
    """The element num / den, num holding no zero, divided by one gcd."""
    g = den
    for t in num.values():
        if g == 1:
            break
        g = gcd(g, *t.values())
    if g != 1:
        den //= g
        num = {m: {k: v // g for k, v in t.items()} for m, t in num.items()}
    e = _new(GradedElement)
    e.num, e.den = num, den
    return e


def _sum(a, b, sign):
    """a + sign * b in one pass; the inner dicts of a and b are never changed."""
    g = gcd(a.den, b.den)
    r1, r2 = b.den // g, a.den // g * sign
    num = {m: {k: v * r1 for k, v in t.items()} for m, t in a.num.items()} if r1 > 1 else dict(a.num)
    for m, t in b.num.items():
        cur = num.get(m)
        if cur is None:
            num[m] = t if r2 == 1 else {k: v * r2 for k, v in t.items()}
            continue
        num[m] = cur = dict(cur)
        for k, v in t.items():
            if v := cur.get(k, 0) + v * r2:
                cur[k] = v
            else:
                del cur[k]
        if not cur:
            del num[m]
    return _reduced(num, a.den * r1)


class GradedElement:
    """A function on the graded manifold, stored as num / den (module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        # the Poly boundary; canonical Polys over their lcm leave no common factor
        for m, c in (terms := terms or {}).items():
            if not (isinstance(m, Monomial) and isinstance(c, Poly)):
                raise TypeError(f"a term must be Monomial: Poly, got {m!r}: {c!r}")
        polys = [(m, c) for m, c in terms.items() if c]
        self.den = den = lcm(*(c.den for _, c in polys))
        self.num = {m: c.num if c.den == den else {k: v * (den // c.den) for k, v in c.num.items()}
                    for m, c in polys}

    @classmethod
    def _make(cls, num, den):
        """Unchecked constructor: num / den is already canonical (or is reduced later, _finish)."""
        e = _new(cls)
        e.num, e.den = num, den
        return e

    @property
    def terms(self):
        """The coefficients as a read-only {Monomial: Poly} mapping."""
        return _View(self.num, lambda t: _canonical(t, self.den))

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_poly(cls, p: Poly) -> "GradedElement":
        return cls({_ONE_MON: p})

    @classmethod
    def scalar(cls, c) -> "GradedElement":
        return cls.from_poly(Poly.const(c))

    @classmethod
    def one(cls):
        return cls._make({_ONE_MON: {0: 1}}, 1)

    @classmethod
    def xvar(cls, i: int) -> "GradedElement":
        return cls.from_poly(Poly.variable(i))

    @classmethod
    def alpha(cls, i: int) -> "GradedElement":
        return cls._make({Monomial((i,), (), ()): {0: 1}}, 1)

    @classmethod
    def beta(cls, i: int) -> "GradedElement":
        return cls._make({Monomial((), (i,), ()): {0: 1}}, 1)

    @classmethod
    def bvar(cls, i: int) -> "GradedElement":
        return cls._make({Monomial((), (), ((i, 1),)): {0: 1}}, 1)

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if isinstance(other, GradedElement):
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self):
        raise TypeError("GradedElement is unhashable")

    def degrees(self):
        return {m.degree for m in self.num}

    def degree(self):
        """Common total degree, None for zero; raises on mixed degrees."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop() if degs else None

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return _sum(self, other, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __neg__(self):
        num = {m: {k: -v for k, v in t.items()} for m, t in self.num.items()}
        return GradedElement._make(num, self.den)

    def scale(self, c) -> "GradedElement":
        """Multiply by a rational or a base polynomial (both central, even)."""
        if not isinstance(c, (int, Fraction, Poly)):
            raise TypeError(type(c))
        if not c:
            return GradedElement()
        if not isinstance(c, Poly):
            num = {m: {k: v * c.numerator for k, v in t.items()} for m, t in self.num.items()}
            return _reduced(num, self.den * c.denominator)
        acc = [1, {}]
        _mac(acc, _operand(self), [(0, c.num, 1)], c.den, 1, _INF)
        return _finish(acc)

    def __mul__(self, other):
        return self.mul(other) if isinstance(other, GradedElement) else self.scale(other)

    __rmul__ = scale  # rationals and base polynomials are central and even

    def mul(self, other: "GradedElement", upto=None) -> "GradedElement":
        """Graded product, keeping only fiber degrees <= upto when given."""
        acc, ys = [1, {}], [(m, t, 1) for m, t in other.num.items()]
        if upto is None:
            upto = _INF
        else:
            ys.sort(key=_fiber)
        _mac(acc, _operand(self), ys, other.den, 1, upto)
        return _finish(acc)

    # -- projections by masks on the monomial keys ---------------------
    def _keep(self, mons):
        if len(mons) == len(self.num):
            return self
        return _reduced({m: self.num[m] for m in mons}, self.den)

    def part(self, p=None, q=None, r=None) -> "GradedElement":
        """Bidegree / fiber-degree slice; None entries match anything."""
        mons = list(self.num)
        if r is not None:
            mons = [m for m in mons if m & MAX_FIBER == r]
        for want, mask in ((p, _ALPHAS), (q, _BETAS)):
            if want is not None:
                mons = [m for m in mons if (m & mask).bit_count() == want]
        return self._keep(mons)

    def truncate(self, n: int) -> "GradedElement":
        """Drop monomials of fiber degree greater than n."""
        return self._keep([m for m in self.num if m & MAX_FIBER <= n])

    def __repr__(self):
        return f"<{element_str(self)}>"


# bidegree (p, q) of each generator kind, in listing order; its degree is p + q
_GEN_PQ = {GEN_X: (0, 0), GEN_ALPHA: (1, 0), GEN_BETA: (0, 1), GEN_B: (0, 0)}
_GEN_RANK = {kind: r for r, kind in enumerate(_GEN_PQ)}


def l_generator(i: int, s: int):
    """The odd generator dual to L-index i, rank(B) = s: beta i for i < s, else alpha i - s."""
    return (GEN_BETA, i) if i < s else (GEN_ALPHA, i - s)


def _gen_order(gen):
    return _GEN_RANK[gen[0]], gen[1]


class Derivation:
    """A graded derivation by its values on the generators (module docstring).

    vals maps (kind, index), kind GEN_X, GEN_ALPHA, GEN_BETA or GEN_B, to a
    value of degree deg(generator) + deg(D); zero values are dropped.
    """

    __slots__ = ("degree", "vals", "_plan", "_rows", "_parts")

    def __init__(self, degree, vals=None):
        self.degree, self._plan, self._rows, self._parts = degree, None, None, None
        self.vals = {g: v for g, v in (vals or {}).items() if v}
        for (kind, i), v in self.vals.items():
            if kind not in _GEN_PQ:
                raise ValueError(f"unknown generator kind {kind!r}")
            if not isinstance(v, GradedElement):
                raise TypeError(f"value on {kind}{i + 1} is not a GradedElement: {v!r}")
            bound = MAX_VARS if kind == GEN_X else MAX_INDEX
            if not 0 <= i < bound:
                raise ValueError(f"{kind} index {i} is not in 0..{bound - 1}")
            want = sum(_GEN_PQ[kind]) + degree
            if v.degree() != want:
                raise ValueError(f"value on {kind}{i+1} has degree {v.degree()}, expected {want}")

    @classmethod
    def _make(cls, degree, vals):
        """Unchecked constructor: vals holds no zero and has the right degrees."""
        d = _new(cls)
        d.degree, d.vals, d._plan, d._rows, d._parts = degree, vals, None, None, None
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
        """acc += sign * D(elem) through fiber degree limit, as sum_g D(g) * d_g elem.

        Under a finite limit the terms of elem are taken by fiber degree, so
        each partial's y-terms come sorted for _mac.
        """
        if self._plan is None:  # the generators by kind and each D(g) as an operand, once
            vals = self.vals    # (vals never change)
            self._plan = ([(i, _W * i) for kind, i in vals if kind == GEN_X],
                          [(g, _odd_bit(*g)) for g in vals if g[0] in (GEN_ALPHA, GEN_BETA)],
                          [(g, _B0 + 8 * g[1], _b_unit(g[1])) for g in vals if g[0] == GEN_B],
                          {g: _operand(v) for g, v in vals.items()})
        xs, odd, bs, ops = self._plan
        parts = {}  # generator -> terms of the left partial
        terms = elem.num.items() if limit == _INF else sorted(elem.num.items(), key=_fiber)
        for mon, t in terms:
            # d_b lowers fiber degree by one, every other partial keeps it, so
            # a term one past limit comes within it through d_b alone
            over = (mon & MAX_FIBER) - limit
            if over > 1:
                break
            if over < 1:
                for j, at in xs:
                    # d_x_j by the rule of poly.py: e from the field of x_j, key - unit_j
                    unit = 1 << at
                    dt = {k - unit: e * c for k, c in t.items() if (e := k >> at & _FIELD)}
                    if dt:
                        parts.setdefault((GEN_X, j), []).append((mon, dt, 1))
                for g, bit in odd:
                    if mon & bit:
                        parts.setdefault(g, []).append((mon ^ bit, t, _below_sign(mon, bit)))
            for g, at, unit in bs:
                e = (mon >> at) & 255
                if e:
                    parts.setdefault(g, []).append((mon - unit, t, e))
        for g, ys in parts.items():
            _mac(acc, ops[g], ys, elem.den, sign, limit)

    def apply(self, elem: GradedElement, upto=None) -> GradedElement:
        """sum_g D(g) * d_g elem (module docstring), through fiber degree upto if given."""
        acc = [1, {}]
        self._act(acc, elem, 1, _INF if upto is None else upto)
        return _finish(acc)

    def commutator(self, other: "Derivation", upto=None) -> "Derivation":
        """[D1, D2] = D1 D2 - (-1)^(deg1*deg2) D2 D1 on the generators, in generator order.

        With upto, only the values on b generators are cut to fiber degree <= upto.
        For an odd D, [D, D] = 2 D D is formed as one action with factor 2.
        """
        sign = -1 if (self.degree & 1) and (other.degree & 1) else 1
        twice = other is self and sign == -1
        mine, theirs = self.vals, other.vals
        vals = {}
        for g in sorted(mine.keys() | theirs.keys(), key=_gen_order):
            limit = upto if g[0] == GEN_B and upto is not None else _INF
            acc = [1, {}]
            if g in theirs:
                self._act(acc, theirs[g], 2 if twice else 1, limit)
            if g in mine and not twice:
                other._act(acc, mine[g], -sign, limit)
            # nothing added, as on most x, alpha, beta of a vertical bracket: zero
            if acc[1] and (v := _finish(acc)):
                vals[g] = v
        return Derivation._make(self.degree + other.degree, vals)

    def bidegree_parts(self) -> dict:
        """{(dp, dq): the nonzero component shifting bidegree by (dp, dq)}, formed once, shared."""
        if self._parts is None:  # one pass over the values; vals never change
            split = {}  # shift -> generator -> the terms of its value there
            for g, v in self.vals.items():
                p, q = _GEN_PQ[g[0]]
                for m, t in v.num.items():
                    shift = (m & _ALPHAS).bit_count() - p, (m & _BETAS).bit_count() - q
                    split.setdefault(shift, {}).setdefault(g, {})[m] = t
            self._parts = {shift: Derivation._make(self.degree, {
                g: _reduced(num, self.vals[g].den) for g, num in part.items()})
                for shift, part in split.items()}
        return self._parts

    def bidegree_part(self, dp: int, dq: int) -> "Derivation":
        """The component shifting bidegree by exactly (dp, dq); zero if there is none."""
        return self.bidegree_parts().get((dp, dq)) or Derivation._make(self.degree, {})

    def __repr__(self):
        gens = sorted(self.vals, key=_gen_order)
        vals = "; ".join(f"{kind}{i+1} -> {self.vals[kind, i]!r}" for kind, i in gens)
        return f"Derivation(deg={self.degree}, {vals})"
