"""Vertical vector fields and Hom-valued tensors over the graded chart.

A DSection is a vertical vector field f^k d/db^k with graded-function
coefficients; it acts on functions as the derivation with value f^k on
b^k and zero on all other generators.  The coordinate vector fields
d/db^k have degree 0, so the degree of a section is the common degree
of its coefficients.

A HomSection is a two-argument Hom-tensor phi with components
phi_{ij}^k, meaning phi(d/db^i, d/db^j) = phi_{ij}^k d/db^k.
Evaluation on general sections is bilinear over graded functions with
Koszul signs from moving the tensor and the arguments past
coefficients.

Both carriers are acted on by a degree-one derivation Q of the function
algebra through graded commutators:

    Q . Y   = [Q, Y]                                   (sections)
    (Q . phi)(X, Y) = [Q, phi(X, Y)]
        - (-1)^(|Q||phi|) phi([Q, X], Y)
        - (-1)^(|Q|(|phi| + |X|)) phi(X, [Q, Y])       (Hom-tensors)

Both carry their degree (None when zero).  The public constructors
check that the components share one degree and every key is an int
index (a triple of them for a HomSection) in range (0..MAX_INDEX-1, or
0..s-1 for a HomSection of rank s <= MAX_INDEX); sums, negation, scale,
truncate and from_derivation carry the degree along unchecked; adding
carriers of different degrees raises ValueError, of different kinds
TypeError.  The section bracket must land back in vertical fields, or
InternalInvariantError is raised.

_check_carrier is the one gate between a carrier and a chart: d_A,
d_hom, atiyah_dg, transgression_residual, check_atiyah_comparison
(through atiyah_dg) and mu_lift accept exactly what it passes.

hom_bracket(q, phi, upto) walks the components of phi once, into one
kernel accumulator per output component (i, j, k).  The brackets
[Q, d/db^k] are formed exact by _frame_rows through bracket_with, once
per derivation, and kept on Q with their entries as kernel operands; a
budget only ends the kernel's loops over them.  The verticality guard
runs on each of them when it is formed, and since

    [Q, f d/db^k] = Q(f) d/db^k + (-1)^(|Q||f|) f [Q, d/db^k]

(the graded Leibniz rule), that implies verticality of every row.  A
stored f = phi_ij^k adds Q(f) to (i, j, k) by one Q._act, and one
_contract moves f three ways: index k through row k of the [Q, e_l],
to (i, j, n) with sign +1, since the kernel's [Q, e_k]_n * f already
equals (-1)^(|Q||f|) f [Q, e_k]_n; index i through column i, to
(l, j, k) with [Q, e_l]_i * f; and index j likewise, to (i, l, k).
Evaluating phi on an argument of degree |Q| gives the (-1)^(|Q||phi|)
in front back, so the last two enter with sign -1.
"""

from __future__ import annotations

from itertools import chain

from .errors import InternalInvariantError
from .expressions import dsection_str, homsection_str
from .graded import _ALPHA0, _ALPHAS, _B0, _BETA0, _BETAS, _INF, GEN_B, MAX_INDEX, Derivation
from .graded import GradedElement, _collect, _contract, _new, _operand, _sum, l_generator
from .poly import _W


class _Carrier:
    """Components of one carried degree, and the linear structure on them.

    The public constructors check that the components share one degree;
    results built here carry the degree along instead (_like).
    """

    __slots__ = ("comps", "_degree")

    def _set(self, comps):
        self.comps = {k: c for k, c in (comps or {}).items() if c}
        degs = {v.degree() for v in self.comps.values()}  # raises on a mixed component
        if len(degs) > 1:
            what = type(self).__name__
            raise ValueError(f"{what} has components of mixed degrees {sorted(degs)}")
        self._degree = degs.pop() if degs else None

    def _like(self, comps, degree):
        """Unchecked constructor: comps holds no zero, all of the given degree."""
        return _carrier(type(self), comps, degree)

    def degree(self):
        return self._degree

    def is_zero(self):
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def _combine(self, other, sign):
        """self + sign * other in one pass over the components of other."""
        if type(other) is not type(self):
            raise TypeError(f"cannot add a {type(other).__name__} to a {type(self).__name__}")
        if self._degree != other._degree and self.comps and other.comps:
            raise ValueError(f"cannot add {type(self).__name__}s of different degrees")
        out = dict(self.comps)
        for k, c in other.comps.items():
            cur = out.get(k)
            if cur is None:
                out[k] = c if sign == 1 else -c
            elif v := _sum(cur, c, sign):
                out[k] = v
            else:
                del out[k]
        return self._like(out, self._degree if self.comps else other._degree)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({k: -c for k, c in self.comps.items()}, self._degree)

    def scale(self, c):
        comps = {k: w for k, v in self.comps.items() if (w := v.scale(c))}
        return self._like(comps, self._degree)

    def truncate(self, n):
        comps = {k: w for k, v in self.comps.items() if (w := v.truncate(n))}
        return self._like(comps, self._degree)

    def map_coeffs(self, fn):
        """Apply fn to every component; checked, since fn may shift the degree."""
        out = self._like(None, None)
        out._set({k: fn(v) for k, v in self.comps.items()})
        return out


def _carrier(cls, comps, degree):
    out = _new(cls)
    out.comps = comps
    out._degree = degree if comps else None
    return out


class DSection(_Carrier):
    """Vertical vector field; comps maps fiber index k to the coefficient of d/db^k."""

    __slots__ = ()

    def __init__(self, comps=None):
        self._set(comps)
        if bad := [k for k in self.comps if type(k) is not int]:
            raise ValueError(f"DSection key {bad[0]!r} is not an int")
        if bad := [k for k in self.comps if not 0 <= k < MAX_INDEX]:
            raise ValueError(f"DSection index {bad[0]} is not in 0..{MAX_INDEX - 1}")

    @classmethod
    def basis(cls, i: int) -> "DSection":
        return cls({i: GradedElement.one()})

    def __eq__(self, other):
        return isinstance(other, DSection) and self.comps == other.comps

    def mul_left(self, f: GradedElement) -> "DSection":
        """The module product f * Y (coefficients multiplied on the left)."""
        return DSection({i: f * v for i, v in self.comps.items()})

    def comp(self, i) -> GradedElement:
        return self.comps.get(i, GradedElement.zero())

    def as_derivation(self) -> Derivation:
        deg = self._degree if self._degree is not None else 0
        return Derivation._make(deg, {(GEN_B, i): c for i, c in self.comps.items()})

    @classmethod
    def from_derivation(cls, d: Derivation, what="bracket") -> "DSection":
        bad = ", ".join(sorted(f"{kind}{i+1}" for kind, i in d.vals if kind != GEN_B))
        if bad:
            raise InternalInvariantError(f"{what} is not a vertical field; nonzero on {bad}")
        return _carrier(cls, {i: v for (_, i), v in d.vals.items()}, d.degree)

    def bracket(self, other: "DSection") -> "DSection":
        if self.is_zero() or other.is_zero():
            return DSection()
        d = self.as_derivation()  # [Y, Y] brackets one object with itself
        return DSection.from_derivation(
            d.commutator(d if other is self else other.as_derivation()), "section bracket"
        )

    def __repr__(self):
        return f"<{dsection_str(self)}>"


def bracket_with(q: Derivation, y: DSection, what="bracket", upto=None) -> DSection:
    """[Q, Y] for a derivation Q and a vertical field Y, checked vertical.

    With upto, the coefficients keep fiber degrees <= upto; the
    verticality check stays exact.
    """
    if y.is_zero():
        return DSection()
    return DSection.from_derivation(q.commutator(y.as_derivation(), upto), what)


class HomSection(_Carrier):
    """Hom-tensor on pairs of vertical fields; comps maps (i, j, k) -> coefficient.

    The rank s (fiber dimension) is carried explicitly because operators
    built from it must range over all basis pairs, present or not.
    """

    __slots__ = ("s",)

    def __init__(self, s: int, comps=None):
        if not 0 <= s <= MAX_INDEX:
            raise ValueError(f"HomSection rank {s} is not in 0..{MAX_INDEX}")
        self.s = s
        self._set(comps)
        if bad := [k for k in self.comps if type(k) is not tuple or len(k) != 3
                   or any(type(i) is not int for i in k)]:
            raise ValueError(f"HomSection key {bad[0]!r} is not a triple of ints")
        if bad := set(chain.from_iterable(self.comps)) - set(range(s)):
            raise ValueError(f"HomSection index {min(bad)} is not in 0..{s - 1}")

    def _like(self, comps, degree):
        out = _carrier(HomSection, comps, degree)
        out.s = self.s
        return out

    def __eq__(self, other):
        return (
            isinstance(other, HomSection)
            and self.s == other.s
            and self.comps == other.comps
        )

    def _combine(self, other, sign):
        if isinstance(other, HomSection) and self.s != other.s:
            raise ValueError("rank mismatch")
        return _Carrier._combine(self, other, sign)

    def comp(self, i, j, k) -> GradedElement:
        return self.comps.get((i, j, k), GradedElement.zero())

    def __repr__(self):
        return f"<{homsection_str(self)}>"


_CARRIERS = (GradedElement, DSection, HomSection)


def _check_carrier(chart, a, what: str, aform=False, kinds=_CARRIERS):
    """TypeError unless a is one of kinds; ValueError for a rank or fiber
    index past chart.s, an alpha, beta, b or x that chart (n, s, t) lacks,
    or, with aform, any beta or b-power.  One pass ORs a's keys together."""
    if not isinstance(a, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise TypeError(f"{what} must be a {names}, not {type(a).__name__}")
    n, s, t = chart.n, chart.s, chart.t
    if isinstance(a, HomSection) and a.s != s:
        raise ValueError(f"{what} has rank {a.s}, the chart has rank_B {s}")
    if isinstance(a, DSection) and (top := max(a.comps, default=-1)) >= s:
        raise ValueError(f"{what} has fiber index {top + 1}, the chart has rank_B {s}")
    mons = keys = 0
    for e in (a,) if isinstance(a, GradedElement) else a.comps.values():
        for m, terms in e.num.items():
            mons |= m
            for k in terms:
                keys |= k
    for name, past, width, have, rank in (
        ("alpha", (mons & _ALPHAS) >> _ALPHA0 + t, 1, t, "rank_A"),
        ("beta", (mons & _BETAS) >> _BETA0 + s, 1, s, "rank_B"),
        ("b", mons >> _B0 + 8 * s, 8, s, "rank_B"),
        ("x", keys >> _W * n, _W, n, "dim_base"),
    ):
        if past:
            i = have + (past.bit_length() - 1) // width + 1
            raise ValueError(f"{what} has {name}{i}, the chart has {rank} {have}")
    if aform and mons & ~_ALPHAS:  # a beta, or a b-power
        raise ValueError(f"{what} must be an alpha-only carrier")


def _frame_rows(q: Derivation, s: int):
    """The rows [Q, e_k], k < s, exact, formed once per (Q, s).

    Returns (rows, ops, cols): rows[k] is [Q, e_k] as a DSection,
    checked vertical by bracket_with when formed; ops[k] is {n:
    [Q, e_k]_n} and cols[n] lists (l, [Q, e_l]_n), the entries as kernel
    operands.  Kept on Q (Derivation._rows), whose values never
    change; a budgeted reader stops in the kernel (graded.py).
    """
    cache = q._rows
    if cache is None:
        cache = q._rows = {}
    got = cache.get(s)
    if got is None:
        rows = [bracket_with(q, DSection.basis(k), f"[Q, d/db{k + 1}]") for k in range(s)]
        ops = [{n: _operand(c) for n, c in row.comps.items()} for row in rows]
        cols = [[(l, op[n]) for l, op in enumerate(ops) if n in op] for n in range(s)]
        got = cache[s] = rows, ops, cols
    return got


def hom_bracket(q: Derivation, phi: HomSection, upto=None) -> HomSection:
    """The induced action of a derivation on a Hom-tensor, through fiber degree upto.

    All three terms of (Q . phi)(e_i, e_j) go into one accumulator per
    output component (i, j, k) (module docstring).
    """
    if phi.is_zero():
        return HomSection(phi.s)
    s = phi.s
    limit = _INF if upto is None else upto
    _, qbasis, cols = _frame_rows(q, s)
    accs = {}
    for (i, j, k), c in phi.comps.items():
        # Q(c) into (i, j, k), then c moved by k, i and j (module docstring)
        q._act(accs.setdefault((i, j, k), [1, {}]), c, 1, limit)
        moves = chain((((i, j, n), qn, 1) for n, qn in qbasis[k].items()),
                      (((l, j, k), qn, -1) for l, qn in cols[i]),
                      (((i, l, k), qn, -1) for l, qn in cols[j]))
        _contract(accs, c, moves, limit)
    return HomSection(s, _collect(accs))


def interior(l_index: int, s: int) -> Derivation:
    """Contraction with the basis frame section of L at the given index.

    This is the degree -1 derivation killing functions and pairing the
    odd fiber coordinate of the L-index (graded.l_generator) to 1.
    """
    return Derivation(-1, {l_generator(l_index, s): GradedElement.one()})


def q_act(q: Derivation, a, what="action", upto=None):
    """Apply a derivation to a function, section or Hom-tensor, through fiber degree upto."""
    if isinstance(a, GradedElement):
        return q.apply(a, upto)
    if isinstance(a, DSection):
        return bracket_with(q, a, what, upto)
    if isinstance(a, HomSection):
        return hom_bracket(q, a, upto)
    raise TypeError(type(a))
