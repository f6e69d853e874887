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
check that the components share one degree; sums, negation, scale,
truncate and from_derivation carry it along unchecked, and adding
carriers of different degrees raises ValueError.  The section
bracket must land back in vertical fields, or InternalInvariantError
is raised.

hom_bracket sums the three terms of (Q . phi)(e_i, e_j) for each output
index n in one accumulator of the product kernel of graded.py.  The
brackets [Q, d/db^k] are formed once per call through bracket_with, so
the verticality guard runs on each of them; since

    [Q, f d/db^k] = Q(f) d/db^k + (-1)^(|Q||f|) f [Q, d/db^k]

(the graded Leibniz rule), that implies verticality of every row.  The
first term is therefore one Q._act per stored phi_ij^k = f into the
entry of k, plus one kernel product per component n of [Q, d/db^k].
The kernel forms that product as [Q, d/db^k]_n * f, which already
equals (-1)^(|Q||f|) f [Q, d/db^k]_n, so it enters with sign +1.  The
two phi terms are multiply-accumulated straight from the components of
[Q, e_i] and phi.  Each component is built once, at the end.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .graded import GEN_B, _INF, Derivation, GradedElement, l_generator
from .graded import _finish, _mac, _new, _sum


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
        from .expressions import dsection_str

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
        self.s = s
        self._set(comps)

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
        if self.s != other.s:
            raise ValueError("rank mismatch")
        return _Carrier._combine(self, other, sign)

    def comp(self, i, j, k) -> GradedElement:
        return self.comps.get((i, j, k), GradedElement.zero())

    def __repr__(self):
        from .expressions import homsection_str

        return f"<{homsection_str(self)}>"


def evaluate(phi: HomSection, x: DSection, y: DSection, upto=None) -> DSection:
    """phi(X, Y) with Koszul signs: phi passes the coefficients of X and Y.

    With upto, only fiber degrees <= upto are formed.
    """
    if phi.is_zero() or x.is_zero() or y.is_zero():
        return DSection()
    sign = 1
    if phi.degree() & 1 and (x.degree() + y.degree()) & 1:
        sign = -1
    limit = _INF if upto is None else upto
    acc = {}
    for (i, j, k), c in phi.comps.items():
        xi = x.comps.get(i)
        yj = y.comps.get(j)
        if xi is None or yj is None:
            continue
        xy = xi.mul(yj, upto)
        ys = [(m, t, 1) for m, t in c.num.items()]
        _mac(acc.setdefault(k, [1, {}]), xy.num.items(), xy.den, ys, c.den, sign, limit)
    return DSection({k: _finish(t) for k, t in acc.items()})


def hom_bracket(q: Derivation, phi: HomSection, what="hom bracket", upto=None) -> HomSection:
    """The induced action of a derivation on a Hom-tensor, through fiber degree upto.

    All three terms of (Q . phi)(e_i, e_j) go into one accumulator per
    output index k (module docstring).
    """
    if phi.is_zero():
        return HomSection(phi.s)
    s = phi.s
    limit = _INF if upto is None else upto
    qbasis = [bracket_with(q, DSection.basis(i), what, upto) for i in range(s)]
    rows = {}  # (i, j) -> [(k, phi_ij^k, its kernel y-terms)]
    for (i, j, k), c in phi.comps.items():
        rows.setdefault((i, j), []).append((k, c, [(m, t, 1) for m, t in c.num.items()]))
    comps = {}
    for i in range(s):
        for j in range(s):
            acc = {}
            # [Q, phi(e_i, e_j)] by the Leibniz rule, sign +1 (module docstring)
            for k, c, ys in rows.get((i, j), ()):
                q._act(acc.setdefault(k, [1, {}]), c, 1, limit)
                for n, qn in qbasis[k].comps.items():
                    _mac(acc.setdefault(n, [1, {}]), qn.num.items(), qn.den, ys, c.den, 1, limit)
            # phi([Q, e_i], e_j) and phi(e_i, [Q, e_j]): evaluating phi on an
            # argument of degree |Q| gives the (-1)^(|Q||phi|) in front back,
            # so both enter with sign -1
            for n, qn in qbasis[i].comps.items():
                for k, c, ys in rows.get((n, j), ()):
                    _mac(acc.setdefault(k, [1, {}]), qn.num.items(), qn.den, ys, c.den, -1, limit)
            for n, qn in qbasis[j].comps.items():
                for k, c, ys in rows.get((i, n), ()):
                    _mac(acc.setdefault(k, [1, {}]), qn.num.items(), qn.den, ys, c.den, -1, limit)
            for k, t in acc.items():
                comps[(i, j, k)] = _finish(t)
    return HomSection(s, comps)


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
        return hom_bracket(q, a, what, upto)
    raise TypeError(type(a))
