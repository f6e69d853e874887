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

The section bracket must land back in vertical fields; if it does not,
an InternalInvariantError is raised.

hom_bracket sums the three terms of (Q . phi)(e_i, e_j) for each output
index k in one accumulator of the product kernel of graded.py: the
[Q, phi(e_i, e_j)] term goes through bracket_with (so its verticality
guard runs) and seeds the accumulator (graded._seed copies each
coefficient's integer numerators and denominator into the kernel's
[den, {key: int}] entries), and the two phi terms are
multiply-accumulated straight from the components of [Q, e_i] and phi.
Each component is built once, at the end.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .graded import _INF, GradedElement, Derivation, _finish, _mac, _seed, _unit


def _merge_comp(store, k, val):
    cur = store.get(k)
    s = val if cur is None else cur + val
    if s:
        store[k] = s
    elif cur is not None:
        del store[k]


def _common_degree(values, what):
    degs = set()
    for v in values:
        d = v.degree()  # raises if a single component is mixed
        if d is not None:
            degs.add(d)
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"{what} has components of mixed degrees {sorted(degs)}")
    return degs.pop()


class DSection:
    """Vertical vector field; comps maps fiber index k to the coefficient of d/db^k."""

    __slots__ = ("comps", "_degree")

    def __init__(self, comps=None):
        self.comps = {i: c for i, c in (comps or {}).items() if c}
        self._degree = _common_degree(self.comps.values(), "DSection")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, i: int) -> "DSection":
        return cls({i: GradedElement.one()})

    def degree(self):
        return self._degree

    def is_zero(self):
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        return isinstance(other, DSection) and self.comps == other.comps

    def __add__(self, other):
        out = dict(self.comps)
        for i, c in other.comps.items():
            _merge_comp(out, i, c)
        return DSection(out)

    def __neg__(self):
        return DSection({i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return DSection({i: v.scale(c) for i, v in self.comps.items()})

    def mul_left(self, f: GradedElement) -> "DSection":
        """The module product f * Y (coefficients multiplied on the left)."""
        return DSection({i: f * v for i, v in self.comps.items()})

    def comp(self, i) -> GradedElement:
        return self.comps.get(i, GradedElement.zero())

    def truncate(self, n):
        return DSection({i: v.truncate(n) for i, v in self.comps.items()})

    def map_coeffs(self, fn) -> "DSection":
        return DSection({i: fn(v) for i, v in self.comps.items()})

    def as_derivation(self) -> Derivation:
        deg = self._degree if self._degree is not None else 0
        return Derivation(deg, b_vals=dict(self.comps))

    @classmethod
    def from_derivation(cls, d: Derivation, what="bracket") -> "DSection":
        bad = {}
        for kind, table in ((k, t) for k, t in d._tables() if k != "b"):
            for i, v in table.items():
                bad[f"{kind}{i+1}"] = v
        if bad:
            raise InternalInvariantError(
                f"{what} is not a vertical field; nonzero on " + ", ".join(sorted(bad))
            )
        return cls(dict(d.b_vals))

    def bracket(self, other: "DSection") -> "DSection":
        if self.is_zero() or other.is_zero():
            return DSection()
        return DSection.from_derivation(
            self.as_derivation().commutator(other.as_derivation()), "section bracket"
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


class HomSection:
    """Hom-tensor on pairs of vertical fields; comps maps (i, j, k) -> coefficient.

    The rank s (fiber dimension) is carried explicitly because operators
    built from it must range over all basis pairs, present or not.
    """

    __slots__ = ("s", "comps", "_degree")

    def __init__(self, s: int, comps=None):
        self.s = s
        self.comps = {k: c for k, c in (comps or {}).items() if c}
        self._degree = _common_degree(self.comps.values(), "HomSection")

    @classmethod
    def zero(cls, s):
        return cls(s)

    def degree(self):
        return self._degree

    def is_zero(self):
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        return (
            isinstance(other, HomSection)
            and self.s == other.s
            and self.comps == other.comps
        )

    def __add__(self, other):
        if self.s != other.s:
            raise ValueError("rank mismatch")
        out = dict(self.comps)
        for k, c in other.comps.items():
            _merge_comp(out, k, c)
        return HomSection(self.s, out)

    def __neg__(self):
        return HomSection(self.s, {k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return HomSection(self.s, {k: v.scale(c) for k, v in self.comps.items()})

    def comp(self, i, j, k) -> GradedElement:
        return self.comps.get((i, j, k), GradedElement.zero())

    def eval_basis(self, i, j) -> DSection:
        """phi(d/db^i, d/db^j) as a vertical field."""
        return DSection(
            {k: c for (a, b, k), c in self.comps.items() if a == i and b == j}
        )

    def truncate(self, n):
        return HomSection(self.s, {k: v.truncate(n) for k, v in self.comps.items()})

    def map_coeffs(self, fn) -> "HomSection":
        return HomSection(self.s, {k: fn(v) for k, v in self.comps.items()})

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
        _mac(acc.setdefault(k, {}), xi.mul(yj, upto).terms.items(), _unit(c), sign, limit)
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
    rows = {}  # (i, j) -> [(k, phi_ij^k)]
    for (i, j, k), c in phi.comps.items():
        rows.setdefault((i, j), []).append((k, _unit(c)))
    comps = {}
    for i in range(s):
        for j in range(s):
            val = phi.eval_basis(i, j)
            first = bracket_with(q, val, what, upto).comps if val else {}
            acc = {k: _seed(c) for k, c in first.items()}
            # phi([Q, e_i], e_j) and phi(e_i, [Q, e_j]): evaluating phi on an
            # argument of degree |Q| gives the (-1)^(|Q||phi|) in front back,
            # so both enter with sign -1
            for n, qn in qbasis[i].comps.items():
                for k, ys in rows.get((n, j), ()):
                    _mac(acc.setdefault(k, {}), qn.terms.items(), ys, -1, limit)
            for n, qn in qbasis[j].comps.items():
                for k, ys in rows.get((i, n), ()):
                    _mac(acc.setdefault(k, {}), qn.terms.items(), ys, -1, limit)
            for k, t in acc.items():
                comps[(i, j, k)] = _finish(t)
    return HomSection(s, comps)


def interior(l_index: int, s: int) -> Derivation:
    """Contraction with the basis frame section of L at the given index.

    Index convention: 0..s-1 are the beta (B) directions, s.. are the
    alpha (A) directions.  This is the degree -1 derivation killing
    functions and pairing the matching odd fiber coordinate to 1.
    """
    if l_index < s:
        return Derivation(-1, beta_vals={l_index: GradedElement.one()})
    return Derivation(-1, alpha_vals={l_index - s: GradedElement.one()})


def q_act(q: Derivation, a, what="action", upto=None):
    """Apply a derivation to a function, section or Hom-tensor, through fiber degree upto."""
    if isinstance(a, GradedElement):
        return q.apply(a, upto)
    if isinstance(a, DSection):
        return bracket_with(q, a, what, upto)
    if isinstance(a, HomSection):
        return hom_bracket(q, a, what, upto)
    raise TypeError(type(a))
