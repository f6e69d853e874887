"""Lie pairs presented in one coordinate chart by polynomial structure data.

The ambient algebroid L of rank s + t splits as A + B with rank(A) = t
and rank(B) = s.  L-indices follow the fiber coordinate order: indices
0..s-1 are the B directions (betas), indices s..s+t-1 are the A
directions (alphas).  The structure data are

    rho[i][j]      anchor coefficients, rho(l_i) = rho_i^j d/dx^j
    C[i,j,k]       bracket constants, [l_i, l_j] = C_ij^k l_k
    Gamma[i,j,k]   connection coefficients of an L-connection on B,
                   nabla_{l_i} b_j = Gamma_ij^k b_k (j, k are B-indices)

all polynomials in the base variables.  A is always required to be a
subalgebroid (Lie pair); the matched flag additionally requires B to be
one.  The connection must be torsion free and extend the infinitesimal
A-action on B; a separate constructor symmetrizes arbitrary input by
Gamma -> Gamma - T/2 first.

The tables hold nonzero entries only, and every sum below runs over the
stored entries (and over the rows with a nonzero anchor), accumulating
into a dict keyed by the output indices; residuals are listed in sorted
key order.  A sum antisymmetric in a pair of L-indices uses the C
entries with i < j once and adds the mirrored term with the opposite
sign.
"""

from __future__ import annotations

from fractions import Fraction

from .expressions import Printer
from .graded import GEN_B, GEN_BETA, GEN_X, Derivation, GradedElement, _acc, l_generator
from .poly import Poly
from .sections import _check_carrier, q_act

HALF = Fraction(1, 2)


def complete_antisymmetric(c_entries):
    """Fill C_ji = -C_ij from given entries; reject inconsistent pairs.

    c_entries maps (i, j, k) to Poly.  Returns a full antisymmetric dict;
    the ChartAlgebroid constructor range-checks the indices.
    """
    out = {}
    for (i, j, k), v in c_entries.items():
        if not v:
            continue
        if i == j:
            raise ValueError(f"C[{i+1},{i+1},{k+1}] must vanish")
        for key, val in (((i, j, k), v), ((j, i, k), -v)):
            if key in out and out[key] != val:
                raise ValueError(
                    f"inconsistent antisymmetric entries at C[{key[0]+1},{key[1]+1},{key[2]+1}]"
                )
            out[key] = val
    return out


def _by_slot(table, slot):
    """The entries of a table grouped by the index in one slot of the key."""
    out = {}
    for key, v in table.items():
        out.setdefault(key[slot], []).append((key, v))
    return out


class ChartAlgebroid:
    """One-chart polynomial presentation of a Lie pair (A, L) with L = A + B."""

    __slots__ = ("n", "s", "t", "rho", "C", "Gamma", "matched", "_rows", "_curvature", "_d_L",
                 "_nabla", "_r_dual")

    def __init__(self, n, s, t, rho=None, C=None, Gamma=None, matched=False):
        self.n, self.s, self.t = n, s, t
        self.rho = {k: v for k, v in (rho or {}).items() if v}
        self.C = {k: v for k, v in (C or {}).items() if v}
        self.Gamma = {k: v for k, v in (Gamma or {}).items() if v}
        self.matched = bool(matched)
        # the anchor entries of each L-index with a nonzero anchor
        self._rows = _by_slot(self.rho, 0)
        # filled by curvature(), d_L_derivation(), nabla_derivation() and
        # fedosov.r_dual(); a chart is never mutated
        self._curvature = self._d_L = self._nabla = self._r_dual = None
        m = s + t
        for (i, j) in self.rho:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"anchor index ({i},{j}) out of range")
        for (i, j, k) in self.C:
            if not (0 <= i < m and 0 <= j < m and 0 <= k < m):
                raise ValueError(f"bracket index ({i},{j},{k}) out of range")
        for (i, j, k) in self.Gamma:
            if not (0 <= i < m and 0 <= j < s and 0 <= k < s):
                raise ValueError(f"connection index ({i},{j},{k}) out of range")
        # antisymmetry is structural, not a report item
        for (i, j, k), v in self.C.items():
            if self.C.get((j, i, k)) != -v:
                raise ValueError(
                    f"bracket constants not antisymmetric at ({i+1},{j+1},{k+1})"
                )

    # -- accessors -------------------------------------------------------
    @property
    def rank(self):
        return self.s + self.t

    def lam(self, i) -> GradedElement:
        """The odd fiber coordinate dual to l_i."""
        kind, k = l_generator(i, self.s)
        return GradedElement.beta(k) if kind == GEN_BETA else GradedElement.alpha(k)

    def anchor_apply(self, i, f: Poly) -> Poly:
        """rho(l_i) acting on a base polynomial."""
        out = Poly.zero()
        for (_, j), r in self._rows.get(i, ()):
            df = f.diff(j)
            if df:
                out = out + r * df
        return out

    # -- derived tensors ---------------------------------------------------
    def torsion(self):
        """T_ij^k = Gamma_ij^k - Gamma_ji^k - C_ij^k for j, k B-indices.

        i is any L-index; Gamma_ji^k needs i in the middle slot, so that
        term only enters for a B-index i.
        """
        out = dict(self.Gamma)
        for (j, i, k), g in self.Gamma.items():
            if j < self.s:
                _acc(out, (i, j, k), -g)
        for (i, j, k), c in self.C.items():
            if j < self.s and k < self.s:
                _acc(out, (i, j, k), -c)
        return dict(sorted(out.items()))

    def symmetrized(self) -> "ChartAlgebroid":
        """Apply Gamma -> Gamma - T/2, the standard torsion-killing shift."""
        gamma = dict(self.Gamma)
        for key, v in self.torsion().items():
            _acc(gamma, key, -(v * HALF))
        return ChartAlgebroid(self.n, self.s, self.t, self.rho, self.C, gamma, self.matched)


def validate_structure(alg: ChartAlgebroid, names=None) -> dict:
    """Check the chart data axioms; never raises.

    Returns {axiom name: [residual strings]} in check order, every
    residual of each axiom kept; an axiom holds when its list is empty.
    Residuals name the base variables by names, as expressions.Printer
    does (None: x1, x2, ...).  suites.axiom_checks turns the dict into
    the checks of a report.

    anchor_bracket_morphism, for i < j:
        rho_i(rho_j^k) - rho_j(rho_i^k) - C_ij^m rho_m^k = 0
    jacobi, for i < j < k, the cyclic sum over (a, b, c) of
        C_ab^m C_mc^l - rho_c(C_ab^l) = 0.
    Each Jacobi term comes from a C entry (a, b) with a < b and a third
    index c; the cyclic order of sorted (i, j, k) holds (a, b) reversed
    exactly when a < c < b, so the term enters with sign -1 there.
    """
    s, C, rows = alg.s, alg.C, alg._rows
    printer, out = Printer(names), {}

    def text(p):
        return printer.coeff(p.num, p.den)

    ordered = [(key, c) for key, c in C.items() if key[0] < key[1]]
    morph = {}
    for (j, k), f in alg.rho.items():
        for i in rows:
            if i != j:
                v = alg.anchor_apply(i, f)
                _acc(morph, (min(i, j), max(i, j), k), v if i < j else -v)
    for (i, j, mm), c in ordered:
        for (_, k), r in rows.get(mm, ()):
            _acc(morph, (i, j, k), -(c * r))
    out["anchor_bracket_morphism"] = [
        f"i={i+1},j={j+1},{text(Poly.variable(k))}: {text(d)}"
        for (i, j, k), d in sorted(morph.items())
    ]

    by_first = _by_slot(C, 0)
    jac = {}
    for (a, b, mm), c1 in ordered:
        for (_, c, l), c2 in by_first.get(mm, ()):
            if c != a and c != b:
                v = c1 * c2
                _acc(jac, (*sorted((a, b, c)), l), -v if a < c < b else v)
        for c in rows:
            if c != a and c != b:
                v = alg.anchor_apply(c, c1)
                _acc(jac, (*sorted((a, b, c)), mm), v if a < c < b else -v)
    out["jacobi"] = [
        f"i={i+1},j={j+1},k={k+1} -> l={l+1}: {text(v)}"
        for (i, j, k, l), v in sorted(jac.items())
    ]

    entries = sorted(C.items())
    out["a_subalgebroid"] = [
        f"[A{i-s+1},A{j-s+1}] has B{k+1} part {text(c)}"
        for (i, j, k), c in entries
        if i >= s and j >= s and k < s
    ]
    if alg.matched:
        out["b_subalgebroid"] = [
            f"[B{i+1},B{j+1}] has A{k-s+1} part {text(c)}"
            for (i, j, k), c in entries
            if i < s and j < s and k >= s
        ]

    tor = alg.torsion().items()
    out["torsion_free"] = [
        f"i=B{i+1},j=B{j+1},k=B{k+1}: {text(v)}" for (i, j, k), v in tor if i < s
    ]
    out["extends_a_action"] = [
        f"i=A{i-s+1},j=B{j+1},k=B{k+1}: {text(v)}" for (i, j, k), v in tor if i >= s
    ]
    return out


def curvature(alg: ChartAlgebroid) -> dict:
    """R_ijk^l = rho_i(G_jk^l) - rho_j(G_ik^l) + G_im^l G_jk^m - G_jm^l G_ik^m - C_ij^m G_mk^l.

    Returns the nonzero components {(i, j, k, l): Poly} in sorted key
    order; i, j are L-indices, k, l B-indices.

    The quadratic sums run over B-indices m (the middle slot of Gamma);
    the C-term sum runs over all L-indices m.  R is antisymmetric in
    (i, j), so each term is formed once from the stored entries and
    added to (i, j, k, l) and, negated, to (j, i, k, l); the C-term uses
    the entries with i < j.  Computed once per chart; callers share the
    dict and never mutate it.
    """
    if alg._curvature is not None:
        return alg._curvature
    G = alg.Gamma
    by_first, by_last = _by_slot(G, 0), _by_slot(G, 2)
    comps = {}

    def add(i, j, k, l, v):
        _acc(comps, (i, j, k, l), v)
        _acc(comps, (j, i, k, l), -v)

    for (j, k, l), g in G.items():
        for i in alg._rows:
            if i != j:
                add(i, j, k, l, alg.anchor_apply(i, g))
    for (i, mm, l), g1 in G.items():
        for (j, k, _), g2 in by_last.get(mm, ()):
            if i != j:
                add(i, j, k, l, g1 * g2)
    for (i, j, mm), c in alg.C.items():
        if i < j:
            for (_, k, l), g in by_first.get(mm, ()):
                add(i, j, k, l, -(c * g))
    alg._curvature = dict(sorted(comps.items()))
    return alg._curvature


def d_L_derivation(alg: ChartAlgebroid) -> Derivation:
    """The homological vector field of L: anchor and bracket, zero on b.

    d_L = lam^i rho_i^j d/dx^j - (1/2) lam^i lam^j C_ij^k d/dlam^k

    Computed once per chart (nabla_derivation builds on it); callers share
    the result and never mutate it.
    """
    if alg._d_L is None:
        xs, ls = {}, {}
        for (i, j), r in alg.rho.items():
            _acc(xs, j, alg.lam(i).scale(r))
        for (i, j, k), c in alg.C.items():
            _acc(ls, k, (alg.lam(i) * alg.lam(j)).scale(c * (-HALF)))
        vals = {(GEN_X, j): v for j, v in sorted(xs.items())}
        vals.update((l_generator(k, alg.s), v) for k, v in sorted(ls.items()))
        alg._d_L = Derivation(1, vals)
    return alg._d_L


def nabla_derivation(alg: ChartAlgebroid) -> Derivation:
    """The connection as a degree-one derivation of the chart functions.

    nabla = d_L - lam^i Gamma_ij^k b^j d/db^k

    Computed once per chart; callers share the result and never mutate it.
    """
    if alg._nabla is not None:
        return alg._nabla
    vals = {}
    for (i, j, k), g in alg.Gamma.items():
        _acc(vals, (GEN_B, k), -(alg.lam(i) * GradedElement.bvar(j)).scale(g))
    alg._nabla = d_L_derivation(alg) + Derivation(1, vals)
    return alg._nabla


def d_A(alg: ChartAlgebroid, a):
    """Differential of A-valued forms on an alpha-only carrier of the chart (matched pairs only).

    It acts by nabla_A, the (1, 0) part of nabla, formed once per chart:
    the Chevalley-Eilenberg differential of A with coefficients twisted
    by the A-action on B.
    """
    if not alg.matched:
        raise ValueError("the A-differential on forms needs a matched pair")
    _check_carrier(alg, a, "A-differential input", aform=True)
    return q_act(nabla_derivation(alg).bidegree_part(1, 0), a, "A-differential")
