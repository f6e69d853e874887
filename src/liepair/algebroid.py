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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .expressions import poly_str
from .graded import GEN_ALPHA, GEN_B, GEN_BETA, GEN_X, Derivation, GradedElement
from .poly import Poly

HALF = Fraction(1, 2)


def complete_antisymmetric(c_entries, m):
    """Fill C_ji = -C_ij from given entries; reject inconsistent pairs.

    c_entries maps (i, j, k) to Poly with 0 <= i, j < m.  Returns a full
    antisymmetric dict.
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


@dataclass
class CheckResult:
    name: str
    passed: bool
    residuals: list = field(default_factory=list)

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "residuals": list(self.residuals)}


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


class ChartAlgebroid:
    """One-chart polynomial presentation of a Lie pair (A, L) with L = A + B."""

    __slots__ = ("n", "s", "t", "rho", "C", "Gamma", "matched", "_curvature", "_nabla")

    def __init__(self, n, s, t, rho=None, C=None, Gamma=None, matched=False):
        self.n, self.s, self.t = n, s, t
        self.rho = {k: v for k, v in (rho or {}).items() if v}
        self.C = {k: v for k, v in (C or {}).items() if v}
        self.Gamma = {k: v for k, v in (Gamma or {}).items() if v}
        self.matched = bool(matched)
        # filled by curvature() and nabla_derivation(); a chart is never mutated
        self._curvature = None
        self._nabla = None
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
            if self.C_at(j, i, k) != -v:
                raise ValueError(
                    f"bracket constants not antisymmetric at ({i+1},{j+1},{k+1})"
                )

    # -- accessors -------------------------------------------------------
    @property
    def rank(self):
        return self.s + self.t

    def rho_at(self, i, j) -> Poly:
        return self.rho.get((i, j), Poly.zero())

    def C_at(self, i, j, k) -> Poly:
        return self.C.get((i, j, k), Poly.zero())

    def Gamma_at(self, i, j, k) -> Poly:
        return self.Gamma.get((i, j, k), Poly.zero())

    def lam(self, i) -> GradedElement:
        """The odd fiber coordinate dual to l_i."""
        if i < self.s:
            return GradedElement.beta(i)
        return GradedElement.alpha(i - self.s)

    def anchor_apply(self, i, f: Poly) -> Poly:
        """rho(l_i) acting on a base polynomial."""
        out = Poly.zero()
        for j in range(self.n):
            r = self.rho.get((i, j))
            if r:
                df = f.diff(j)
                if df:
                    out = out + r * df
        return out

    # -- derived tensors ---------------------------------------------------
    def torsion(self):
        """T_ij^k for i any L-index and j, k B-indices (the part Gamma sees)."""
        out = {}
        for i in range(self.rank):
            for j in range(self.s):
                for k in range(self.s):
                    if i < self.s:
                        v = self.Gamma_at(i, j, k) - self.Gamma_at(j, i, k) - self.C_at(i, j, k)
                    else:
                        v = self.Gamma_at(i, j, k) - self.C_at(i, j, k)
                    if v:
                        out[(i, j, k)] = v
        return out

    def symmetrized(self) -> "ChartAlgebroid":
        """Apply Gamma -> Gamma - T/2, the standard torsion-killing shift."""
        tor = self.torsion()
        gamma = dict(self.Gamma)
        for (i, j, k), v in tor.items():
            cur = gamma.get((i, j, k), Poly.zero()) - v * HALF
            if cur:
                gamma[(i, j, k)] = cur
            else:
                gamma.pop((i, j, k), None)
        return ChartAlgebroid(self.n, self.s, self.t, self.rho, self.C, gamma, self.matched)


def validate_structure(alg: ChartAlgebroid) -> ValidationReport:
    """Check the chart data axioms; returns a report, never raises."""
    checks = []
    m = alg.rank

    res = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(alg.n):
                lhs = alg.anchor_apply(i, alg.rho_at(j, k)) - alg.anchor_apply(j, alg.rho_at(i, k))
                rhs = Poly.zero()
                for mm in range(m):
                    c, r = alg.C.get((i, j, mm)), alg.rho.get((mm, k))
                    if c and r:
                        rhs = rhs + c * r
                d = lhs - rhs
                if d:
                    res.append(f"i={i+1},j={j+1},x{k+1}: {poly_str(d)}")
    checks.append(CheckResult("anchor_bracket_morphism", not res, res))

    res = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for l in range(m):
                    total = Poly.zero()
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for mm in range(m):
                            c1, c2 = alg.C.get((a, b, mm)), alg.C.get((mm, c, l))
                            if c1 and c2:
                                total = total + c1 * c2
                        total = total - alg.anchor_apply(c, alg.C_at(a, b, l))
                    if total:
                        res.append(f"i={i+1},j={j+1},k={k+1} -> l={l+1}: {poly_str(total)}")
    checks.append(CheckResult("jacobi", not res, res))

    res = []
    for i in range(alg.s, m):
        for j in range(alg.s, m):
            for k in range(alg.s):
                c = alg.C_at(i, j, k)
                if c:
                    res.append(f"[A{i-alg.s+1},A{j-alg.s+1}] has B{k+1} part {poly_str(c)}")
    checks.append(CheckResult("a_subalgebroid", not res, res))

    if alg.matched:
        res = []
        for i in range(alg.s):
            for j in range(alg.s):
                for k in range(alg.s, m):
                    c = alg.C_at(i, j, k)
                    if c:
                        res.append(f"[B{i+1},B{j+1}] has A{k-alg.s+1} part {poly_str(c)}")
        checks.append(CheckResult("b_subalgebroid", not res, res))

    tor = alg.torsion()
    res = [
        f"i=B{i+1},j=B{j+1},k=B{k+1}: {poly_str(v)}"
        for (i, j, k), v in sorted(tor.items())
        if i < alg.s
    ]
    checks.append(CheckResult("torsion_free", not res, res))

    res = [
        f"i=A{i-alg.s+1},j=B{j+1},k=B{k+1}: {poly_str(v)}"
        for (i, j, k), v in sorted(tor.items())
        if i >= alg.s
    ]
    checks.append(CheckResult("extends_a_action", not res, res))

    return ValidationReport(checks)


class CurvatureTensor:
    """R_ijk^l of the L-connection on B; i, j are L-indices, k, l B-indices."""

    __slots__ = ("alg", "comps")

    def __init__(self, alg, comps):
        self.alg = alg
        self.comps = {k: v for k, v in comps.items() if v}

    def at(self, i, j, k, l) -> Poly:
        return self.comps.get((i, j, k, l), Poly.zero())

    def is_antisymmetric(self) -> bool:
        m = self.alg.rank
        for i in range(m):
            for j in range(m):
                for k in range(self.alg.s):
                    for l in range(self.alg.s):
                        if self.at(i, j, k, l) != -self.at(j, i, k, l):
                            return False
        return True


def curvature(alg: ChartAlgebroid) -> CurvatureTensor:
    """R_ijk^l = rho_i(G_jk^l) - rho_j(G_ik^l) + G_im^l G_jk^m - G_jm^l G_ik^m - C_ij^m G_mk^l.

    The quadratic sums run over B-indices m (the middle slot of Gamma);
    the C-term sum runs over all L-indices m.  Absent table entries are
    skipped, so no product has a zero factor.  Computed once per chart.
    """
    if alg._curvature is not None:
        return alg._curvature
    comps = {}
    m = alg.rank
    G, C = alg.Gamma.get, alg.C.get
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            for k in range(alg.s):
                for l in range(alg.s):
                    v = alg.anchor_apply(i, alg.Gamma_at(j, k, l))
                    v = v - alg.anchor_apply(j, alg.Gamma_at(i, k, l))
                    for mm in range(alg.s):
                        g1, g2 = G((i, mm, l)), G((j, k, mm))
                        if g1 and g2:
                            v = v + g1 * g2
                        g1, g2 = G((j, mm, l)), G((i, k, mm))
                        if g1 and g2:
                            v = v - g1 * g2
                    for mm in range(m):
                        c, g = C((i, j, mm)), G((mm, k, l))
                        if c and g:
                            v = v - c * g
                    if v:
                        comps[(i, j, k, l)] = v
    alg._curvature = CurvatureTensor(alg, comps)
    return alg._curvature


def d_L_derivation(alg: ChartAlgebroid) -> Derivation:
    """The homological vector field of L: anchor and bracket, zero on b.

    d_L = lam^i rho_i^j d/dx^j - (1/2) lam^i lam^j C_ij^k d/dlam^k
    """
    vals = {}
    for j in range(alg.n):
        acc = GradedElement.zero()
        for i in range(alg.rank):
            r = alg.rho.get((i, j))
            if r:
                acc = acc + alg.lam(i).scale(r)
        if acc:
            vals[GEN_X, j] = acc

    for k in range(alg.rank):
        acc = GradedElement.zero()
        for i in range(alg.rank):
            for j in range(alg.rank):
                c = alg.C.get((i, j, k))
                if c:
                    acc = acc + (alg.lam(i) * alg.lam(j)).scale(c * (-HALF))
        if acc:
            vals[(GEN_BETA, k) if k < alg.s else (GEN_ALPHA, k - alg.s)] = acc
    return Derivation(1, vals)


def nabla_derivation(alg: ChartAlgebroid) -> Derivation:
    """The connection as a degree-one derivation of the chart functions.

    nabla = d_L - lam^i Gamma_ij^k b^j d/db^k

    Computed once per chart; callers share the result and never mutate it.
    """
    if alg._nabla is not None:
        return alg._nabla
    vals = {}
    for k in range(alg.s):
        acc = GradedElement.zero()
        for i in range(alg.rank):
            for j in range(alg.s):
                g = alg.Gamma.get((i, j, k))
                if g:
                    acc = acc - (alg.lam(i) * GradedElement.bvar(j)).scale(g)
        if acc:
            vals[GEN_B, k] = acc
    alg._nabla = d_L_derivation(alg) + Derivation(1, vals)
    return alg._nabla


def nabla_a_derivation(alg: ChartAlgebroid) -> Derivation:
    """The component of nabla shifting bidegree by (1, 0).

    Restricted to alpha-only carriers this is the Chevalley-Eilenberg
    differential of A with coefficients twisted by the A-action on B.
    """
    return nabla_derivation(alg).bidegree_part(1, 0)


def d_A(alg: ChartAlgebroid, a):
    """Differential of A-valued forms on any carrier (matched pairs only)."""
    from .homotopy import is_aform
    from .sections import q_act

    if not alg.matched:
        raise ValueError("the A-differential on forms needs a matched pair")
    if not is_aform(a):
        raise ValueError("input must be an alpha-only carrier")
    return q_act(nabla_a_derivation(alg), a, "A-differential")
