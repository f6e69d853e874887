"""Named machine checks over a chart, grouped into four suites.

Each suite opens its checks in report order and returns them through
report._results.  The homotopy suite needs nothing but the chart dimensions;
the other three need valid data, so run_suites reports the structure
axioms once ahead of them and skips them when an axiom fails, and
invalid data reports cleanly instead of raising inside a construction.
"""

from __future__ import annotations

from .algebroid import curvature, d_A, d_L_derivation, nabla_derivation, validate_structure
from .atiyah import (
    atiyah_lie_pair,
    check_atiyah_comparison,
    d_hom,
    pair_as_hom,
    pair_is_symmetric,
    transgression_residual,
)
from .ddg import ModuleCurvature, module_curvature_components, split_dL
from .errors import InternalInvariantError
from .fedosov import (
    build_fedosov,
    commutator_defects,
    connection_square_residual,
    flatness_defects,
    mu_lift,
    split_fedosov,
)
from .graded import GradedElement
from .homotopy import _homotopy_defect, delta, delta_derivation, iota_star, kappa
from .random_elements import (
    random_aform,
    random_dsection,
    random_element,
    random_hom_aform,
    random_homsection,
    random_poly,
    rng,
)
from .report import _Check, _describe, _results
from .sections import DSection, bracket_with, q_act

SUITE_NAMES = ("homotopy", "fedosov", "atiyah", "ddg")


# -- homotopy ------------------------------------------------------------


def homotopy_suite(alg, seed: int = 1, rounds: int = 110) -> list:
    n, s, t = alg.n, alg.s, alg.t
    r = rng(seed)
    n_elem = max(rounds - 2 * (rounds // 4), 1)
    n_sec = rounds // 4
    n_hom = rounds // 4

    checks = []
    c_dd = _Check(checks, "delta_squared_zero")
    c_kk = _Check(checks, "kappa_squared_zero")
    c_hom = _Check(checks, "homotopy_identity")
    c_der = _Check(checks, "delta_agrees_with_derivation")
    c_rest = _Check(checks, "restriction_embedding_identities")

    dder = delta_derivation(s)

    def identities(label, a):
        """delta^2, kappa^2 and the homotopy identity on a; returns delta(a), iota_star(a)."""
        da, ka, ia = delta(a), kappa(a), iota_star(a)
        c_dd.expect_zero(label, delta(da))
        c_kk.expect_zero(label, kappa(ka))
        c_hom.expect_zero(label, _homotopy_defect(a, da, ka, ia))
        return da, ia

    for idx in range(n_elem):
        a = random_element(r, n, s, t, max_b=5, terms=3)
        da, ia = identities(f"element {idx}", a)
        c_der.expect_zero(f"element {idx}", da - dder.apply(a))
        c_rest.expect_zero(f"iota_star projection {idx}", iota_star(ia) - ia)
        form = random_aform(r, n, t, r.randint(0, min(t, 2)))
        c_rest.expect_zero(f"aform restriction {idx}", iota_star(form) - form)
    for idx in range(n_sec):
        y = random_dsection(r, n, s, t, r.randint(0, 2), max_b=4)
        dy, _ = identities(f"section {idx}", y)
        if y:
            c_der.expect_zero(f"section {idx}", dy - bracket_with(dder, y, "delta on a section"))
    for idx in range(n_hom):
        identities(f"hom {idx}", random_homsection(r, n, s, t, r.randint(0, 2), max_b=4))

    return _results(checks)


# -- structure axioms (the gate in run_suites and in cli._run) -------------


def axiom_checks(alg, names=None) -> list:
    """The structure axioms of validate_structure as checks, in its order and under its names.

    Residuals name the base variables by names (the chart's variables).
    cli._run gates validate, fedosov and atiyah on them; run_suites
    reports them as axiom_<name>.
    """
    checks = []
    for name, residuals in validate_structure(alg, names).items():
        _Check(checks, name).failures.extend(residuals)
    return _results(checks)


# -- connection and the flat differential --------------------------------


def fedosov_suite(alg, max_b: int = 4, seed: int = 2) -> list:
    checks = []
    r = rng(seed)

    c_anti = _Check(checks, "curvature_antisymmetric")
    R = curvature(alg)  # nonzero components only: a missing mirror reads as None
    c_anti.expect(
        "R_ijk^l = -R_jik^l", all(R.get((j, i, k, l)) == -v for (i, j, k, l), v in R.items())
    )

    c_sq = _Check(checks, "nabla_squared_equals_curvature_lift")
    c_sq.expect_zero("[nabla, nabla] - 2R", connection_square_residual(alg))

    fd = build_fedosov(alg, max_b)

    c_norm = _Check(checks, "correction_field_normalized")
    x = fd.x_field
    c_norm.expect_zero("kappa(X)", kappa(x))
    c_norm.expect_zero("iota_star(X)", iota_star(x))
    stray = x - x.truncate(max_b) + x.truncate(1)
    c_norm.expect_zero("fiber degrees outside [2, max]", stray)

    c_flat = _Check(checks, "differential_squares_to_zero")
    for gen, v in flatness_defects(fd).items():
        c_flat.expect_zero(f"D^2 on {gen}", v)

    if alg.matched:
        c_split = _Check(checks, "bidegree_split_exact")
        try:
            da, db = split_fedosov(fd)
        except InternalInvariantError as exc:
            c_split.expect(str(exc), False)
            return _results(checks)

        c_anti2 = _Check(checks, "split_components_anticommute")
        window = fd.window
        for label, d1, d2 in (
            ("[D_A, D_A]", da, da),
            ("[D_A, D_B]", da, db),
            ("[D_B, D_B]", db, db),
        ):
            for gen, v in commutator_defects(d1, d2, window).items():
                c_anti2.expect_zero(f"{label} on {gen}", v)

        c_mu = _Check(checks, "horizontal_lift_identities")
        samples = []
        for _ in range(4):
            samples.append(random_aform(r, alg.n, alg.t, r.randint(0, min(alg.t, 2))))
            samples.append(random_dsection(r, alg.n, alg.s, alg.t, 0, max_b=0))
        for _ in range(2):
            samples.append(
                random_hom_aform(
                    r,
                    alg.n,
                    alg.s,
                    alg.t,
                    r.randint(0, min(alg.t, 1)),
                    terms=1,
                    density=0.4,
                )
            )
        for idx, a in enumerate(samples):
            m = mu_lift(fd, a)
            c_mu.expect_zero(f"iota_star(mu(a)) - a, sample {idx}", iota_star(m) - a)
            c_mu.expect_zero(
                f"D_B mu(a) windowed, sample {idx}",
                q_act(db, m, "lift check", upto=window),
            )
            lhs = q_act(da, m, "lift check", upto=window)
            rhs = mu_lift(fd, d_A(alg, a), upto=window)
            c_mu.expect_zero(f"D_A mu(a) - mu(d_A a) windowed, sample {idx}", lhs - rhs)
    return _results(checks)


# -- the two cocycles ------------------------------------------------------


def atiyah_suite(alg, max_b: int = 4, seed: int = 3) -> list:
    checks = []
    r = rng(seed)
    fd = build_fedosov(alg, max_b)

    pair = atiyah_lie_pair(alg)
    c_sym = _Check(checks, "pair_cocycle_symmetric")
    c_sym.expect("At[a; j,k] = At[a; k,j]", pair_is_symmetric(pair))

    c_dsq = _Check(checks, "hom_differential_squares_windowed")
    for idx in range(4):
        phi = random_homsection(r, alg.n, alg.s, alg.t, idx % 2, max_b=1)
        # D lowers fiber degree by one at most, so the inner action needs one more
        resid = d_hom(fd, d_hom(fd, phi, upto=max_b - 1), upto=max_b - 2)
        c_dsq.expect_zero(f"d_hom^2 sample {idx}", resid)

    c_tr = _Check(checks, "transgression_exact")
    for idx in range(3):
        twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
        c_tr.expect_zero(f"shift sample {idx}", transgression_residual(fd, twist))

    if alg.matched:
        c_closed = _Check(checks, "pair_cocycle_closed")
        c_closed.expect_zero("d_A At", d_A(alg, pair_as_hom(pair, alg.s)))

        c_cmp = _Check(checks, "cocycle_comparison")
        c_cmp.expect_zero("no shift", check_atiyah_comparison(fd, pair=pair))
        for idx in range(3):
            twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
            c_cmp.expect_zero(f"shift sample {idx}", check_atiyah_comparison(fd, twist, pair))
    return _results(checks)


# -- the bracket differential and the module curvature ---------------------


def ddg_suite(alg, seed: int = 4) -> list:
    checks = []
    r = rng(seed)

    dl = d_L_derivation(alg)
    c_sq = _Check(checks, "bracket_differential_squares_zero")
    c_sq.expect_zero("[d_L, d_L]", dl.commutator(dl))

    c_split = _Check(checks, "bracket_differential_splits")
    try:
        d10, d01, dm12 = split_dL(alg)
    except ValueError as exc:
        c_split.expect(str(exc), False)
        return _results(checks)
    # the parts are dl's own, formed once; their sum is rebuilt and compared with dl's values
    c_split.expect_zero("d10 + d01 + dm12 - d_L", (d10 + d01 + dm12) - dl)

    c_pieces = _Check(checks, "bidegree_piece_identities")
    c_pieces.expect_zero("[d10, d10]", d10.commutator(d10))
    c_pieces.expect_zero("[d10, d01]", d10.commutator(d01))
    c_pieces.expect_zero(
        "[d01, d01] + 2[d10, dm12]", d01.commutator(d01) + d10.commutator(dm12).scale(2)
    )
    c_pieces.expect_zero("[d01, dm12]", d01.commutator(dm12))
    c_pieces.expect_zero("[dm12, dm12]", dm12.commutator(dm12))

    if alg.matched:
        c_m12 = _Check(checks, "matched_minus12_vanishes")
        c_m12.expect_zero("dm12", dm12)

        c_naflat = _Check(checks, "a_connection_flat")
        na = nabla_derivation(alg).bidegree_part(1, 0)
        c_naflat.expect_zero("[nabla_A, nabla_A]", na.commutator(na))

        mc = ModuleCurvature(alg)
        sample_sections = [DSection.basis(k) for k in range(alg.s)]
        for _ in range(5):
            y = random_dsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
            if y:
                sample_sections.append(y)

        # R_m(y) once per sample, the frame fields first: three checks below read it
        applied = [mc.apply(y) for y in sample_sections]
        c_routes = _Check(checks, "module_curvature_routes_agree")
        for idx, (y, ry) in enumerate(zip(sample_sections, applied)):
            c_routes.expect_zero(f"sample {idx}", ry - mc.apply_via_mixed(y))

        c_match = _Check(checks, "module_curvature_matches_cocycle")
        got = module_curvature_components(alg, applied[:alg.s])
        want = {key: GradedElement.from_poly(v) for key, v in atiyah_lie_pair(alg).items()}
        for key in sorted(got.keys() | want.keys()):
            g, w = got.get(key), want.get(key)
            c_match.expect(
                f"component {key}: frame gives {_describe(g) if g else '0'}, "
                f"cocycle gives {_describe(w) if w else '0'}",
                g == w,
            )

        c_lin = _Check(checks, "module_curvature_function_linear")
        for idx in range(5):
            f = GradedElement.from_poly(random_poly(r, alg.n))
            y = random_dsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
            c_lin.expect_zero(
                f"sample {idx}", mc.apply(y.mul_left(f)) - mc.apply(y).mul_left(f)
            )

        c_d10 = _Check(checks, "module_curvature_d10_commutes")
        for idx, (y, ry) in enumerate(zip(sample_sections, applied)):
            c_d10.expect_zero(f"sample {idx}", mc.d10(ry) - mc.apply(mc.d10(y)))
    return _results(checks)


def run_suites(alg, which: str = "all", max_b: int = 4, seed: int = 7, names=None) -> list:
    if which not in SUITE_NAMES + ("all",):
        raise ValueError(f"unknown suite {which!r}")
    checks = []
    if which in ("all", "homotopy"):
        checks.extend(homotopy_suite(alg, seed=seed))
    if which == "homotopy":
        return checks
    axioms = [c._replace(name="axiom_" + c.name) for c in axiom_checks(alg, names)]
    checks.extend(axioms)
    if not all(c.passed for c in axioms):
        return checks
    if which in ("all", "fedosov"):
        checks.extend(fedosov_suite(alg, max_b=max_b, seed=seed + 1))
    if which in ("all", "atiyah"):
        checks.extend(atiyah_suite(alg, max_b=max_b, seed=seed + 2))
    if which in ("all", "ddg"):
        checks.extend(ddg_suite(alg, seed=seed + 3))
    return checks
