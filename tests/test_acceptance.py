"""Acceptance gate: one test per shipped guarantee, one line per run.

Each test prints its own PASS line on success; with `pytest -v` every
criterion also shows up as exactly one PASSED/FAILED row.
"""

import os
import time
from fractions import Fraction

import liepair.cli as cli
from liepair.algebroid import curvature, d_A, nabla_derivation, validate_structure
from liepair.atiyah import atiyah_dg, atiyah_lie_pair, check_atiyah_comparison, transgression_residual
from liepair.fedosov import (
    build_fedosov,
    connection_square_residual,
    flatness_defects,
    mu_lift,
    r_dual,
    split_fedosov,
)
from liepair.homotopy import iota_star
from liepair.poly import Poly
from liepair.random_elements import (
    random_aform,
    random_hom_aform,
    random_homsection,
    random_poly,
    rng,
)
from liepair.sections import q_act
from liepair.suites import atiyah_suite, ddg_suite, homotopy_suite

from conftest import MATCHED_NAMES, VALID_NAMES, build, fixture_path


def _assert_all(checks, label):
    bad = [c for c in checks if not c.passed]
    assert not bad, (label, [(c.name, c.residuals[:2]) for c in bad])


def test_criterion_1_homotopy_identities():
    # >= 100 random carriers per fixture, fiber degree <= 5, under 10s each
    for name in VALID_NAMES:
        alg = build(name)
        started = time.monotonic()
        checks = homotopy_suite(alg, seed=101, rounds=110)
        elapsed = time.monotonic() - started
        _assert_all(checks, name)
        assert elapsed < 10.0, (name, elapsed)
    print("PASS criterion 1: homotopy identities on >=110 random carriers per fixture")


def test_criterion_2_connection_suite():
    for name in VALID_NAMES:
        alg = build(name)
        R = curvature(alg)
        assert all(R.get((j, i, k, l)) == -v for (i, j, k, l), v in R.items()), name
        assert connection_square_residual(alg).is_zero(), name
        if alg.matched:
            nb = nabla_derivation(alg)
            na, nbb = nb.bidegree_part(1, 0), nb.bidegree_part(0, 1)
            assert (na + nbb) == nb, name
            mixed = na.commutator(nbb)
            assert mixed == r_dual(alg).as_derivation().bidegree_part(1, 1), name
    print("PASS criterion 2: connection and curvature identities on every fixture")


def test_criterion_3_flat_differential_both_bounds():
    for name in VALID_NAMES:
        for max_b in (4, 5):
            started = time.monotonic()
            fd = build_fedosov(build(name), max_b)
            assert flatness_defects(fd) == {}, (name, max_b)
            elapsed = time.monotonic() - started
            if max_b == 5:
                assert elapsed < 60.0, (name, elapsed)
    print("PASS criterion 3: differential squares to zero at bounds 4 and 5")


def test_criterion_4_quasi_isomorphism_bulk():
    for name in MATCHED_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 3)
        da, db = split_fedosov(fd)
        w = fd.window
        r = rng(104)
        for i in range(50):
            phi = random_hom_aform(
                r, alg.n, alg.s, alg.t,
                r.randint(0, min(alg.t, 1)), terms=1, density=0.4,
            )
            m = mu_lift(fd, phi)
            assert iota_star(m) == phi, (name, i)
            assert q_act(db, m, "lift").truncate(w).is_zero(), (name, i)
        if alg.t:
            for i in range(5):
                a = random_aform(r, alg.n, alg.t, r.randint(0, min(alg.t, 1)), terms=2)
                m = mu_lift(fd, a)
                lhs = q_act(da, m, "lift").truncate(w)
                rhs = mu_lift(fd, d_A(alg, a)).truncate(w)
                assert lhs == rhs, (name, i)
    print("PASS criterion 4: 50 Hom-valued lift round trips per matched fixture")


def test_criterion_5_cocycle_suites_and_transgression():
    for name in VALID_NAMES:
        alg = build(name)
        _assert_all(atiyah_suite(alg, max_b=4, seed=105), name)
        fd = build_fedosov(alg, 4)
        r = rng(1050)
        lean = alg.n >= 2
        for i in range(20):
            twist = (
                random_hom_aform(r, alg.n, alg.s, alg.t, 0, terms=1, density=0.4)
                if lean
                else random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
            )
            assert transgression_residual(fd, twist).is_zero(), (name, i)
    print("PASS criterion 5: cocycle suites plus 20 exact transgressions per fixture")


def test_criterion_6_comparison_of_the_two_cocycles():
    g = Fraction(5, 3)
    named = (
        ("point_aff1", build("point_aff1", gamma=g)),
        ("line_action", build("line_action")),
        ("tangent_only", build("tangent_only")),
    )
    for name, alg in named:
        fd = build_fedosov(alg, 4)
        assert check_atiyah_comparison(fd).is_zero(), name
        r = rng(106)
        lean = alg.n >= 2
        for i in range(20):
            twist = (
                random_hom_aform(r, alg.n, alg.s, alg.t, 0, terms=1, density=0.4)
                if lean
                else random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
            )
            assert check_atiyah_comparison(fd, twist).is_zero(), (name, i)
    # the two frozen scalar values
    assert atiyah_lie_pair(build("point_aff1", gamma=g)) == {
        (0, 0, 0, 0): Poly.const(-g)
    }
    assert atiyah_lie_pair(build("line_action")) == {
        (0, 0, 0, 0): Poly.const(2) * Poly.variable(0)
    }
    print("PASS criterion 6: restricted cocycle equals the pair cocycle, any shift")


def test_criterion_7_bracket_differential_and_module_curvature():
    for name in VALID_NAMES:
        _assert_all(ddg_suite(build(name), seed=107), name)
    print("PASS criterion 7: bracket differential identities and module curvature")


def test_criterion_8_interfaces():
    r = rng(108)
    names = ["x", "y", "z"]
    from liepair.expressions import parse_poly, poly_str

    for i in range(1000):
        p = random_poly(r, 3, max_degree=3, terms=4)
        assert parse_poly(poly_str(p, names), names) == p, i
    sink = ["--output", os.devnull]
    for name in VALID_NAMES:
        code = cli.main(["verify", "--input", fixture_path(name), "--suite", "all"] + sink)
        assert code == 0, name
    assert (
        cli.main(
            ["verify", "--input", fixture_path("broken_jacobi"), "--suite", "all"] + sink
        )
        == 1
    )
    print("PASS criterion 8: parser round trips and command line verdicts")
