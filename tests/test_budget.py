"""The fiber-degree budget: a budgeted result is the truncated exact one."""

from liepair.fedosov import build_fedosov, split_fedosov
from liepair.random_elements import (
    random_derivation,
    random_dsection,
    random_element,
    random_homsection,
    rng,
)
from liepair.sections import q_act

from conftest import MATCHED_NAMES, VALID_NAMES, build, table

BUDGETS = range(6)
N, S, T = 2, 2, 2


def test_mul_budget_is_truncation():
    r = rng(201)
    for _ in range(12):
        a = random_element(r, N, S, T, max_b=4)
        b = random_element(r, N, S, T, max_b=4)
        full = a * b
        for upto in BUDGETS:
            assert a.mul(b, upto) == full.truncate(upto), upto


def test_apply_budget_is_truncation():
    r = rng(202)
    for idx in range(12):
        d = random_derivation(r, N, S, T, idx % 3 - 1, max_b=3)
        a = random_element(r, N, S, T, max_b=5)
        full = d.apply(a)
        for upto in BUDGETS:
            assert d.apply(a, upto) == full.truncate(upto), (idx, upto)


def test_commutator_budget_windows_b_values_only():
    r = rng(203)
    for idx in range(8):
        d1 = random_derivation(r, N, S, T, idx % 2, max_b=3)
        d2 = random_derivation(r, N, S, T, 1, max_b=3)
        full = d1.commutator(d2)
        for upto in BUDGETS:
            got = d1.commutator(d2, upto)
            assert got.degree == full.degree
            assert table(got, "x") == table(full, "x"), (idx, upto)
            assert table(got, "alpha") == table(full, "alpha"), (idx, upto)
            assert table(got, "beta") == table(full, "beta"), (idx, upto)
            want_b = {i: v.truncate(upto) for i, v in table(full, "b").items()}
            assert table(got, "b") == {i: v for i, v in want_b.items() if v}, (idx, upto)


def test_q_act_budget_is_truncation_on_every_carrier():
    r = rng(204)
    for name in VALID_NAMES:
        alg = build(name)
        fd = build_fedosov(alg, 3)
        ops = [fd.D, *split_fedosov(fd)] if name in MATCHED_NAMES else [fd.D]
        carriers = [
            random_element(r, alg.n, alg.s, alg.t, max_b=4, terms=2),
            random_dsection(r, alg.n, alg.s, alg.t, r.randint(0, 1), max_b=4),
            random_homsection(r, alg.n, alg.s, alg.t, r.randint(0, 1), max_b=2),
        ]
        for q in ops:
            for a in carriers:
                full = q_act(q, a, "budget test")
                for upto in BUDGETS:
                    got = q_act(q, a, "budget test", upto=upto)
                    assert got == full.truncate(upto), (name, type(a).__name__, upto)
