"""One gate for carriers: every operator refuses what its chart cannot hold.

sections._check_carrier serves d_A, d_hom, atiyah_dg,
transgression_residual, check_atiyah_comparison and mu_lift.  The
carriers below name a generator that aff_pair (dim_base 0, rank_B 2,
rank_A 1) does not have.  A gate that checked the rank alone let the
first five operators treat such a generator as a constant and return a
result.
"""

import pytest

from liepair import algebroid, atiyah
from liepair.algebroid import ChartAlgebroid, d_A
from liepair.atiyah import atiyah_dg, check_atiyah_comparison, d_hom, transgression_residual
from liepair.fedosov import build_fedosov, mu_lift
from liepair.graded import GradedElement
from liepair.sections import DSection, HomSection, _check_carrier

from conftest import build

ONE = GradedElement.one()
A0, B0, F0 = GradedElement.alpha(0), GradedElement.beta(0), GradedElement.bvar(0)
MISSING = {"beta3": GradedElement.beta(2), "b3": GradedElement.bvar(2),
           "alpha2": GradedElement.alpha(1), "x1": GradedElement.xvar(0)}


def _hom(c):
    return HomSection(2, {(0, 1, 0): c})


OPERATORS = {
    "d_hom": lambda fd, c: d_hom(fd, _hom(c)),
    "d_A": lambda fd, c: d_A(fd.alg, c),
    "atiyah_dg": lambda fd, c: atiyah_dg(fd, _hom(c)),
    "transgression_residual": lambda fd, c: transgression_residual(fd, _hom(c)),
    "check_atiyah_comparison": lambda fd, c: check_atiyah_comparison(fd, _hom(c)),
    "mu_lift": lambda fd, c: mu_lift(fd, c),
}
# a connection shift has degree zero, so it can hold b3 or x1 but no odd generator
CASES = [(op, gen) for op in ("d_hom", "d_A", "mu_lift") for gen in MISSING] + [
    (op, gen)
    for op in ("atiyah_dg", "transgression_residual", "check_atiyah_comparison")
    for gen in ("b3", "x1")
]


@pytest.fixture(scope="module")
def fd():
    return build_fedosov(build("aff_pair"), 3)


@pytest.mark.parametrize("op, gen", CASES)
def test_every_operator_refuses_a_generator_the_chart_lacks(fd, op, gen):
    with pytest.raises(ValueError, match=f"has {gen}, the chart has"):
        OPERATORS[op](fd, MISSING[gen])


@pytest.mark.parametrize("a", [ONE, DSection({0: ONE})], ids=["function", "section"])
def test_d_hom_and_the_shift_readers_take_a_hom_tensor_only(fd, a):
    # d_hom used to raise AttributeError: ... no attribute 's'
    with pytest.raises(TypeError, match="Hom-tensor must be a HomSection"):
        d_hom(fd, a)
    for fn in (atiyah_dg, transgression_residual, check_atiyah_comparison):
        with pytest.raises(TypeError, match="connection shift must be a HomSection"):
            fn(fd, a)


def _alpha_only(a, s=2):
    """True when the gate passes a as alpha-only on a chart of rank_B s."""
    try:
        _check_carrier(ChartAlgebroid(0, s, 1), a, "input", aform=True)
    except ValueError as exc:
        assert "must be an alpha-only carrier" in str(exc), exc
        return False
    return True


def test_the_alpha_only_gate_on_every_carrier():
    assert _alpha_only(A0) and _alpha_only(GradedElement.zero())
    assert not (_alpha_only(B0) or _alpha_only(F0) or _alpha_only(A0 + A0 * F0))
    assert _alpha_only(DSection({0: A0})) and not _alpha_only(DSection({0: A0, 1: B0}))
    assert _alpha_only(HomSection(1, {(0, 0, 0): A0}), s=1)
    assert not _alpha_only(HomSection(1, {(0, 0, 0): A0 + A0 * F0}), s=1)
    with pytest.raises(TypeError):
        _alpha_only(1)
    # without the flag, the chart holds each of them
    for a in (B0, F0, A0 + A0 * F0, DSection({0: A0, 1: B0})):
        _check_carrier(ChartAlgebroid(0, 2, 1), a, "input")


def test_each_reader_gates_its_carrier_once(fd, monkeypatch):
    # atiyah_dg and transgression_residual form d_hom(T) by hom_bracket once
    # _check_shift has passed T; d_A gates the restricted shift of the comparison
    seen = []

    def counted(chart, a, what, **kwargs):
        seen.append(what)
        return _check_carrier(chart, a, what, **kwargs)

    for module in (algebroid, atiyah):
        monkeypatch.setattr(module, "_check_carrier", counted)
    twist = HomSection(2, {(0, 1, 0): ONE, (1, 1, 1): F0})
    shift, a_input = ["connection shift"], ["A-differential input"]
    calls = [
        (lambda: atiyah_dg(fd), []),
        (lambda: atiyah_dg(fd, twist), shift),
        (lambda: atiyah_dg(fd, twist, 1), shift),
        (lambda: transgression_residual(fd, twist), shift),
        (lambda: check_atiyah_comparison(fd, twist), shift + a_input),
        (lambda: d_hom(fd, twist), ["Hom-tensor"]),
        (lambda: d_A(fd.alg, _hom(A0)), a_input),
    ]
    for idx, (call, want) in enumerate(calls):
        seen.clear()
        call()
        assert seen == want, idx
