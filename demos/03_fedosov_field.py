"""Building the flat fiberwise differential by recursive correction.

Start from the connection lift nabla minus the Koszul piece delta.  Its
square is curvature, not zero; the recursion adds fiber-degree
corrections X_2, X_3, ... chosen by the contracting homotopy so that the
total derivation D = nabla - delta + X squares to zero through the
working fiber window.
"""

from fractions import Fraction

from liepair import (
    build_fedosov,
    element_str,
    fedosov_x,
    flatness_defects,
    iota_star,
    load_chart,
    mu_lift,
    split_fedosov,
)
from liepair.graded import GradedElement
from liepair.sections import q_act

gamma = Fraction(1, 2)
alg = load_chart("fixtures/point_aff1.json", {"gamma": gamma}).alg

print(f"== correction field for the affine point pair, gamma = {gamma} ==")
x = fedosov_x(alg, max_b=6)
for r in range(2, 7):
    print(f"  fiber degree {r}:  {element_str(x.comp(0).part(r=r))}")

print()
print("== the corrected differential squares to zero ==")
fd = build_fedosov(alg, max_b=6)
defects = flatness_defects(fd)
print("defects:", defects if defects else "none (exact on x and odd generators, zero through the window on b)")

print()
print("== splitting D into its A and B parts ==")
da, db = split_fedosov(fd)
print("D_A acts on b1 as:", element_str(da.value("b", 0)))
print("D_B acts on b1 as:", element_str(db.value("b", 0)))

print()
print("== horizontal lift: the quasi-inverse of the alpha-only projection ==")
from liepair.sections import DSection

frame = DSection.basis(0)
m = mu_lift(fd, frame)
print("lift of the fiber frame section, component 1:")
print("   ", element_str(m.comp(0)))
print("projects back to the frame:", iota_star(m) == frame)
print(
    "killed by D_B through fiber degree",
    fd.window,
    ":",
    q_act(db, m, "demo").truncate(fd.window).is_zero(),
)
