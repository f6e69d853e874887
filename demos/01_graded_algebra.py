"""Tour of the graded coefficient algebra.

The calculus runs inside one free graded-commutative algebra: polynomial
coefficients in the base variables x, odd generators alpha (A-covectors)
and beta (B-covectors), and even fiber coordinates b.  Everything below
is exact rational arithmetic; nothing is numeric.
"""

from fractions import Fraction

from liepair import GradedElement, delta, element_str, homotopy_defect, iota_star, kappa
from liepair.graded import Derivation

a1 = GradedElement.alpha(0)
b1 = GradedElement.beta(0)
f1 = GradedElement.bvar(0)
x1 = GradedElement.xvar(0)

print("== generators and signs ==")
print("alpha1 * beta1          =", element_str(a1 * b1))
print("beta1 * alpha1          =", element_str(b1 * a1), "   (odd swap flips the sign)")
print("alpha1 * alpha1         =", element_str(a1 * a1), "                 (odd squares vanish)")
print("b1 * b1                 =", element_str(f1 * f1), "              (even powers survive)")

print()
print("== derivations obey the graded Leibniz rule ==")
# the degree +1 derivation sending b1 to beta1 is exactly delta
d = Derivation(1, {("b", 0): b1})
elem = a1 * f1 * f1
print("element                  ", element_str(elem))
print("delta applied            ", element_str(d.apply(elem)))
print("delta (operator form)    ", element_str(delta(elem)))

print()
print("== the contracting homotopy ==")
# kappa is the one-sided inverse of delta away from the alpha-only part:
# delta kappa + kappa delta + (projection) = identity on everything
mixed = a1 * b1 * f1 + x1 * f1 + a1.scale(Fraction(3, 2))
print("element                  ", element_str(mixed))
print("kappa(element)           ", element_str(kappa(mixed)))
print("alpha-only projection    ", element_str(iota_star(mixed)))
print("homotopy defect          ", element_str(homotopy_defect(mixed)), "  (identically zero)")
