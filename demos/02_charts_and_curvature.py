"""Presenting a Lie pair in one chart and checking its axioms.

A chart presentation is a triple of polynomial tables: the anchor rho,
antisymmetric bracket constants C, and connection coefficients Gamma.
The validator returns a dict {axiom name: list of residual strings},
with an empty list for each axiom that holds, and the curvature of the
connection is computed symbolically as a dict of its nonzero components
{(i, j, k, l): polynomial}.
"""

from fractions import Fraction

from liepair import curvature, load_chart, validate_structure

print("== a rank 1+1 pair over a line, loaded from its JSON description ==")
chart = load_chart("fixtures/line_action.json")
alg = chart.alg
print("dim_base =", alg.n, " rank_B =", alg.s, " rank_A =", alg.t, " matched =", alg.matched)

for name, residuals in validate_structure(alg).items():
    print(f"  {'FAIL' if residuals else 'PASS'} {name}")

R = curvature(alg)
print("curvature R[A1,B1]B1 ->", R[(1, 0, 0, 0)].to_str(chart.variables))

print()
print("== a parametric chart: the file's gamma is overridden at load time ==")
for g in (Fraction(1), Fraction(5, 3)):
    alg = load_chart("fixtures/point_aff1.json", {"gamma": g}).alg
    print(f"gamma = {g}:  R[A1,B1]B1 = {curvature(alg)[(1, 0, 0, 0)].to_str([])}")

print()
print("== broken structure constants are caught, not silently accepted ==")
bad = load_chart("fixtures/broken_jacobi.json").alg
for name, residuals in validate_structure(bad).items():
    if residuals:
        print(f"  FAIL {name}: {residuals[0]}")
