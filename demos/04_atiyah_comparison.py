"""The two cocycles and why they agree.

A matched chart carries two invariants of the same kind: the classical
cocycle of the pair, read off the mixed curvature components, and the
cocycle of the corrected differential, read off second fiber
derivatives.  Restricting the second to the alpha-only part reproduces
the first exactly, for any degree-0 shift of the reference connection.
"""

from fractions import Fraction

from liepair import (
    atiyah_dg,
    atiyah_lie_pair,
    build_fedosov,
    check_atiyah_comparison,
    element_str,
    iota_star,
    load_chart,
)
from liepair.atiyah import pair_is_symmetric
from liepair.random_elements import random_homsection, rng

gamma = Fraction(2)
alg = load_chart("fixtures/aff_pair.json", {"gamma": gamma}).alg
fd = build_fedosov(alg, max_b=4)

print(f"== pair cocycle of the rank 2+1 fixture, gamma = {gamma} ==")
pair = atiyah_lie_pair(alg)
for (a, j, k, l), v in pair.items():
    print(f"  alpha{a+1}; (B{j+1},B{k+1}) -> B{l+1}:  {v.to_str([])}")
print("symmetric in the two B slots:", pair_is_symmetric(pair))

print()
print("== cocycle of the corrected differential, restricted ==")
dg = iota_star(atiyah_dg(fd))
for (i, j, k), v in sorted(dg.comps.items()):
    print(f"  (B{i+1},B{j+1}) -> B{k+1}:  {element_str(v)}")

print()
resid = check_atiyah_comparison(fd)
print("difference of the two:", "0" if resid.is_zero() else "NONZERO")

print()
print("== independence of the reference connection ==")
r = rng(2024)
for trial in range(3):
    twist = random_homsection(r, alg.n, alg.s, alg.t, 0, max_b=2)
    resid = check_atiyah_comparison(fd, twist)
    print(f"  random shift {trial + 1}: residual is zero -> {resid.is_zero()}")
