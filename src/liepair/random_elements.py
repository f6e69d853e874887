"""Seeded random data for the verification suites and property tests.

Everything is driven by an explicit random.Random so failures replay
exactly; no generator touches global random state.

Every integer draw goes through _below(r, n), which draws exactly what
CPython's Random._randbelow_with_getrandbits draws for randrange(n):
getrandbits(n.bit_length()) until the value is below n.  So randint,
randrange and choice, and sample(range(n), k) by its own pool or set
rule (_odd_key), are replayed draw for draw with fewer calls; r.random()
is called as it is.

The draws go straight into the packed store of graded.py.  Every drawn
coefficient is r.randint(-4, 4) / r.randint(1, 3), so the numerators
are summed over the common denominator 6 and each result is reduced
once.  Shapes the packed keys cannot hold raise ValueError before any
draw: more than MAX_VARS base variables, more than MAX_INDEX odd or
fiber indices (s, t), a fiber degree past MAX_FIBER or a base degree
past MAX_EXP.
"""

from __future__ import annotations

import random
from itertools import product

from .graded import _ALPHA0, _BETA0, MAX_FIBER, MAX_INDEX
from .graded import GradedElement, Monomial, _b_unit, _reduced
from .poly import _W, MAX_EXP, MAX_VARS, Poly, _canonical
from .sections import DSection, HomSection

_DEN = 6  # the lcm of the drawn denominators 1, 2 and 3


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def _check(n=0, s=0, t=0, max_b=0, max_degree=2):
    if n > MAX_VARS or max(s, t) > MAX_INDEX or max_b > MAX_FIBER or max_degree > MAX_EXP:
        raise ValueError(f"n={n}, s={s}, t={t}, fiber degree {max_b} or base degree "
                         f"{max_degree} is past the packed keys (module docstring)")


def _below(r: random.Random, n):
    """r.randrange(n) for n >= 1, by the draws of CPython's _randbelow_with_getrandbits."""
    k = n.bit_length()
    x = r.getrandbits(k)
    while x >= n:
        x = r.getrandbits(k)
    return x


def _draw_poly(r: random.Random, n, max_degree, terms, out: dict):
    """Add the numerators over _DEN of one random polynomial to out {base key: int}."""
    for _ in range(terms):
        # r.randint(-4, 4) * (_DEN // r.randint(1, 3))
        c = (_below(r, 9) - 4) * (_DEN // (_below(r, 3) + 1))
        if not c:
            continue
        key = 0
        if n:
            for _ in range(_below(r, max_degree + 1)):
                key += 1 << _W * _below(r, n)
        out[key] = out.get(key, 0) + c


def _element(num: dict) -> GradedElement:
    """The element of the numerators num {Monomial: {base key: int}} over _DEN."""
    kept = {}
    for m, t in num.items():
        if t := {k: v for k, v in t.items() if v}:
            kept[m] = t
    return _reduced(kept, _DEN)


def random_poly(r: random.Random, n: int, max_degree: int = 2, terms: int = 2) -> Poly:
    _check(n, max_degree=max_degree)
    out = {}
    _draw_poly(r, n, max_degree, terms, out)
    return _canonical({k: v for k, v in out.items() if v}, _DEN)


def _odd_key(r: random.Random, count, k, at):
    """k distinct indices below count <= MAX_INDEX as the bits at + i, drawn as
    r.sample(range(count), k) draws them."""
    if not 0 <= k <= count:
        raise ValueError("Sample larger than population or is negative")
    key = 0
    # sample keeps a pool when count is at most its set size: 21, and for
    # k > 5 at least 85, past every count here
    if count <= 21 or k > 5:
        pool = list(range(count))
        for i in range(k):
            j = _below(r, count - i)
            key |= 1 << at + pool[j]
            pool[j] = pool[count - i - 1]
    else:  # a set of the indices drawn: draw again on a repeat
        while k:
            i = _below(r, count)
            if not key >> at + i & 1:
                key |= 1 << at + i
                k -= 1
    return key


def _random_monomial(r: random.Random, s, t, p: int, q: int, max_b: int) -> Monomial:
    """p alpha and q beta indices, then the b-part, drawn in that order."""
    key = _odd_key(r, t, p, _ALPHA0) | _odd_key(r, s, q, _BETA0)
    if s:
        for _ in range(_below(r, max_b + 1)):
            key += _b_unit(_below(r, s))
    return int.__new__(Monomial, key)


def random_element(r: random.Random, n, s, t, max_b: int = 3, terms: int = 3) -> GradedElement:
    """Mixed-degree element; suited to operator identities on functions."""
    _check(n, s, t, max_b)
    num = {}
    for _ in range(terms):
        p = _below(r, t + 1)
        mon = _random_monomial(r, s, t, p, _below(r, s + 1), max_b)
        _draw_poly(r, n, 2, 2, num.setdefault(mon, {}))
    return _element(num)


def random_homogeneous(r: random.Random, n, s, t, degree: int,
                       max_b: int = 3, terms: int = 3) -> GradedElement:
    """Random element of one total degree (possibly zero if unrealizable)."""
    _check(n, s, t, max_b)
    splits = [(p, degree - p) for p in range(degree + 1) if p <= t and degree - p <= s]
    if not splits:
        return GradedElement()
    num = {}
    for _ in range(terms):
        mon = _random_monomial(r, s, t, *splits[_below(r, len(splits))], max_b)
        _draw_poly(r, n, 2, 2, num.setdefault(mon, {}))
    return _element(num)


def random_aform(r: random.Random, n, t, degree: int, terms: int = 3) -> GradedElement:
    """Alpha-only element: no betas, no b powers."""
    _check(n, t=t)
    if degree > t:
        return GradedElement.zero()
    num = {}
    for _ in range(terms):
        mon = int.__new__(Monomial, _odd_key(r, t, degree, _ALPHA0))
        _draw_poly(r, n, 2, 2, num.setdefault(mon, {}))
    return _element(num)


def random_dsection(r: random.Random, n, s, t, degree: int, max_b: int = 3) -> DSection:
    _check(n, s, t, max_b)
    comps = {}
    for k in range(s):
        if r.random() < 0.75 and (c := random_homogeneous(r, n, s, t, degree, max_b)):
            comps[k] = c
    return DSection(comps)


def random_homsection(r: random.Random, n, s, t, degree: int, max_b: int = 3) -> HomSection:
    _check(n, s, t, max_b)
    return _random_hom(r, s, 0.5, lambda: random_homogeneous(r, n, s, t, degree, max_b, terms=2))


def random_hom_aform(
    r: random.Random, n, s, t, degree: int, terms: int = 2, density: float = 0.5
) -> HomSection:
    """Hom-tensor whose coefficients are alpha-only forms of one degree."""
    _check(n, s, t)
    return _random_hom(r, s, density, lambda: random_aform(r, n, t, degree, terms=terms))


def _random_hom(r, s, density, draw) -> HomSection:
    """Each component (i, j, k) in order: with probability density, a value drawn by draw()."""
    comps = {}
    for key in product(range(s), repeat=3):
        if r.random() < density and (c := draw()):
            comps[key] = c
    return HomSection(s, comps)
