"""The generators of random_elements.py against the ones they replaced.

Passing verify reports carry no samples, so neither the golden files nor
the benchmark digests would notice a changed draw.  Each case runs the
new generator and the reference (tests/reference_random.py) on two
generators with the same seed, and asks for equal values and equal
generator states afterwards: the same draws, in the same order.
"""

from itertools import product

import pytest

import reference_random as ref
from liepair import random_elements as new
from liepair.graded import MAX_FIBER, MAX_INDEX, GradedElement, Monomial
from liepair.poly import MAX_EXP, MAX_VARS

SEEDS = range(12)
# (n, s, t), with each of n, s and t at 0 somewhere
SHAPES = list(product((0, 1, 3), (0, 1, 2), (0, 1, 3)))


def _elements(value):
    """The GradedElements inside a drawn value."""
    if isinstance(value, GradedElement):
        return [value]
    if hasattr(value, "comps"):
        return list(value.comps.values())
    return []


def same_draws(name, *args, **kwargs):
    for seed in SEEDS:
        r_new, r_ref = new.rng(seed), ref.rng(seed)
        got = getattr(new, name)(r_new, *args, **kwargs)
        want = getattr(ref, name)(r_ref, *args, **kwargs)
        assert got == want, (name, args, kwargs, seed)
        assert r_new.getstate() == r_ref.getstate(), (name, args, kwargs, seed)
        for e in _elements(got):
            assert all(type(m) is Monomial for m in e.num), (name, args, seed)


@pytest.mark.parametrize("n", (0, 1, 3, MAX_VARS))
def test_random_poly_draws(n):
    for max_degree, terms in product((0, 2, 5), (0, 1, 4)):
        same_draws("random_poly", n, max_degree, terms)
    same_draws("random_poly", n)


@pytest.mark.parametrize("shape", SHAPES)
def test_random_element_draws(shape):
    n, s, t = shape
    for max_b, terms in ((0, 1), (3, 3), (5, 6)):
        same_draws("random_element", n, s, t, max_b, terms)
        for degree in range(4):
            same_draws("random_homogeneous", n, s, t, degree, max_b, terms)
    for degree, terms in product(range(5), (1, 3)):
        same_draws("random_aform", n, t, degree, terms)


@pytest.mark.parametrize("shape", SHAPES)
def test_random_carrier_draws(shape):
    n, s, t = shape
    for degree in range(3):
        same_draws("random_dsection", n, s, t, degree, max_b=2)
        same_draws("random_homsection", n, s, t, degree, max_b=1)
        same_draws("random_hom_aform", n, s, t, degree, terms=1, density=0.4)


def test_shapes_past_the_packed_keys_raise_before_any_draw():
    cases = [
        ("random_poly", (MAX_VARS + 1,)),
        ("random_poly", (1, MAX_EXP + 1)),
        ("random_element", (1, MAX_INDEX + 1, 1)),
        ("random_element", (1, 1, MAX_INDEX + 1)),
        ("random_element", (1, 1, 1, MAX_FIBER + 1)),
        ("random_homogeneous", (MAX_VARS + 1, 1, 1, 1)),
        ("random_aform", (1, MAX_INDEX + 1, 1)),
        ("random_dsection", (1, MAX_INDEX + 1, 1, 0)),
        ("random_homsection", (1, 1, 1, 0, MAX_FIBER + 1)),
        ("random_hom_aform", (1, 1, MAX_INDEX + 1, 0)),
    ]
    for name, args in cases:
        r = new.rng(1)
        state = r.getstate()
        with pytest.raises(ValueError):
            getattr(new, name)(r, *args)
        assert r.getstate() == state, (name, args)


def test_below_draws_as_randrange():
    # n = 1 still draws one bit; powers of two and their neighbours
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 255, 256, 2**40 + 1):
        r_new, r_ref = new.rng(n), ref.rng(n)
        for _ in range(50):
            assert new._below(r_new, n) == r_ref.randrange(n), n
        assert r_new.getstate() == r_ref.getstate(), n


def test_odd_keys_draw_as_sample_in_both_of_its_branches():
    # sample keeps a pool for count <= 21 or k > 5, and a set of the drawn
    # indices otherwise (count 22..32 with k <= 5): both are met here
    for count in range(MAX_INDEX + 1):
        for k in range(min(count, 8) + 1):
            r_new, r_ref = new.rng(count * 10 + k), ref.rng(count * 10 + k)
            for _ in range(6):
                want = sum(1 << 8 + i for i in r_ref.sample(range(count), k))
                assert new._odd_key(r_new, count, k, 8) == want, (count, k)
            assert r_new.getstate() == r_ref.getstate(), (count, k)
    with pytest.raises(ValueError):
        new._odd_key(new.rng(0), 3, 4, 8)
