"""calculus.anchored_morphism, which reads its components one grid point
at a time, against the per-point construction kept in tests/oracles.py, on
eta, restrictions of morphisms, the smoothing and discretization witnesses
and the cell-summand sampler's pair, and the order of its comp calls."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from obspers import library
from obspers.calculus import (anchored_morphism, eta, eta_on, lattice_grid, restrict_morphism,
                              restriction_pair, smooth)
from obspers.fields import PrimeField
from obspers.stability import _sample_cell_summand
from obspers.stepmodule import Grid, union_grids

from conftest import assert_same_morphism
from oracles import (oracle_anchored_morphism, oracle_cell_summand_pair,
                     oracle_restriction_pair, oracle_smooth_f)

seeds = st.integers(min_value=0, max_value=10 ** 6)
primes = st.sampled_from([2, 3])
coords = st.fractions(min_value=-2, max_value=6, max_denominator=6)
axis_ticks = st.lists(coords, min_size=1, max_size=4, unique=True).map(sorted)
grids = st.tuples(axis_ticks, axis_ticks).map(lambda axes: Grid(tuple(map(tuple, axes))))
epsilons = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])


def module(seed, p):
    return library.random_module(PrimeField(p), np.random.default_rng(seed))


@settings(max_examples=30)
@given(seeds, primes, epsilons, grids)
def test_anchored_morphism_matches_per_point_oracle(seed, p, eps, other):
    v = module(seed, p)
    fine = union_grids(v.grid, v.grid.translate(-eps), v.grid.translate(Fraction(1, 3)))
    assert_same_morphism(eta_on(v, eps, fine), oracle_anchored_morphism(
        v, v, eps, fine, lambda q, a, b: v.path_map(a, b)))
    e = eta(v, eps)
    assert_same_morphism(restrict_morphism(e, other), oracle_anchored_morphism(
        e.source, e.target, 0, other, lambda q, a, b: e.comps[a]))
    res = smooth(v, eps)
    assert_same_morphism(res.f, oracle_smooth_f(v, res))
    if eps:
        q_grid = lattice_grid(eps, v.grid.min_corner(), v.grid.max_corner())
        pair = restriction_pair(v, q_grid, eps)
        f, g = oracle_restriction_pair(v, q_grid, eps)
        assert_same_morphism(pair.f, f)
        assert_same_morphism(pair.g, g)
        w, wit, _ = _sample_cell_summand(v, np.random.default_rng(seed), 4 * eps)
        f, g = oracle_cell_summand_pair(v, w, eps)
        assert wit.verified
        assert_same_morphism(wit.f, f)
        assert_same_morphism(wit.g, g)


@settings(max_examples=20)
@given(seeds, primes, epsilons, grids)
def test_anchored_morphism_calls_comp_once_per_point(seed, p, eps, grid):
    v = module(seed, p)
    calls = []

    def comp(a, b):
        calls.append((a, b))
        return None

    m = anchored_morphism(v, v, eps, grid, comp)
    anchors = [(v.grid.anchor(at), v.grid.anchor(tuple(t + eps for t in at)))
               for at in map(grid.coords, grid.points())]
    assert calls == [(a, b) for a, b in anchors if a is not None and b is not None]
    assert not any(np.any(c) for c in m.comps.values())
