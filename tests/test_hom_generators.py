"""Hom spaces from generators: hom_basis against the dense naturality system
kept in tests/oracles.py, element by element, and its dimension against
brute-force enumeration, on F_2/F_3/F_5 modules over 1-, 2- and 3-axis grids.
The pairs have partial and disjoint supports, the zero module on either side,
and points where v dies above a generator while w lives on: there the moved
generators are zero, so their images in w must vanish too."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from obspers import library
from obspers.fields import PrimeField
from obspers.stepmodule import (Grid, direct_sum, hom_basis, hom_rows,
                                restrict_extend, validate_morphism, zero_module)

from conftest import to_plain
from oracles import oracle_hom_basis, oracle_hom_count

seeds = st.integers(min_value=0, max_value=10 ** 6)
primes = st.sampled_from([2, 3, 5])
SIDES = {1: 5, 2: 4, 3: 3}  # largest grid side per number of axes
TINY = {1: 3, 2: 2, 3: 2}  # small enough to enumerate every morphism


def assert_same_basis(v, w):
    got, want = hom_basis(v, w), oracle_hom_basis(v, w)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b
    return got


def boxes(F, grid, rng, count):
    """A twisted sum of count random boxes on grid, some unbounded above; the
    zero module on grid when count is 0."""
    if count == 0:
        return restrict_extend(zero_module(F.p, grid.n_axes), grid)
    return library.random_module(F, rng, grid=grid, max_summands=count)


@st.composite
def module_pairs(draw, sides=SIDES, max_summands=3):
    p, n_axes, seed = draw(primes), draw(st.integers(1, 3)), draw(seeds)
    grid = library.integer_grid(draw(st.integers(1, sides[n_axes])), n_axes)
    F, rng = PrimeField(p), np.random.default_rng(seed)
    return (boxes(F, grid, rng, draw(st.integers(0, max_summands))),
            boxes(F, grid, rng, draw(st.integers(0, max_summands))))


@settings(max_examples=100)
@given(module_pairs())
def test_hom_basis_matches_the_dense_system(pair):
    v, w = pair
    for a, b in ((v, w), (w, v), (v, v)):
        for m in assert_same_basis(a, b):
            assert validate_morphism(m) == []
            for c in m.comps.values():
                assert not c.flags.writeable and c.dtype == np.int64


@settings(max_examples=60)
@given(module_pairs(sides=TINY, max_summands=2))
def test_hom_dimension_matches_enumeration(pair):
    v, w = pair
    assume(v.field.p ** sum(v.dims[g] * w.dims[g] for g in v.grid.points()) <= 1 << 12)
    assert v.field.p ** len(hom_basis(v, w)) == oracle_hom_count(to_plain(v), to_plain(w))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_hom_into_and_out_of_the_zero_module(p, n_axes):
    F = PrimeField(p)
    grid = library.integer_grid(3, n_axes)
    z = restrict_extend(zero_module(p, n_axes), grid)
    v = library.random_module(F, np.random.default_rng(p + n_axes), grid=grid)
    for a, b in ((v, z), (z, v), (z, z)):
        assert assert_same_basis(a, b) == []
        assert hom_rows(a, b).shape == (0, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_v_dies_above_its_generator_while_w_lives(p):
    # the box [0, 1] into the free module at 0 on 0..3: the generator moves
    # to 0 at 2, where w is 1-dimensional, so its image must be 0 at 2 and,
    # w's steps being injective, already at 0: Hom is 0
    F = PrimeField(p)
    line = library.integer_grid(4, 1)
    dying, free = library.box_interval(F, line, (0,), (1,)), library.constant_module(F, line)
    assert assert_same_basis(dying, free) == []
    assert len(assert_same_basis(free, dying)) == 1
    # the same in two axes, with a second summand that survives: the first
    # dies above (0, 0) on both axes, and only the maps through the survivor
    # remain
    square = library.integer_grid(2)
    v = direct_sum(library.box_interval(F, square, (0, 0), (0, 0)),
                   library.box_interval(F, square, (1, 0)))
    w = library.constant_module(F, square)
    assert len(assert_same_basis(v, w)) == 1
    assert p ** 1 == oracle_hom_count(to_plain(v), to_plain(w))


def test_disjoint_and_partial_supports():
    F = PrimeField(3)
    grid = library.integer_grid(4)
    low = library.box_interval(F, grid, (0, 0), (1, 1))
    high = library.box_interval(F, grid, (2, 2))
    overlap = library.box_interval(F, grid, (1, 1), (2, 2))
    assert assert_same_basis(low, high) == []
    assert assert_same_basis(high, low) == []
    # a box maps to a box that starts at or below it and ends inside it
    assert len(assert_same_basis(overlap, low)) == 1
    assert assert_same_basis(low, overlap) == []


def test_generators_arriving_from_different_predecessors():
    # two free summands born on different axes meet at (1, 1) from both of
    # its predecessors, each arriving from one; a twist mixes them there
    F = PrimeField(5)
    grid = Grid(((0, 1, 2), (0, 1, 2)))
    v = library.twist_module(direct_sum(library.box_interval(F, grid, (1, 0)),
                                        library.box_interval(F, grid, (0, 1))),
                             np.random.default_rng(3))
    assert len(assert_same_basis(v, v)) == 2
    assert len(assert_same_basis(v, library.constant_module(F, grid))) == 2
