"""Grids on integer keys: equality and hashing on the canonical (den, keys)
pairs, whatever built the grid, the lazily built Fraction axes against the
eager Fraction computation, and key operations that build no Fraction."""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obspers import library
from obspers.fields import PrimeField
from obspers.stepmodule import Grid, restrict_extend, union_grids

coords = st.fractions(min_value=-4, max_value=4, max_denominator=12)
axis_ticks = st.lists(coords, min_size=1, max_size=5, unique=True).map(sorted)
axes_lists = st.lists(axis_ticks, min_size=1, max_size=3)
deltas = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def eager_translate(axes, d):
    return tuple(tuple(c + d for c in axis) for axis in axes)


def eager_union(*grids):
    return tuple(tuple(sorted(set().union(*axis))) for axis in zip(*(g.axes for g in grids)))


def assert_canonical(g):
    for den, keys in g._scaled:
        assert den > 0 and math.gcd(den, *keys) == 1
        assert list(keys) == sorted(set(keys))


@given(axes_lists, deltas, st.data())
def test_equal_coordinates_give_equal_grids_and_hashes(axes, d, data):
    built = Grid(axes)
    moved = Grid(eager_translate(axes, -d)).translate(d)
    # each axis as the union of two nonempty parts that may overlap
    cuts = [data.draw(st.integers(1, len(axis))) for axis in axes]
    starts = [data.draw(st.integers(0, c - 1)) for c in cuts]
    merged = union_grids(Grid(tuple(axis[:c] for axis, c in zip(axes, cuts))),
                         Grid(tuple(axis[s:] for axis, s in zip(axes, starts))))
    for g in (built, moved, merged):
        assert_canonical(g)
        assert g == built and hash(g) == hash(built) and g._scaled == built._scaled
        assert g.shape == tuple(map(len, axes)) and g.n_axes == len(axes)


@given(axes_lists, st.integers(0, 2), st.data())
def test_different_coordinates_give_different_grids(axes, axis, data):
    axis %= len(axes)
    i = data.draw(st.integers(0, len(axes[axis]) - 1))
    c = data.draw(coords.filter(lambda c: c not in axes[axis]))
    other = [list(a) for a in axes]
    other[axis][i] = c
    other[axis].sort()
    assert Grid(axes) != Grid(other)


@given(axes_lists, deltas)
def test_translate_there_and_back_is_the_grid(axes, d):
    g = Grid(axes)
    back = g.translate(d).translate(-d)
    assert back == g and hash(back) == hash(g)
    assert_canonical(back)


@given(axes_lists, axes_lists, deltas, deltas)
def test_key_built_axes_equal_the_eager_fractions(a, b, d1, d2):
    b = (b * len(a))[:len(a)]
    ga, gb = Grid(a), Grid(b)
    cases = [(ga.translate(d1), eager_translate(ga.axes, d1)),
             (union_grids(ga, gb), eager_union(ga, gb)),
             (union_grids(ga.translate(d1), gb.translate(d2), ga),
              eager_union(Grid(eager_translate(a, d1)), Grid(eager_translate(b, d2)), ga))]
    for fast, want in cases:
        assert "axes" not in fast.__dict__  # built from the keys on first use
        assert fast.axes == want
        assert all(type(c) is Fraction for axis in fast.axes for c in axis)
        assert fast == Grid(want)
        assert fast.min_corner() == tuple(axis[0] for axis in want)
        assert fast.coords(tuple(len(axis) - 1 for axis in want)) == fast.max_corner()


def test_grids_are_immutable():
    g = Grid(((0, 1),))
    with pytest.raises(AttributeError):
        g.axes = ((0,),)
    assert g == Grid(((0, 1),)) and g != "grid"
    assert repr(Grid(((0, Fraction(1, 2)),))) == "Grid(axes=((Fraction(0, 1), Fraction(1, 2)),))"


@contextmanager
def no_fraction_built():
    """Fail on any Fraction built inside the block, through the constructor
    or the private fast constructor that newer Pythons use for arithmetic."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    saved = {name: Fraction.__dict__[name] for name in ("__new__", "_from_coprime_ints")
             if name in Fraction.__dict__}
    try:
        Fraction.__new__ = staticmethod(refuse)
        if "_from_coprime_ints" in saved:
            Fraction._from_coprime_ints = classmethod(refuse)
        yield
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)


def test_key_operations_build_no_fraction():
    v = library.random_module(PrimeField(2), np.random.default_rng(3))
    target = Grid(((Fraction(-1, 3), Fraction(5, 6), 2), (0, Fraction(7, 5))))
    d, back = Fraction(-3, 8), Fraction(3, 8)
    with no_fraction_built():
        moved = v.grid.translate(d)
        u = union_grids(v.grid, moved, target)
        per_axis = v.grid.anchor_indices(u, d)
        r = restrict_extend(v, u)
        again = restrict_extend(r, target.translate(d))
        assert moved.translate(back) == v.grid and u != v.grid
    with pytest.raises(AssertionError, match="a Fraction was built"):
        with no_fraction_built():
            d + 1
    assert per_axis == v.grid.anchor_indices(u, Fraction(-3, 8))
    assert r.grid == u and again.grid == target.translate(d)
    assert "axes" not in u.__dict__ and "axes" not in moved.__dict__
