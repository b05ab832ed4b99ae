"""The padded-stack kernels against the per-edge and per-point code they
replaced (tests/oracles.py): validate_morphism's violations, compose,
add_morphisms, _submodule and persistent_rank, on random modules over F_2 and
F_3 with one to three axes, single-coordinate axes and points of dimension
zero; and the cached stacks against freshly padded ones.  The random modules
are narrow, so the kernels run on them both with the narrowest size class as
it is (one class) and with it set to 1 (one class per power of two), and once
more on a module whose dimensions span two size classes."""

import functools
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

import obspers.stepmodule as stepmodule
from obspers import library
from obspers.calculus import persistent_rank
from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.stepmodule import (Grid, Morphism, StepModule, _groups, _submodule,
                                add_morphisms, compose, direct_sum, hom_basis, hom_rows,
                                identity_morphism, linear_combination, validate_morphism)

from oracles import (oracle_add_morphisms, oracle_compose, oracle_persistent_rank,
                     oracle_submodule, oracle_validate_morphism)

seeds = st.integers(min_value=0, max_value=10 ** 6)
primes = st.sampled_from([2, 3])
narrowest = st.sampled_from([1, stepmodule._MIN_CLASS])


def classes_from(c):
    """Run the kernels with c as the narrowest size class."""
    return patch.object(stepmodule, "_MIN_CLASS", c)


def random_grid(rng):
    """One to three axes of one to three integer coordinates each."""
    return Grid(tuple(tuple(range(int(rng.integers(1, 4))))
                      for _ in range(int(rng.integers(1, 4)))))


def modules(seed, p, count):
    """count random modules on one random grid: twisted sums of one to three
    box intervals, so dims are uneven and often zero."""
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    F = PrimeField(p)
    return rng, [library.random_module(F, rng, grid=grid) for _ in range(count)]


def skewed_module(rng, p):
    """A twisted sum on a 3 x 3 grid of dimension 1 at every point and 13 at
    the middle one, whose blocks fall in two size classes."""
    F = PrimeField(p)
    grid = library.integer_grid(3)
    parts = ([library.box_interval(F, grid, (0, 0), (2, 2))]
             + [library.box_interval(F, grid, (1, 1), (1, 1))] * 12)
    return library.twist_module(functools.reduce(direct_sum, parts), rng)


def random_morphism(rng, v, w):
    """Uniformly random components of the right shapes, natural or not."""
    return Morphism(v, w, {g: rng.integers(0, v.field.p, size=(w.dims[g], v.dims[g]))
                           for g in v.grid.points()})


def natural_morphism(rng, v, w):
    """A random combination of the Hom(v, w) basis, or None when it is 0."""
    rows = hom_rows(v, w)
    if not len(rows):
        return None
    return linear_combination(v, w, rows, rng.integers(0, v.field.p, size=len(rows)))


def padded(mats, rows, cols):
    out = np.zeros((len(mats), rows, cols), dtype=np.int64)
    for block, m in zip(out, mats):
        block[:m.shape[0], :m.shape[1]] = m
    return out


def width(v):
    return max(v.dims.values())


def assert_same_arrays(fast, slow):
    """The same keys in the same order, and equal arrays key by key."""
    assert list(fast) == list(slow)
    for key, m in slow.items():
        assert fast[key].shape == m.shape and np.array_equal(fast[key], m), key


def assert_fresh_stacks(x):
    """x's cached stack equals its steps or components padded afresh."""
    if isinstance(x, Morphism):
        want = padded([x.comps[g] for g in x.grid.points()], width(x.target), width(x.source))
    else:
        want = padded([x.steps[k] for k in x.grid.edges], width(x), width(x))
    assert x._stack.dtype == np.int64 and not x._stack.flags.writeable
    assert x._stack.shape == want.shape and np.array_equal(x._stack, want)


def check_violations(rng, v, w):
    p = v.field.p
    cases = [random_morphism(rng, v, w)]
    m = natural_morphism(rng, v, w)
    if m is not None:
        cases.append(m)
        # corrupt one entry of one component: naturality then fails at the
        # first edge into or out of that point, unless the entry is unseen
        sized = [g for g in v.grid.points() if m.comps[g].size]
        if sized:
            g = sized[int(rng.integers(0, len(sized)))]
            comps = dict(m.comps)
            bad = comps[g].copy()
            i, j = (int(rng.integers(0, n)) for n in bad.shape)
            bad[i, j] = (bad[i, j] + 1) % p
            comps[g] = bad
            cases.append(Morphism(v, w, comps))
    for m in cases:
        assert validate_morphism(m) == oracle_validate_morphism(m)
        assert_fresh_stacks(m)


@given(seeds, primes, narrowest)
def test_violations_match_the_oracle(seed, p, narrow):
    rng, (v, w) = modules(seed, p, 2)
    with classes_from(narrow):
        check_violations(rng, v, w)


@given(seeds, primes)
def test_shape_and_key_violations_match_the_oracle(seed, p):
    rng, (v,) = modules(seed, p, 1)
    pts = v.grid.points()
    good = random_morphism(rng, v, v)
    g = pts[int(rng.integers(0, len(pts)))]
    wrong, missing, off = dict(good.comps), dict(good.comps), dict(good.comps)
    wrong[g] = np.zeros((v.dims[g] + 1, v.dims[g]), dtype=np.int64)
    del missing[g]
    off[(7,) * v.grid.n_axes] = [[1]]
    cases = [wrong, missing, off]
    if g != pts[-1]:
        # a wrong shape before a missing point: both are reported
        both = dict(wrong)
        del both[pts[-1]]
        cases.append(both)
    for comps in cases:
        m = Morphism._trusted(v, v, {k: np.asarray(c) for k, c in comps.items()})
        assert validate_morphism(m) == oracle_validate_morphism(m)
        assert validate_morphism(m)


def test_blocks_of_the_wrong_shape_are_not_padded():
    # an undersized step or component raises where a per-point product
    # would, instead of passing as its zero-padded extension
    F = PrimeField(2)
    one = library.constant_module(F, Grid(((0, 1),)))
    v = stepmodule.direct_sum(one, one)
    small_step = StepModule(F, v.grid, v.dims, {((0,), 0): [[1]]})
    with pytest.raises(ValidationError, match=r"step at \(0,\) axis 0 has shape \(1, 1\)"):
        validate_morphism(Morphism(small_step, v, identity_morphism(v).comps))
    small_comp = Morphism(v, v, {(0,): [[1]], (1,): np.eye(2, dtype=np.int64)})
    assert validate_morphism(small_comp) == [
        "component at (0,) has shape (1, 1), expected (2, 2)"]
    for build in (lambda: compose(small_comp, identity_morphism(v)),
                  lambda: compose(identity_morphism(v), small_comp),
                  lambda: add_morphisms(small_comp, identity_morphism(v))):
        with pytest.raises(ValidationError, match=r"component at \(0,\) has shape \(1, 1\)"):
            build()


def check_compose_and_sum(rng, u, v, w):
    f, f2, g = random_morphism(rng, u, v), random_morphism(rng, u, v), random_morphism(rng, v, w)
    for fast, slow in ((compose(g, f), oracle_compose(g, f)),
                       (add_morphisms(f, f2), oracle_add_morphisms(f, f2))):
        assert fast.source is slow.source and fast.target is slow.target
        assert_same_arrays(fast.comps, slow.comps)
        assert_fresh_stacks(fast)
        assert all(not c.flags.writeable for c in fast.comps.values())


@given(seeds, primes, narrowest)
def test_compose_and_sum_match_the_oracle(seed, p, narrow):
    rng, (u, v, w) = modules(seed, p, 3)
    with classes_from(narrow):
        check_compose_and_sum(rng, u, v, w)


def check_submodule(rng, v):
    p = v.field.p
    pts = v.grid.points()
    dims = {g: int(rng.integers(0, v.dims[g] + 2)) for g in pts}
    basis = {g: rng.integers(0, p, size=(v.dims[g], dims[g])) for g in pts}
    coords = {g: rng.integers(0, p, size=(dims[g], v.dims[g])) for g in pts}
    k = max(dims.values())
    fast = _submodule(v, dims, padded([basis[g] for g in pts], width(v), k),
                      padded([coords[g] for g in pts], k, width(v)))
    slow = oracle_submodule(v, basis, coords)
    assert list(fast.dims.items()) == list(slow.dims.items())
    assert_same_arrays(fast.steps, slow.steps)
    assert_fresh_stacks(fast)
    assert_fresh_stacks(v)


@given(seeds, primes, narrowest)
def test_submodule_matches_the_oracle(seed, p, narrow):
    rng, (v,) = modules(seed, p, 1)
    with classes_from(narrow):
        check_submodule(rng, v)


@given(seeds, primes)
def test_two_size_classes_match_the_oracle(seed, p):
    rng = np.random.default_rng(seed)
    u, v, w = (skewed_module(rng, p) for _ in range(3))
    assert [c for c, _ in _groups(13, [v, w])] == [8, 16]
    check_violations(rng, v, w)
    check_compose_and_sum(rng, u, v, w)
    check_submodule(rng, v)


@given(seeds, primes, st.sampled_from([0, Fraction(1, 2), 1, 2]))
def test_persistent_rank_matches_the_oracle(seed, p, eps):
    _, (v,) = modules(seed, p, 1)
    assert persistent_rank(v, eps) == oracle_persistent_rank(v, eps)


def test_hom_rows_are_the_same_one_solution_at_a_time(monkeypatch):
    # with _CHUNK_CELLS = 1 every component is built one solution at a time
    rng = np.random.default_rng(3)
    v = library.random_module(PrimeField(3), rng, n_axes=2, max_summands=4)
    whole = hom_rows(v, v)
    monkeypatch.setattr(stepmodule, "_CHUNK_CELLS", 1)
    assert np.array_equal(hom_rows(v, v), whole)
    assert len(hom_basis(v, v)) == len(whole) > 1
