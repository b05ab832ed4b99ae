"""The derived End kernel of decompose: End bases derived from the parent
piece's, the batched structure table, the kernel-and-image Fitting split taken
a dimension group at a time, and iso_test's chunked candidate scan, against
the earlier per-piece and per-point code kept in tests/oracles.py, on random
F_2/F_3/F_5 modules and on twisted box sums like the benchmark's.  The
piece-by-piece checks come first: a broken split can keep decompose from
terminating, and with -x they report it before the whole-decomposition
checks run."""

import functools
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers import library
from obspers.decompose import (_derived_rows, _split, _split_from_endo, _table,
                               decompose, endo_algebra, iso_test)
from obspers.errors import BudgetExceeded
from obspers.fields import PrimeField
from obspers.stepmodule import (DEFAULT_BUDGET, Grid, _morphisms, direct_sum, hom_basis,
                                hom_rows, linear_combination, validate, validate_morphism)

from conftest import assert_same_morphism, doubled_m_lambda
from oracles import (oracle_decompose, oracle_endo_algebra, oracle_invertible_pointwise,
                     oracle_iso_test, oracle_split_from_endo, oracle_split_pointwise)

DECOMPOSE = importlib.import_module("obspers.decompose")
seeds = st.integers(min_value=0, max_value=10 ** 6)
primes = st.sampled_from([2, 3, 5])


def random_input(seed, p):
    rng = np.random.default_rng(seed)
    return library.random_module(PrimeField(p), rng, max_summands=3)


def twisted_boxes(seed, p, n=6, summands=4):
    """Twisted direct sum of box intervals with sides 2 to 3 on the n x n
    integer grid, the shape of the benchmark's decompose inputs."""
    rng = np.random.default_rng(seed)
    F = PrimeField(p)
    grid = library.integer_grid(n)
    parts = []
    for _ in range(summands):
        w, h = (int(rng.integers(2, 4)) for _ in range(2))
        x, y = int(rng.integers(0, n - w + 1)), int(rng.integers(0, n - h + 1))
        parts.append(library.box_interval(F, grid, (x, y), (x + w - 1, y + h - 1)))
    return library.twist_module(functools.reduce(direct_sum, parts), rng)


def pieces(v, seed=0):
    """Every module decompose splits or keeps, in its order, with the End
    basis rows it uses there: solved for v, derived for every split piece."""
    work = [(v, hom_rows(v, v))]
    counter = 0
    while work:
        m, rows = work.pop()
        yield m, rows
        s = _split(m, rows, seed + counter, DEFAULT_BUDGET)
        counter += 1
        if s is not None:
            for part, inc, proj in ((s.a, s.inc_a, s.proj_a), (s.b, s.inc_b, s.proj_b)):
                work.append((part, _derived_rows(part, m, rows, inc, proj)))


def assert_same_decomposition(v):
    fast, slow = decompose(v), oracle_decompose(v)
    assert fast.summands == slow.summands
    for a, b in zip(fast.inclusions + fast.projections, slow.inclusions + slow.projections):
        assert_same_morphism(a, b)


def assert_kernel_matches(v):
    """Derived bases, batched tables and splits at every piece of v."""
    for m, rows in pieces(v):
        want = oracle_endo_algebra(m)
        basis = _morphisms(m, m, rows)
        assert len(basis) == want.dim
        for got, exp in zip(basis, want.basis):
            assert_same_morphism(got, exp)
        table = _table(m, rows)
        assert table.shape == want.table.shape and np.array_equal(table, want.table)
        rng = np.random.default_rng(0)
        combos = [linear_combination(m, m, rows, rng.integers(0, m.field.p, size=len(rows)))
                  for _ in range(3)]
        for f in basis + combos:
            split = _split_from_endo(m, f)
            assert split == oracle_split_from_endo(m, f)
            assert_same_split(split, oracle_split_pointwise(m, f))
            if split is not None:
                assert_sound(split, m.field.p)


def assert_same_split(fast, slow):
    """Equal splits, with every dict in the same key order."""
    assert fast == slow
    if fast is not None:
        for piece in ("a", "b"):
            assert list(getattr(fast, piece).dims) == list(getattr(slow, piece).dims)
        for name in ("inc_a", "inc_b", "proj_a", "proj_b"):
            assert list(getattr(fast, name).comps) == list(getattr(slow, name).comps)


def assert_sound(split, p):
    """Pieces and witnesses valid, with read-only reduced int64 matrices."""
    for piece in (split.a, split.b):
        assert validate(piece) == []
    maps = (split.inc_a, split.inc_b, split.proj_a, split.proj_b)
    for m in maps:
        assert validate_morphism(m) == []
    for mat in [s for piece in (split.a, split.b) for s in piece.steps.values()] + [
            c for m in maps for c in m.comps.values()]:
        assert not mat.flags.writeable and mat.dtype == np.int64 and mat.ndim == 2
        assert mat.size == 0 or (mat.min() >= 0 and mat.max() < p)


@settings(max_examples=20)
@given(seeds, primes)
def test_derived_bases_tables_and_splits_on_random_modules(seed, p):
    assert_kernel_matches(random_input(seed, p))


@settings(max_examples=10)
@given(seeds, st.sampled_from([2, 3]))
def test_derived_bases_tables_and_splits_on_twisted_boxes(seed, p):
    assert_kernel_matches(twisted_boxes(seed, p))


@settings(max_examples=25)
@given(seeds, primes)
def test_decompose_matches_oracle_on_random_modules(seed, p):
    assert_same_decomposition(random_input(seed, p))


@settings(max_examples=15)
@given(seeds, st.sampled_from([2, 3]))
def test_decompose_matches_oracle_on_twisted_boxes(seed, p):
    assert_same_decomposition(twisted_boxes(seed, p))


def test_endo_algebra_matches_compose_table():
    f = library.constant_module(PrimeField(3), library.integer_grid(2))
    for v in (f, direct_sum(f, f), twisted_boxes(1, 3)):
        fast, slow = endo_algebra(v), oracle_endo_algebra(v)
        assert fast.dim == slow.dim
        for got, exp in zip(fast.basis, slow.basis):
            assert_same_morphism(got, exp)
        assert np.array_equal(fast.table, slow.table)
        assert np.array_equal(fast.stack, slow.stack)


def test_exhaustive_search_pieces_match_oracle():
    # the doubled m_lambda is certified indecomposable only by the exhaustive
    # search, on a derived End and its batched table
    for p in (2, 5):
        v = doubled_m_lambda(p, 1)
        w = direct_sum(v, library.box_interval(PrimeField(p), v.grid, (1, 1), (2, 3)))
        assert_same_decomposition(w)
        assert_kernel_matches(w)


@settings(max_examples=10)
@given(seeds, st.sampled_from([2, 3]))
def test_batched_split_matches_pointwise_split_with_zero_spaces(seed, p):
    # boxes of side 2 to 3 on the 6 x 6 grid leave points of dimension 0,
    # a group of their own
    v = twisted_boxes(seed, p)
    assert 0 in v.dims.values()
    rows = hom_rows(v, v)
    basis = _morphisms(v, v, rows)
    rng = np.random.default_rng(seed)
    combos = [linear_combination(v, v, rows, rng.integers(0, p, size=len(rows)))
              for _ in range(4)]
    found = 0
    for f in basis + combos:
        split = _split_from_endo(v, f)
        assert_same_split(split, oracle_split_pointwise(v, f))
        found += split is not None
    assert found


def assert_same_iso(v, w, seed=0, budget=DEFAULT_BUDGET):
    fast, slow = iso_test(v, w, seed, budget), oracle_iso_test(v, w, seed, budget)
    assert fast[0] == slow[0] and (fast[1] is None) == (slow[1] is None)
    if slow[1] is not None:
        assert_same_morphism(fast[1], slow[1])
        assert list(fast[1].comps) == list(slow[1].comps)
    return fast


@settings(max_examples=20)
@given(seeds, primes, st.integers(0, 3))
def test_iso_test_matches_oracle_on_twists(seed, p, iso_seed):
    v = random_input(seed, p)
    w = library.twist_module(v, np.random.default_rng(seed + 1))
    assert assert_same_iso(v, w, iso_seed)[0]


@settings(max_examples=20)
@given(seeds, primes)
def test_iso_test_matches_oracle_on_random_pairs(seed, p):
    assert_same_iso(random_input(seed, p), random_input(seed + 1, p))


@settings(max_examples=5)
@given(seeds, st.sampled_from([2, 3]))
def test_iso_test_matches_oracle_on_twisted_boxes(seed, p):
    v = twisted_boxes(seed, p)
    assert assert_same_iso(v, library.twist_module(v, np.random.default_rng(seed)))[0]


def test_iso_witness_found_only_by_the_lexicographic_scan(monkeypatch):
    # End of [0, 2] + [1, 2] over F_2 has dimension 3 and 2 of its 8
    # elements are invertible; at seed 3 none of the 8 random tries is one.
    # A candidate has 9 entries, so 18 cells make chunks of 2 candidates.
    monkeypatch.setattr(DECOMPOSE, "_CHUNK_CELLS", 18)
    F2 = PrimeField(2)
    grid = Grid(((0, 1, 2),))
    v = direct_sum(library.box_interval(F2, grid, (0,), (2,)),
                   library.box_interval(F2, grid, (1,), (2,)))
    w = library.twist_module(v, np.random.default_rng(0))
    basis = hom_basis(v, w)
    rng = np.random.default_rng(3)
    assert all(oracle_invertible_pointwise(v, w, basis, rng.integers(0, 2, size=3)) is None
               for _ in range(8))
    assert assert_same_iso(v, w, seed=3)[0]
    with pytest.raises(BudgetExceeded):
        iso_test(v, w, seed=3, budget=7)


def test_iso_test_certified_non_isomorphism_matches_oracle(monkeypatch):
    # same dims and persistent rank at the grid gap: only the full scan of
    # the 4 elements of Hom(V, W) answers, here in chunks of 2 (a candidate
    # has 6 entries)
    monkeypatch.setattr(DECOMPOSE, "_CHUNK_CELLS", 12)
    F2 = PrimeField(2)
    grid = Grid(((0, 1, 2),))
    v = direct_sum(library.box_interval(F2, grid, (0,), (1,)),
                   library.box_interval(F2, grid, (1,), (2,)))
    w = direct_sum(library.box_interval(F2, grid, (0,), (2,)),
                   library.box_interval(F2, grid, (1,), (1,)))
    assert assert_same_iso(v, w) == (False, None)
