"""Endomorphism algebras, idempotent splitting and Krull-Schmidt recovery."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from obspers import library
from obspers.decompose import (decompose, endo_algebra, iso_test, split_once)
from obspers.errors import BudgetExceeded
from obspers.fields import PrimeField
from obspers.stepmodule import (Grid, coefficient_vectors, compose, direct_sum,
                                identity_morphism, restrict_extend, validate,
                                zero_module)

from conftest import doubled_m_lambda, to_plain
from oracles import oracle_hom_count

F2 = PrimeField(2)
F5 = PrimeField(5)


def test_endo_constant_is_one_dimensional():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    assert endo_algebra(f).dim == 1


def test_endo_of_double_constant_is_matrix_algebra():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    assert endo_algebra(direct_sum(f, f)).dim == 4


def test_endo_dim_matches_enumeration():
    # same all-dims-one module as the hom test; End enumerated exhaustively
    grid = Grid(((0, 1), (0, 1)))
    from obspers.stepmodule import StepModule
    v = StepModule(F2, grid, {g: 1 for g in grid.points()}, {
        ((0, 0), 0): [[1]], ((0, 0), 1): [[0]],
        ((1, 0), 1): [[0]], ((0, 1), 0): [[1]]})
    assert not validate(v)
    count = oracle_hom_count(to_plain(v), to_plain(v))
    assert 2 ** endo_algebra(v).dim == count


def test_split_once_constant_none():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    assert split_once(f) is None


def test_split_once_double_constant():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    s = split_once(direct_sum(f, f))
    assert s is not None
    for part in (s.a, s.b):
        ok, _ = iso_test(part, f)
        assert ok
    # witnesses compose to identities
    ida = compose(s.proj_a, s.inc_a)
    assert all(np.array_equal(ida.comps[g], np.eye(s.a.dims[g], dtype=np.int64))
               for g in s.a.grid.points())


def test_split_once_m_lambda_indecomposable():
    for lam in (1, 2, 3, 4):
        assert split_once(library.m_lambda(5, lam)) is None


def test_decompose_zero_module():
    z = zero_module(2, n_axes=2)
    assert decompose(z).summands == []


def test_decompose_recovers_three_constituents():
    f = library.constant_module(F5, library.m_lambda(5, 1).grid)
    v = direct_sum(direct_sum(library.m_lambda(5, 1), library.m_lambda(5, 2)), f)
    dec = decompose(v)
    assert len(dec.summands) == 3
    targets = [library.m_lambda(5, 1), library.m_lambda(5, 2), f]
    used = set()
    for s in dec.summands:
        hit = next(i for i, t in enumerate(targets)
                   if i not in used and iso_test(s, t)[0])
        used.add(hit)
    assert used == {0, 1, 2}


def test_decompose_witnesses_reassemble(rng):
    v, _ = library.random_library_sum(2, rng, 3)
    dec = decompose(v)
    assert sum(s.total_dim for s in dec.summands) == v.total_dim
    # sum of inc_i o proj_i is the identity on v
    total = {g: v.field.zeros(v.dims[g], v.dims[g]) for g in v.grid.points()}
    for inc, proj in zip(dec.inclusions, dec.projections):
        m = compose(inc, proj)
        for g in total:
            total[g] = v.field.matadd(total[g], m.comps[g])
    for g, acc in total.items():
        assert np.array_equal(acc, v.field.identity(v.dims[g]))


def test_decompose_multiset_additive(rng):
    a, _ = library.random_library_sum(2, rng, 1)
    b, _ = library.random_library_sum(2, rng, 2)
    both = decompose(direct_sum(a, b))
    parts = decompose(a).summands + decompose(b).summands
    assert len(both.summands) == len(parts)
    used = set()
    for s in both.summands:
        hit = next(i for i, t in enumerate(parts)
                   if i not in used and iso_test(s, t)[0])
        used.add(hit)
    assert len(used) == len(parts)


def test_iso_self_identity_witness():
    v = library.m_lambda(5, 3)
    ok, w = iso_test(v, v)
    assert ok
    assert all(np.array_equal(w.comps[g], v.field.identity(v.dims[g]))
               for g in v.grid.points())


def test_iso_m_lambda_pairs_differ():
    mods = {lam: library.m_lambda(5, lam) for lam in (1, 2, 3, 4)}
    for a in (1, 2, 3, 4):
        for b in range(a + 1, 5):
            ok, _ = iso_test(mods[a], mods[b])
            assert not ok, (a, b)


def test_iso_sum_commutes(rng):
    a, _ = library.random_library_sum(2, rng, 1)
    b, _ = library.random_library_sum(2, rng, 1)
    ok, w = iso_test(direct_sum(a, b), direct_sum(b, a))
    assert ok and w is not None


def test_iso_budget_raises_instead_of_answering_no():
    # same dims and the same persistent rank at the grid gap, so only the
    # exhaustive search over Hom(V, W) can answer
    grid = Grid(((0, 1, 2),))
    v = direct_sum(library.box_interval(F2, grid, (0,), (1,)),
                   library.box_interval(F2, grid, (1,), (2,)))
    w = direct_sum(library.box_interval(F2, grid, (0,), (2,)),
                   library.box_interval(F2, grid, (1,), (1,)))
    assert iso_test(v, w) == (False, None)
    with pytest.raises(BudgetExceeded):
        iso_test(v, w, budget=1)


def test_split_once_budget_raises_instead_of_answering_indecomposable():
    v = doubled_m_lambda(5, 2)
    assert not validate(v) and endo_algebra(v).dim == 2
    assert split_once(v) is None  # certified by the exhaustive search
    with pytest.raises(BudgetExceeded):
        split_once(v, budget=1)


def test_decompose_budget_reaches_derived_summands():
    # the first split needs no search; the indecomposable summand's End is
    # derived from End(v + box), not solved, and its search must still raise
    v = doubled_m_lambda(5, 2)
    w = direct_sum(v, library.box_interval(F5, v.grid, (0, 0), (1, 1)))
    assert split_once(w, budget=1) is not None
    assert len(decompose(w).summands) == 2
    with pytest.raises(BudgetExceeded):
        decompose(w, budget=1)


def test_coefficient_vectors_lexicographic_within_budget():
    assert list(coefficient_vectors(3, 2, 9, "Hom")) == list(product(range(3), repeat=2))
    assert list(coefficient_vectors(2, 0, 1, "Hom")) == [()]
    with pytest.raises(BudgetExceeded):
        coefficient_vectors(3, 2, 8, "Hom")
