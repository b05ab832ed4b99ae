"""Shift, smoothing, discretization, image pairs and ranks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers import library, metric
from obspers.calculus import (diagonal, discretize, eta, image_pairs,
                              lattice_grid, modules_match, mono_epi_report,
                              persistent_rank, refine, restriction_pair,
                              shift, smooth)
from obspers.decompose import iso_test
from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.stepmodule import (Grid, StepModule, restrict_extend, validate,
                                validate_morphism)

F2 = PrimeField(2)
F3 = PrimeField(3)


# -- refine / restrict_extend --------------------------------------------------

def test_refine_by_own_grid_is_equal():
    v = library.m_lambda(5, 1)
    assert refine(v, v.grid) == v


def test_refine_requires_superset():
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    with pytest.raises(ValidationError):
        refine(v, Grid(((0, 2), (0, 1))))


def test_refine_preserves_evaluation(rng):
    v = library.random_module(F2, rng)
    fine = Grid(tuple(tuple(sorted(set(axis)
                                   | {a + Fraction(1, 3) for a in axis}))
                      for axis in v.grid.axes))
    r = refine(v, fine)
    for _ in range(100):
        s = tuple(Fraction(int(rng.integers(-1, 6)), int(rng.integers(1, 4)))
                  for _ in range(2))
        assert r.evaluate(s)[0] == v.evaluate(s)[0]


def test_refine_inserted_below_minimum_is_zero():
    v = library.constant_module(F2, Grid(((0, 1),)))
    r = refine(v, Grid(((-1, 0, 1),)))
    assert r.dims[(0,)] == 0 and r.dims[(1,)] == 1


def test_restrict_interval_snaps_support():
    third = Fraction(1, 3)
    v = library.box_interval(F2, Grid(((third, 2), (third, 2))), (third, third))
    q = restrict_extend(v, Grid(((0, 1, 2), (0, 1, 2))))
    assert q.dims[(0, 0)] == 0 and q.dims[(1, 1)] == 1
    assert q.evaluate((1, 1))[0] == 1


# -- shift ---------------------------------------------------------------------

def test_shift_zero_is_identity():
    v = library.m_lambda(5, 2)
    assert shift(v, 0) == v


def test_shift_is_a_group_action_preserving_data():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    e = Fraction(1, 2)
    sh = shift(f, e)
    # the data is carried verbatim onto the translated grid
    assert sh.dims == f.dims and sh.grid == f.grid.translate(-e)
    assert shift(sh, -e) == f
    # but as extensions the support corner moved: not isomorphic, distance e
    ok, _ = iso_test(sh, f)
    assert not ok
    br = metric.distance_bracket(sh, f)
    assert (br.lower, br.upper, br.exact) == (e, e, True)


@given(st.fractions(min_value=0, max_value=2, max_denominator=4),
       st.fractions(min_value=-1, max_value=5, max_denominator=8),
       st.fractions(min_value=-1, max_value=5, max_denominator=8))
def test_shift_evaluates_at_translated_point(eps, x, y):
    v = library.box_interval(F3, Grid(((0, 1, 2), (0, 1, 2))), (1, 1))
    assert shift(v, eps).evaluate((x, y))[0] == v.evaluate((x + eps, y + eps))[0]


# -- eta -----------------------------------------------------------------------

def test_eta_zero_is_identity():
    v = library.m_lambda(5, 3)
    m = eta(v, 0)
    for g in m.grid.points():
        assert np.array_equal(m.comps[g], F2.identity(m.source.dims[g]) % 5)


def test_eta_constant_components_identity():
    # identity wherever the source is alive (below the support the union grid
    # forces 1x0 components)
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    m = eta(f, Fraction(3, 2))
    alive = [g for g in m.grid.points() if m.source.dims[g] == 1]
    assert alive
    assert all(np.array_equal(m.comps[g], np.eye(1, dtype=np.int64))
               for g in alive)


def test_eta_is_natural(rng):
    for _ in range(5):
        v = library.random_module(F2, rng)
        m = eta(v, Fraction(1, 2))
        assert validate_morphism(m) == []


# -- smoothing -----------------------------------------------------------------

def test_smooth_zero_isomorphic():
    v = library.m_lambda(5, 4)
    res = smooth(v, 0)
    ok, _ = iso_test(res.module, v)
    assert ok


def test_smooth_kills_narrow_cell():
    w = Fraction(1, 2)
    v = library.single_cell_module(F2, (0, 0), w, 2)
    assert smooth(v, w).module.total_dim == 0
    assert smooth(v, Fraction(1, 4)).module.total_dim > 0


def test_smooth_constant_stays_constant():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    for eps in (Fraction(1, 2), 1, 3):
        res = smooth(f, eps)
        ok, _ = iso_test(res.module, f)
        assert ok


def test_smooth_witness_verifies(rng):
    for _ in range(3):
        v = library.random_module(F2, rng)
        res = smooth(v, Fraction(1, 2))
        w = metric.verify(v, res.module, res.eps, res.f, res.g)
        assert w.verified, w.violations


def test_smooth_rejects_a_non_commuting_module():
    grid = Grid(((0, 1), (0, 1)))
    steps = dict(library.constant_module(F2, grid).steps)
    steps[((0, 0), 1)] = F2.matrix([[0]])  # breaks the square at (0, 0)
    bad = StepModule(F2, grid, {g: 1 for g in grid.points()}, steps)
    for eps in (0, Fraction(1, 2), 1, 2):
        with pytest.raises(ValidationError, match="square"):
            smooth(bad, eps)


# -- discretization ------------------------------------------------------------

def test_discretize_pair_verifies(rng):
    for _ in range(3):
        v = library.random_module(F2, rng)
        for eps in (1, Fraction(1, 2)):
            res = discretize(v, eps)
            w = metric.verify(v, res.module, eps, res.f, res.g)
            assert w.verified, w.violations


def test_restriction_pair_on_own_grid_at_zero():
    v = library.m_lambda(5, 1)
    res = restriction_pair(v, v.grid, 0)
    assert res.module == v
    w = metric.verify(v, res.module, 0, res.f, res.g)
    assert w.verified


def test_lattice_grid_covers_box():
    g = lattice_grid(Fraction(1, 2), (Fraction(1, 3), 0), (Fraction(5, 3), 1))
    assert g.axes[0][0] <= Fraction(1, 3) and g.axes[0][-1] >= Fraction(5, 3)
    assert all(b - a == Fraction(1, 2) for a, b in zip(g.axes[0], g.axes[0][1:]))


# -- image pairs and diagonal ----------------------------------------------------

def test_image_pairs_constant_all_ones():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    pm = image_pairs(f)
    assert all(d == 1 for d in pm.dims.values())
    assert mono_epi_report(pm) == []


def test_image_pairs_diagonal_recovers_dims(rng):
    v = library.random_module(F2, rng)
    pm = image_pairs(v)
    for g in v.grid.points():
        assert pm.dims[(g, g)] == v.dims[g]


def test_mono_epi_random(rng):
    for _ in range(10):
        v = library.random_module(F2, rng)
        assert mono_epi_report(image_pairs(v)) == []


def test_diagonal_round_trip_constant_and_zero():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    assert diagonal(image_pairs(f)) == f
    from obspers.stepmodule import zero_module
    z = restrict_extend(zero_module(2, 2), f.grid)
    assert diagonal(image_pairs(z)).total_dim == 0


def test_diagonal_round_trip_random(rng):
    for _ in range(5):
        v = library.random_module(F2, rng)
        ok, _ = iso_test(diagonal(image_pairs(v)), v)
        assert ok


# -- persistent rank -------------------------------------------------------------

def test_persistent_rank_constant_and_zero():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    for eps in (0, Fraction(1, 2), 5):
        assert persistent_rank(f, eps) == 1
    from obspers.stepmodule import zero_module
    z = restrict_extend(zero_module(2, 2), f.grid)
    assert persistent_rank(z, 1) == 0


def test_persistent_rank_at_zero_is_max_dim(rng):
    for _ in range(5):
        v = library.random_module(F2, rng)
        assert persistent_rank(v, 0) == max(v.dims.values())


def test_persistent_rank_monotone_in_eps(rng):
    v = library.random_module(F2, rng)
    ranks = [persistent_rank(v, e) for e in (0, Fraction(1, 2), 1, 2, 4)]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
