"""Simplicial complexes, sublevel and Degree-Rips bifiltrations, and grid
homology."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from obspers.errors import ValidationError
from obspers.pipelines import (Bifiltration, SimplicialComplex,
                               complex_from_simplices, degree_rips,
                               homology_module, metric_space,
                               sublevel_bifiltration,
                               validate_bifiltration, validate_complex,
                               validate_metric_space,
                               vertex_perturbation_pair)
from obspers.stepmodule import Grid, validate

from oracles import (oracle_component_count, oracle_degree_rips_presence,
                     oracle_homology_dim)


def hollow_triangle():
    return complex_from_simplices([(0, 1), (0, 2), (1, 2)])


def filled_triangle():
    return complex_from_simplices([(0, 1, 2)])


def grade_grid(b):
    """Grid whose axis ticks are the union of grade coordinates."""
    axes = [sorted({g[i] for chain in b.grades.values() for g in chain})
            for i in range(b.n_axes)]
    return Grid(tuple(tuple(a) for a in axes))


# -- complexes -------------------------------------------------------------------

def test_face_closure():
    cx = hollow_triangle()
    assert validate_complex(cx) == []
    assert set(cx.simplices) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}
    assert cx.top_dim == 1
    assert filled_triangle().top_dim == 2


def test_complex_violations():
    unsorted_cx = SimplicialComplex((0, 1), ((0,), (1,), (1, 0)))
    assert any("not sorted" in v for v in validate_complex(unsorted_cx))
    dup = SimplicialComplex((0,), ((0,), (0,)))
    assert any("duplicate" in v for v in validate_complex(dup))
    gap = SimplicialComplex((0, 1), ((0,), (1,), (0, 1), (0, 1, 2)))
    out = validate_complex(gap)
    assert any("unknown vertex" in v for v in out)
    assert any("missing" in v for v in out)


# -- metric spaces ---------------------------------------------------------------

def test_metric_space_violations():
    with pytest.raises(ValidationError):
        metric_space(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValidationError):
        metric_space(["a"], [[1]])  # nonzero diagonal
    with pytest.raises(ValidationError):
        metric_space(["a", "b"], [[0, -1], [-1, 0]])  # negative


def test_pseudometric_warns_but_passes():
    rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]  # 5 > 1 + 1
    with pytest.warns(UserWarning, match="triangle inequality"):
        m = metric_space(["a", "b", "c"], rows)
    assert m.d(0, 2) == 5


# -- sublevel --------------------------------------------------------------------

def test_sublevel_single_vertex():
    cx = complex_from_simplices([(0,)])
    b = sublevel_bifiltration(cx, {0: (Fraction(1, 3), 2)})
    assert b.grades[(0,)] == ((Fraction(1, 3), 2),)
    assert validate_bifiltration(b) == []


def test_sublevel_edge_componentwise_max():
    cx = complex_from_simplices([(0, 1)])
    b = sublevel_bifiltration(cx, {0: (0, 1), 1: (1, 0)})
    assert b.grades[(0, 1)] == ((1, 1),)


def test_sublevel_hollow_triangle_matches_enumeration():
    cx = hollow_triangle()
    values = {0: (0, Fraction(3, 2)), 1: (1, Fraction(1, 2)), 2: (Fraction(1, 2), 1)}
    b = sublevel_bifiltration(cx, values)
    assert validate_bifiltration(b) == []
    grid = grade_grid(b)
    for g in grid.points():
        s = grid.coords(g)
        got = {sx for sx in cx.simplices if b.present_at(sx, s)}
        expect = {sx for sx in cx.simplices
                  if all(max(Fraction(values[v][i]) for v in sx) <= s[i]
                         for i in range(2))}
        assert got == expect


def test_bifiltration_reads_grades_as_exact_rationals():
    cx = complex_from_simplices([(0, 1)])
    b = Bifiltration(cx, {(0,): ((0, 0),), (1,): (("1/2", np.int64(0)),), (0, 1): ((1, 1),)},
                     np.int64(2))
    assert b.grades[(1,)] == ((Fraction(1, 2), 0),) and type(b.n_axes) is int
    assert all(type(x) is Fraction for chain in b.grades.values() for g in chain for x in g)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, np.float64(0.5), np.bool_(True)])
def test_bifiltration_rejects_float_and_bool_grades(bad):
    # a float would be computed with as its binary expansion, and True as 1
    cx = complex_from_simplices([(0, 1)])
    with pytest.raises(ValidationError, match="not an exact rational"):
        Bifiltration(cx, {(0,): ((0, 0),), (1,): ((bad, 0),), (0, 1): ((1, 1),)}, 2)


@pytest.mark.parametrize("bad", [2.0, True, np.bool_(True)])
def test_bifiltration_rejects_n_axes_that_is_not_an_integer(bad):
    cx = complex_from_simplices([(0,)])
    with pytest.raises(ValidationError, match="n_axes must be an integer"):
        Bifiltration(cx, {(0,): ((0, 0),)}, bad)


@pytest.mark.parametrize("bad, match", [(-1, "max_dim must be at least 0, not -1"),
                                        (1.5, "max_dim must be an integer, not 1.5")])
def test_degree_rips_max_dim_is_an_integer_of_at_least_0(bad, match):
    m = metric_space([0, 1], [[0, 1], [1, 0]])
    with pytest.raises(ValidationError, match=match):
        degree_rips(m, [1], [1], max_dim=bad)
    assert degree_rips(m, [1], [1], max_dim=0).complex.simplices == ((0,), (1,))


def test_sublevel_rejects_bad_values():
    cx = hollow_triangle()
    with pytest.raises(ValidationError):
        sublevel_bifiltration(cx, {0: (0, 0), 1: (0, 0)})  # vertex 2 missing
    with pytest.raises(ValidationError):
        sublevel_bifiltration(cx, {0: (0, 0), 1: (0, 0), 2: (0,)})  # arity


# -- degree-rips -----------------------------------------------------------------

def test_degree_rips_one_point():
    m = metric_space(["x"], [[0]])
    b = degree_rips(m, [0, 1], [0, 1])
    assert b.grades[(0,)] == ((0, 0),)
    mod = homology_module(b, 0, Grid(((0, 1), (-1, 0))), 2)
    assert mod.dims[(0, 1)] == 1 and mod.dims[(1, 1)] == 1
    assert mod.dims[(0, 0)] == 0  # degree axis is negated: -1 means degree 1


def test_degree_rips_three_equidistant():
    m = metric_space(["a", "b", "c"],
                     [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    b = degree_rips(m, [Fraction(1, 2), 1], [2])
    assert len(b.complex.simplices) == 7  # full triangle, nothing earlier
    for s in b.complex.simplices:
        assert b.grades[s] == ((1, -2),)
        assert not b.present_at(s, (Fraction(1, 2), -2))
    assert validate_bifiltration(b) == []


def test_degree_rips_two_clusters():
    pts = ["a0", "a1", "b0", "b1"]
    d = [[0, Fraction(1, 4), 10, 10],
         [Fraction(1, 4), 0, 10, 10],
         [10, 10, 0, Fraction(1, 4)],
         [10, 10, Fraction(1, 4), 0]]
    m = metric_space(pts, d)
    b = degree_rips(m, [Fraction(1, 4), 10], [1])
    for r, expected in ((Fraction(1, 4), 2), (10, 1)):
        verts = [s[0] for s in b.complex.of_dim(0) if b.present_at(s, (r, -1))]
        edges = [s for s in b.complex.of_dim(1) if b.present_at(s, (r, -1))]
        assert oracle_component_count(verts, edges) == expected


def test_degree_rips_presence_matches_oracle():
    pts = list(range(4))
    rows = [[0, 1, 2, 3],
            [1, 0, Fraction(3, 2), 2],
            [2, Fraction(3, 2), 0, 1],
            [3, 2, 1, 0]]
    m = metric_space(pts, rows)
    radii = [1, Fraction(3, 2), 3]
    degrees = [1, 2, 3]
    b = degree_rips(m, radii, degrees, max_dim=3)
    dists = {(i, j): Fraction(rows[i][j]) for i in range(4) for j in range(4) if i < j}
    for size in range(1, 5):
        for combo in itertools.combinations(range(4), size):
            for r in radii:
                for k in degrees:
                    expect = oracle_degree_rips_presence(dists, radii, degrees,
                                                         combo, r, k)
                    got = (combo in b.grades
                           and b.present_at(combo, (r, Fraction(-k))))
                    assert got == expect, (combo, r, k)


def test_degree_rips_duplication_coherence():
    # duplicating every point doubles each degree and adds the zero-distance
    # twin, so thresholds k map to 2k+1 and per-grade component counts agree
    pts = list(range(4))
    rows = [[0, 1, 2, 3],
            [1, 0, Fraction(3, 2), 2],
            [2, Fraction(3, 2), 0, 1],
            [3, 2, 1, 0]]
    m = metric_space(pts, rows)
    n = 4
    dup_rows = [[rows[i % n][j % n] for j in range(2 * n)] for i in range(2 * n)]
    md = metric_space(list(range(2 * n)), dup_rows)
    radii = [1, Fraction(3, 2), 2, 3]
    b1 = degree_rips(m, radii, [1], max_dim=1)
    b2 = degree_rips(md, radii, [3], max_dim=1)
    for r in radii:
        v1 = [s[0] for s in b1.complex.of_dim(0) if b1.present_at(s, (r, -1))]
        e1 = [s for s in b1.complex.of_dim(1) if b1.present_at(s, (r, -1))]
        v2 = [s[0] for s in b2.complex.of_dim(0) if b2.present_at(s, (r, -3))]
        e2 = [s for s in b2.complex.of_dim(1) if b2.present_at(s, (r, -3))]
        assert (oracle_component_count(v1, e1)
                == oracle_component_count(v2, e2)), r


def test_degree_rips_rejects_empty_parameters():
    m = metric_space(["a"], [[0]])
    with pytest.raises(ValidationError):
        degree_rips(m, [], [1])
    with pytest.raises(ValidationError):
        degree_rips(m, [1], [])


# -- homology --------------------------------------------------------------------

def test_hollow_triangle_h1_everywhere():
    cx = hollow_triangle()
    b = sublevel_bifiltration(cx, {v: (0, 0) for v in cx.vertices})
    mod = homology_module(b, 1, Grid(((0, 1), (0, 1))), 2)
    assert validate(mod) == []
    for g in mod.grid.points():
        assert mod.dims[g] == 1
    for step in mod.steps.values():
        assert np.array_equal(step, np.eye(1, dtype=np.int64))


def test_filled_triangle_h1_zero():
    cx = filled_triangle()
    b = sublevel_bifiltration(cx, {v: (0, 0) for v in cx.vertices})
    mod = homology_module(b, 1, Grid(((0, 1), (0, 1))), 2)
    assert all(d == 0 for d in mod.dims.values())


def test_homology_dims_match_oracle_per_grade():
    cx = hollow_triangle()
    values = {0: (0, Fraction(3, 2)), 1: (1, Fraction(1, 2)), 2: (Fraction(1, 2), 1)}
    b = sublevel_bifiltration(cx, values)
    grid = grade_grid(b)
    for k in (0, 1):
        mod = homology_module(b, k, grid, 3)
        assert validate(mod) == []
        for g in grid.points():
            s = grid.coords(g)
            present = [sx for sx in cx.simplices if b.present_at(sx, s)]
            assert mod.dims[g] == oracle_homology_dim(present, k, 3), (k, g)


def test_homology_functorial_composites():
    # a coarse two-point grid computes the directly induced map; it must equal
    # the composite of the fine-grid steps along any monotone path
    cx = hollow_triangle()
    values = {0: (0, 1), 1: (1, Fraction(1, 2)), 2: (Fraction(1, 2), 0)}
    b = sublevel_bifiltration(cx, values)
    grid = grade_grid(b)
    fine = homology_module(b, 0, grid, 2)
    assert validate(fine) == []
    lo = grid.coords(tuple(0 for _ in range(2)))
    hi = grid.coords(tuple(len(a) - 1 for a in grid.axes))
    coarse = homology_module(b, 0, Grid(((lo[0], hi[0]), (lo[1], hi[1]))), 2)
    direct = coarse.path_map((0, 0), (1, 1))
    composed = fine.path_map(tuple(0 for _ in range(2)),
                             tuple(len(a) - 1 for a in grid.axes))
    assert np.array_equal(direct, composed)


def test_homology_warns_when_grid_truncates():
    cx = hollow_triangle()
    b = sublevel_bifiltration(cx, {0: (0, 0), 1: (2, 2), 2: (0, 0)})
    with pytest.warns(UserWarning, match="truncated"):
        homology_module(b, 0, Grid(((0, 1), (0, 1))), 2)


def test_vertex_perturbation_pair_verifies():
    # the grid must resolve eta (eta-spaced ticks), otherwise anchors round
    # the eta-shift away and the comparison degenerates to a 0-shift
    cx = hollow_triangle()
    f_vals = {0: (0, 1), 1: (1, Fraction(1, 2)), 2: (Fraction(1, 2), 0)}
    g_vals = {0: (Fraction(1, 4), 1), 1: (1, Fraction(3, 4)), 2: (Fraction(1, 2), 0)}
    ticks = tuple(Fraction(k, 4) for k in range(6))
    grid = Grid((ticks, ticks))
    vmod, wmod, wit = vertex_perturbation_pair(cx, f_vals, g_vals, 0, grid, 2,
                                               Fraction(1, 4))
    assert wit.verified, wit.violations
    assert wit.eps == Fraction(1, 4)
    assert validate(vmod) == [] and validate(wmod) == []


def test_vertex_perturbation_rejects_large_gap():
    cx = hollow_triangle()
    f_vals = {v: (0, 0) for v in cx.vertices}
    g_vals = {v: (1, 0) for v in cx.vertices}
    with pytest.raises(ValidationError):
        vertex_perturbation_pair(cx, f_vals, g_vals, 0,
                                 Grid(((0, 1), (0, 1))), 2, Fraction(1, 4))
