"""Grid homology on integer keys and the canonical JSON writer, each against
the code it replaced: homology_module and vertex_perturbation_pair against
the present_at oracles (byte for byte, warnings included, on monotone and
non-monotone bifiltrations), H_0 without any row reduction,
serialize.dumps against json.dumps(indent=2, sort_keys=True), and the
homology point's digests pinned."""

import io
import json
import math
import runpy
import sys
import warnings
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.pipelines import (Bifiltration, complex_from_simplices, degree_rips,
                               homology_module, metric_space, sublevel_bifiltration,
                               vertex_perturbation_pair)
from obspers.serialize import dumps, interleaving_to_json, module_to_json
from obspers.stepmodule import Grid

from oracles import (oracle_homology_module, oracle_vertex_perturbation_pair)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

rationals = st.builds(Fraction, st.integers(-3, 9), st.sampled_from([1, 2, 3, 4]))


def ticks(values):
    """Sorted distinct rationals, at least one."""
    return st.lists(values, min_size=1, max_size=5, unique=True).map(sorted)


def grid_near(b, draw):
    """A grid whose ticks are drawn from b's grade coordinates and from other
    rationals, so that some grades lie on it, some between its ticks, and
    some below or beyond it; on about half the axes the largest grade
    coordinate is a tick."""
    axes = []
    for a in range(b.n_axes):
        seen = sorted({g[a] for chain in b.grades.values() for g in chain})
        near = st.sampled_from(seen) | rationals if seen else rationals
        axis = set(draw(ticks(near)))
        if seen and draw(st.booleans()):  # the grid reaches every grade
            axis.add(seen[-1])
        axes.append(tuple(sorted(axis)))
    return Grid(tuple(axes))


def run(fn, *args):
    """(result or the ValidationError's text, the warnings' texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except ValidationError as exc:
            out = f"ValidationError: {exc}"
    return out, [str(w.message) for w in caught]


def assert_same_homology(b, k, grid, p):
    fast, fast_warned = run(homology_module, b, k, grid, p)
    slow, slow_warned = run(oracle_homology_module, b, k, grid, p)
    assert fast_warned == slow_warned
    if isinstance(slow, str):
        assert fast == slow
        return
    assert fast == slow
    assert dumps(module_to_json(fast)) == dumps(module_to_json(slow))
    for step in fast.steps.values():
        assert step.dtype == np.int64 and not step.flags.writeable


# -- homology_module against the present_at oracle ------------------------------

value = st.integers(0, 3) | rationals  # plain ints, or rationals


@st.composite
def complexes(draw):
    edges_and_triangles = st.lists(st.integers(0, 4), min_size=2, max_size=3, unique=True)
    simplices = draw(st.lists(edges_and_triangles | st.lists(st.integers(0, 4), min_size=1,
                                                             max_size=4, unique=True),
                              min_size=1, max_size=5))
    simplices += draw(st.sampled_from([  # nothing, a square for H1, or H2's sphere
        [], [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]))
    return complex_from_simplices(simplices)


@st.composite
def sublevel_cases(draw):
    cx = draw(complexes())
    b = sublevel_bifiltration(cx, {v: (draw(value), draw(value)) for v in cx.vertices})
    return b, grid_near(b, draw)


@settings(max_examples=80)
@given(sublevel_cases(), st.integers(0, 2), st.sampled_from([2, 3, 5]))
def test_sublevel_homology_matches_oracle(case, k, p):
    b, grid = case
    assert_same_homology(b, k, grid, p)


@st.composite
def unchecked_cases(draw):
    """Bifiltrations built directly, every simplex's grades drawn on their
    own, so that an edge may be present where an end of it is not: the
    components of H_0 then die, and a step may fail as not monotone."""
    cx = draw(complexes())
    grades = st.lists(st.tuples(value, value), max_size=2, unique=True)
    b = Bifiltration(cx, {s: tuple(draw(grades)) for s in cx.simplices})
    return b, grid_near(b, draw)


@settings(max_examples=120)
@given(unchecked_cases(), st.integers(0, 1), st.sampled_from([2, 3, 5]))
def test_non_monotone_homology_matches_oracle(case, k, p):
    b, grid = case
    assert_same_homology(b, k, grid, p)


def test_an_edge_with_one_end_present_kills_its_component():
    # at (0, 0) the edge (1, 2) is present and vertex 2 is not, so the class
    # of vertex 1 is a boundary; at (1, 0) the edge (0, 1) joins vertex 0 to it
    cx = complex_from_simplices([(0, 1), (1, 2)])
    grades = {(0,): ((0, 0),), (1,): ((0, 0),), (2,): ((1, 1),),
              (0, 1): ((1, 0),), (1, 2): ((0, 0),)}
    b = Bifiltration(cx, grades)
    grid = Grid(((0, 1), (0, 1)))
    v = homology_module(b, 0, grid, 2)
    assert v.dims == {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}
    assert v.steps[((0, 0), 1)].tolist() == [[1]] and v.steps[((0, 0), 0)].shape == (0, 1)
    for p in (2, 3, 5):
        for k in (0, 1):
            assert_same_homology(b, k, grid, p)


def test_an_edge_with_both_ends_absent_changes_nothing():
    cx = complex_from_simplices([(0, 1), (2,)])
    grades = {(0,): ((1, 1),), (1,): ((1, 1),), (2,): ((0, 0),), (0, 1): ((0, 0),)}
    b = Bifiltration(cx, grades)
    grid = Grid(((0, 1), (0, 1)))
    assert homology_module(b, 0, grid, 3).dims == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    for p in (2, 3, 5):
        for k in (0, 1):
            assert_same_homology(b, k, grid, p)


def test_h0_does_no_row_reduction(monkeypatch):
    calls = []
    for name in ("reduce", "solve"):
        real = getattr(PrimeField, name)

        def counted(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(PrimeField, name, counted)
    cloud = [(0, 0), (1, 0), (3, 1), (3, 3), (0, 2)]
    d = [[max(abs(a - c), abs(b - e)) for c, e in cloud] for a, b in cloud]
    rips = degree_rips(metric_space(list(range(len(cloud))), d), [0, 1, 2, 3], [0, 1, 2])
    rips_grid = Grid(((0, 1, 2, 3), (-2, -1, 0)))
    cx = complex_from_simplices([(0, 1), (1, 2), (0, 2), (2, 3)])
    sub = sublevel_bifiltration(cx, {0: (0, 1), 1: (1, 0), 2: (1, 1), 3: (Fraction(1, 2), 2)})
    sub_grid = Grid(((0, Fraction(1, 2), 1), (0, 1, 2)))
    for b, grid in ((rips, rips_grid), (sub, sub_grid)):
        assert homology_module(b, 0, grid, 3).total_dim > 0
    assert calls == []
    homology_module(rips, 1, rips_grid, 3)
    assert calls  # the counters see H_1's eliminations


@pytest.mark.parametrize("k, match", [
    (-1, "homology degree must be at least 0, not -1"),
    (1.5, "homology degree must be an integer, not 1.5"),
    (1.0, "homology degree must be an integer, not 1.0"),
    (True, "homology degree must be an integer, not True")])
def test_homology_degrees_are_integers_of_at_least_0(k, match):
    cx = complex_from_simplices([(0, 1), (1, 2), (0, 2)])
    values = {0: (0, 0), 1: (1, 0), 2: (0, 1)}
    b = sublevel_bifiltration(cx, values)
    grid = Grid(((0, 1), (0, 1)))
    with pytest.raises(ValidationError, match=match):
        homology_module(b, k, grid, 2)
    with pytest.raises(ValidationError, match=match):
        vertex_perturbation_pair(cx, values, values, k, grid, 2, 0)


@pytest.mark.parametrize("k", [0, 1])
def test_homology_rejects_a_prime_that_is_not_an_integer(k):
    b = sublevel_bifiltration(complex_from_simplices([(0, 1)]), {0: (0, 0), 1: (1, 1)})
    with pytest.raises(ValidationError, match="p must be an integer, not 2.0"):
        homology_module(b, k, Grid(((0, 1), (0, 1))), 2.0)


@st.composite
def rips_cases(draw):
    n = draw(st.integers(1, 6))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i] = Fraction(draw(st.integers(1, 6)), draw(st.sampled_from([1, 2])))
    radii = draw(st.lists(rationals.filter(lambda r: r >= 0), min_size=1, max_size=5))
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pseudometrics are admissible
        m = metric_space(list(range(n)), d)
    b = degree_rips(m, radii, degrees, max_dim=draw(st.integers(1, 3)))
    return b, grid_near(b, draw)


@settings(max_examples=80)
@given(rips_cases(), st.integers(0, 2), st.sampled_from([2, 3, 5]))
def test_degree_rips_homology_matches_oracle(case, k, p):
    b, grid = case
    assert_same_homology(b, k, grid, p)


def test_hollow_tetrahedron_h2_on_a_non_lattice_grid():
    cx = complex_from_simplices([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    values = {0: (0, 0), 1: (Fraction(1, 3), 0), 2: (0, Fraction(1, 2)), 3: (Fraction(5, 4), 1)}
    b = sublevel_bifiltration(cx, values)
    grid = Grid(((Fraction(-1, 2), Fraction(1, 3), Fraction(5, 4), 2), (0, Fraction(1, 2), 3)))
    for p in (2, 3):
        for k in (0, 1, 2):
            assert_same_homology(b, k, grid, p)
    assert homology_module(b, 2, grid, 3).dims[(2, 2)] == 1


def test_grades_beyond_and_below_the_grid():
    cx = complex_from_simplices([(0, 1), (1, 2), (0, 2)])
    b = sublevel_bifiltration(cx, {0: (-5, -5), 1: (1, 1), 2: (7, 0)})
    grid = Grid(((0, 1, 2), (0, 1)))
    with pytest.warns(UserWarning, match=r"grade of \(2,\) lies beyond the grid; module truncated"):
        v = homology_module(b, 0, grid, 2)
    assert v.dims[(0, 0)] == 1  # vertex 0 lies below the grid's minimum
    for k in (0, 1):
        assert_same_homology(b, k, grid, 2)


def test_a_simplex_without_grades_is_never_present():
    cx = complex_from_simplices([(0, 1)])
    b = Bifiltration(cx, {(0,): ((0, 0),), (1,): (), (0, 1): ()}, 2)
    grid = Grid(((0, 1), (0, 1)))
    with pytest.warns(UserWarning, match=r"grade of \(1,\) lies beyond the grid"):
        v = homology_module(b, 0, grid, 2)
    assert set(v.dims.values()) == {1}
    assert_same_homology(b, 0, grid, 2)


def test_a_grade_with_the_wrong_number_of_coordinates_raises():
    cx = complex_from_simplices([(0, 1)])
    b = sublevel_bifiltration(cx, {0: (0,), 1: (1,)})
    with pytest.raises(ValidationError, match="1 coordinates on a 2-axis grid"):
        homology_module(b, 0, Grid(((0, 1), (0, 1))), 2)


# -- vertex_perturbation_pair ----------------------------------------------------

@st.composite
def perturbation_cases(draw):
    cx = complex_from_simplices([(0, 1), (1, 2), (0, 2), (2, 3)])
    quarter = st.integers(0, 8).map(lambda x: Fraction(x, 4))
    f_values = {v: (draw(quarter), draw(quarter)) for v in cx.vertices}
    shift = st.integers(-1, 1).map(lambda x: Fraction(x, 4))
    g_values = {v: tuple(c + draw(shift) for c in f_values[v]) for v in cx.vertices}
    axis = tuple(Fraction(x, 4) for x in range(-1, 11))
    return cx, f_values, g_values, Grid((axis, axis))


@settings(max_examples=25)
@given(perturbation_cases(), st.integers(0, 1), st.sampled_from([2, 3]))
def test_vertex_perturbation_pair_matches_oracle(case, k, p):
    cx, f_values, g_values, grid = case
    args = (cx, f_values, g_values, k, grid, p, Fraction(1, 4))
    fast, fast_warned = run(vertex_perturbation_pair, *args)
    slow, slow_warned = run(oracle_vertex_perturbation_pair, *args)
    assert fast_warned == slow_warned
    if isinstance(slow, str):
        assert fast == slow
        return
    assert fast[2].verified, fast[2].violations
    for mine, theirs in zip(fast[:2], slow[:2]):
        assert dumps(module_to_json(mine)) == dumps(module_to_json(theirs))
    assert dumps(interleaving_to_json(fast[2])) == dumps(interleaving_to_json(slow[2]))


# -- the canonical writer ----------------------------------------------------------

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(st.characters(codec=None, exclude_categories=())))
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


def canonical(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300)
@given(documents)
def test_dumps_matches_json(payload):
    assert dumps(payload) == canonical(payload)


@given(st.sampled_from([st.integers(), st.floats(), st.booleans(), st.none()]).flatmap(
    lambda keys: st.dictionaries(keys, st.integers() | st.text(), max_size=4)))
def test_dumps_writes_keys_of_every_json_type_as_json_does(payload):
    assert dumps(payload) == canonical(payload)


@pytest.mark.parametrize("payload", [
    [0.5, -0.0, 1e300, 5e-324, math.inf, -math.inf, math.nan],
    {"matrix": [[0.5]], "p": 2.5},
    "\x00\x1f\x7fé \ud800\U0001f600\"\\/",
    {"é": [], "\n": {}, "": ()},
    [[], {}, (), [[]], {"a": {}}],
    (1, (2, (3,)), [True, False, None]),
])
def test_dumps_edge_values(payload):
    assert dumps(payload) == canonical(payload)


def test_dumps_deep_nesting():
    payload = 0
    for depth in range(120):
        payload = [payload] if depth % 2 else {"k": payload, "j": [depth]}
    assert dumps(payload) == canonical(payload)


@pytest.mark.parametrize("payload", [{(1,): 2}, [object()], {"a": {1, 2}}, [Fraction(1, 2)],
                                     {1: 0, "a": 1}, [np.int64(1)]])
def test_dumps_raises_where_json_raises(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dumps(payload)


# -- the homology point -------------------------------------------------------------

def test_homology_point_digests(monkeypatch):
    """scripts/run_homology_point.py at 28 points: H1's digest as recorded
    since the homology point was added, and H0's as the present_at code
    gave it."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(sys, "argv", ["run_homology_point.py", "--points", "28"])
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(SCRIPTS / "run_homology_point.py"), run_name="__main__")
    got = json.loads(out.getvalue())
    assert (got["total_dim"], got["sha256"]) == (
        17, "2b41532d332ef7742b7a714e5a4802d8204fc0e59f89319620d20852eb65b660")
    assert (got["h0_total_dim"], got["h0_sha256"]) == (
        136, "1b9f375f62d009fa30396dc3fbc4c560724a3d1cf1fef67e802752c884b55f4b")
