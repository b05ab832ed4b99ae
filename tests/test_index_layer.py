"""The integer index layer: per-axis anchors, the cached structure maps and
restriction with reused steps against the point-by-point oracles, read-only
shared matrices, strict rational coercion at every entry point, and integer
index keys and axes everywhere."""

import json
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from obspers import library, limits, metric, serialize, stability
from obspers.calculus import (discretize, eta, eta_on, image_pairs, lattice_grid,
                              persistent_rank, refine, restrict_morphism,
                              restriction_pair, shift, smooth)
from obspers.cli import main as cli_main
from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.pipelines import (complex_from_simplices, degree_rips,
                               metric_space, sublevel_bifiltration,
                               vertex_perturbation_pair)
from obspers.stepmodule import (Grid, Morphism, StepModule, direct_sum,
                                restrict_extend, union_grids, validate,
                                validate_morphism)

from oracles import oracle_eta_on, oracle_path_map, oracle_restrict_extend

seeds = st.integers(min_value=0, max_value=10 ** 6)
primes = st.sampled_from([2, 3])
# reaches below and above the modules' [0, 4]^2 hulls, with denominators that
# the modules' quarter grids do not share, so the targets rarely refine them
coords = st.fractions(min_value=-2, max_value=6, max_denominator=6)
axis_ticks = st.lists(coords, min_size=1, max_size=5, unique=True).map(sorted)
target_grids = st.tuples(axis_ticks, axis_ticks).map(lambda axes: Grid(tuple(map(tuple, axes))))
shifts = st.fractions(min_value=0, max_value=3, max_denominator=4)
offsets = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def module(seed, p):
    return library.random_module(PrimeField(p), np.random.default_rng(seed))


def assert_same_module(fast, slow):
    assert fast.grid == slow.grid
    assert fast.dims == slow.dims
    assert fast.steps.keys() == slow.steps.keys()
    for key, m in slow.steps.items():
        assert np.array_equal(fast.steps[key], m), key


def assert_same_morphism(fast, slow):
    assert_same_module(fast.source, slow.source)
    assert_same_module(fast.target, slow.target)
    assert fast.comps.keys() == slow.comps.keys()
    for g, m in slow.comps.items():
        assert fast.comps[g].shape == m.shape and np.array_equal(fast.comps[g], m), g


# -- per-axis anchors ------------------------------------------------------------

@given(seeds, target_grids, offsets)
def test_anchors_on_matches_pointwise_anchor(seed, target, delta):
    v = module(seed, 2)
    anchors = v.grid.anchors_on(target, delta)
    assert anchors.keys() == set(target.points())
    for q, a in anchors.items():
        assert a == v.grid.anchor(tuple(c + delta for c in target.coords(q))), q


def test_anchors_on_below_minimum_is_none():
    g = Grid(((0, 1), (0, 1)))
    target = Grid(((-1, 0, Fraction(1, 2)), (Fraction(-1, 3), 2)))
    assert g.anchor_indices(target) == ((None, 0, 0), (None, 1))
    anchors = g.anchors_on(target)
    assert anchors[(0, 1)] is None and anchors[(1, 0)] is None
    assert anchors[(2, 1)] == (0, 1)
    assert g.anchors_on(target, Fraction(1, 3))[(1, 0)] == (0, 0)


# -- path_map against the walk of unit steps ---------------------------------------

def comparable_pairs(v, rng):
    """Every (a, b) with a <= b on v's grid, in a random order, so the maps are
    built from different cached prefixes on every draw."""
    pts = v.grid.points()
    pairs = [(a, b) for a in pts for b in pts if all(x <= y for x, y in zip(a, b))]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def non_commuting_module(seed, p):
    """Random dimensions and random steps on a small 3-axis grid: the squares
    almost never commute, so each path map depends on the path taken."""
    rng = np.random.default_rng(seed)
    grid = Grid(((0, 1), (0, 1, 2), (0, 1)))
    dims = {g: int(rng.integers(0, 3)) for g in grid.points()}
    steps = {(g, axis): rng.integers(0, p, size=(dims[h], dims[g]))
             for (g, axis), h in grid.edges.items()}
    return StepModule(PrimeField(p), grid, dims, steps)


def assert_path_maps_match_oracle(v, seed):
    for a, b in comparable_pairs(v, np.random.default_rng(seed)):
        m = v.path_map(a, b)
        want = oracle_path_map(v, a, b)
        assert m.shape == want.shape and np.array_equal(m, want), (a, b)
        assert m.dtype == np.int64 and not m.flags.writeable, (a, b)
        assert v.path_map(a, b) is m


@given(seeds, primes)
def test_path_map_matches_oracle(seed, p):
    assert_path_maps_match_oracle(module(seed, p), seed)


@given(seeds, primes)
def test_path_map_matches_oracle_on_non_commuting_modules(seed, p):
    v = non_commuting_module(seed, p)
    assume(validate(v))
    assert_path_maps_match_oracle(v, seed)


def test_path_map_shares_identities_and_steps():
    # a unit move is the step, read as a view of the stack; an identity is
    # the one shared _eye of its size
    v, w = module(4, 3), module(5, 3)
    for (g, axis), h in v.grid.edges.items():
        unit = v.path_map(g, h)
        assert np.array_equal(unit, v.steps[(g, axis)])
        assert np.shares_memory(unit, v._stack) and not unit.flags.writeable
    for g, h in product(v.grid.points(), w.grid.points()):
        if v.dims[g] == w.dims[h]:
            assert v.path_map(g, g) is w.path_map(h, h)


def test_path_map_rejects_a_start_not_below_the_end():
    v = module(6, 2)
    with pytest.raises(ValidationError, match="no path"):
        v.path_map((1, 0), (0, 1))


def test_path_map_rejects_indices_off_the_grid():
    v = library.constant_module(PrimeField(2), Grid(((0, 1),)))
    for a, b in (((5,), (5,)), ((0,), (7,)), ((0,), (1, 0)), ((0, 0), (1,))):
        with pytest.raises(ValidationError, match=re.escape(f"no path from {a} to {b}")):
            v.path_map(a, b)


def test_image_pairs_rejects_a_non_commuting_module():
    grid = Grid(((0, 1), (0, 1)))
    steps = dict(library.constant_module(PrimeField(2), grid).steps)
    steps[((0, 0), 1)] = PrimeField(2).matrix([[0]])  # breaks the square at (0, 0)
    bad = StepModule(PrimeField(2), grid, {g: 1 for g in grid.points()}, steps)
    with pytest.raises(ValidationError, match="square"):
        image_pairs(bad)


# -- restrict_extend and eta_on against the point-by-point oracles -----------------

@given(seeds, primes, target_grids)
def test_restrict_extend_matches_oracle(seed, p, target):
    v = module(seed, p)
    assert_same_module(restrict_extend(v, target), oracle_restrict_extend(v, target))


@given(seeds, primes, offsets)
def test_restrict_extend_on_translated_grids_matches_oracle(seed, p, delta):
    v = module(seed, p)
    for target in (v.grid.translate(delta), union_grids(v.grid, v.grid.translate(delta))):
        assert_same_module(restrict_extend(v, target), oracle_restrict_extend(v, target))


@given(seeds, primes)
def test_restrict_extend_to_own_grid_is_the_module(seed, p):
    v = module(seed, p)
    assert restrict_extend(v, v.grid) is v
    assert_same_module(v, oracle_restrict_extend(v, v.grid))


@given(seeds, primes, target_grids, shifts)
def test_eta_on_matches_oracle(seed, p, target, eps):
    v = module(seed, p)
    assert_same_morphism(eta_on(v, eps, target), oracle_eta_on(v, eps, target))


@given(seeds, primes, shifts)
def test_eta_on_own_refinement_matches_oracle(seed, p, eps):
    v = module(seed, p)
    grid = union_grids(v.grid, v.grid.translate(-eps))
    assert_same_morphism(eta_on(v, eps, grid), oracle_eta_on(v, eps, grid))


def test_grids_with_different_axis_counts_are_rejected():
    v = library.m_lambda(5, 1)
    line = Grid(((0, 1, 2),))
    cube = Grid(((0, 1), (0, 1), (0, 1)))
    for other in (line, cube):
        for call in (lambda: v.grid.anchors_on(other),
                     lambda: restrict_extend(v, other),
                     lambda: restriction_pair(v, other, 1),
                     lambda: eta_on(v, 1, other),
                     lambda: refine(v, other)):
            with pytest.raises(ValidationError, match="different numbers of axes"):
                call()


def test_refining_restriction_reuses_unit_steps(monkeypatch):
    # on a refinement the anchors of a step's two ends are equal or adjacent,
    # so every block is an identity or a copy of one of v's unit steps, and
    # no path map is read
    v = library.random_module(PrimeField(2), np.random.default_rng(3))
    fine = union_grids(v.grid, v.grid.translate(Fraction(1, 7)))

    def refuse(self, a, b):
        raise AssertionError(f"path_map({a}, {b}) read")

    with monkeypatch.context() as m:
        m.setattr(StepModule, "path_map", refuse)
        r = restrict_extend(v, fine)
    assert_same_module(r, oracle_restrict_extend(v, fine))


# -- read-only sharing -------------------------------------------------------------

def matrices(obj):
    if isinstance(obj, StepModule):
        return list(obj.steps.values())
    assert isinstance(obj, Morphism)
    return matrices(obj.source) + matrices(obj.target) + list(obj.comps.values())


def assert_sound(obj, p):
    for m in matrices(obj):
        assert not m.flags.writeable
        assert m.dtype == np.int64 and m.ndim == 2
        assert m.size == 0 or (m.min() >= 0 and m.max() < p)
    if isinstance(obj, StepModule):
        assert validate(obj) == []
    else:
        assert validate_morphism(obj) == []


@given(seeds, primes, target_grids, st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 4)]))
def test_results_are_read_only_reduced_and_valid(seed, p, target, eps):
    v = module(seed, p)
    w = module(seed + 1, p)
    results = [restrict_extend(v, target), eta_on(v, eps, target),
               restrict_morphism(eta(v, eps), target), direct_sum(v, w)]
    pair = restriction_pair(v, lattice_grid(eps, v.grid.min_corner(), v.grid.max_corner()), eps)
    results += [pair.module, pair.f, pair.g]
    sm = smooth(v, eps)
    results += [sm.module, sm.f, sm.g]
    for obj in results:
        assert_sound(obj, p)


def test_shared_step_cannot_be_written():
    v = library.random_module(PrimeField(2), np.random.default_rng(5))
    r = restrict_extend(v, v.grid)
    key = next(iter(r.steps))
    with pytest.raises(ValueError):
        r.steps[key][...] = 1


# -- strict rational coercion ------------------------------------------------------

V = library.box_interval(PrimeField(2), Grid(((0, 1, 2), (0, 1, 2))), (1, 1))
TRIANGLE = complex_from_simplices([(0, 1), (0, 2), (1, 2)])


def _perturbation_pair(x):
    ticks = tuple(Fraction(k, 2) for k in range(5))
    values = {0: (0, 0), 1: (1, 0), 2: (0, 1)}
    return vertex_perturbation_pair(TRIANGLE, values, values, 0, Grid((ticks, ticks)), 2, x)


ENTRY_POINTS = {
    "shift": lambda x: shift(V, x),
    "eta": lambda x: eta(V, x),
    "smooth": lambda x: smooth(V, x),
    "discretize": lambda x: discretize(V, x),
    "persistent_rank": lambda x: persistent_rank(V, x),
    "lattice_grid": lambda x: lattice_grid(x, (0, 0), (1, 1)),
    "decide": lambda x: metric.decide(V, V, x),
    "rank_obstruction_at": lambda x: metric.rank_obstruction_at(V, V, x),
    "strictly_trivial sigma": lambda x: stability.strictly_trivial(V, x),
    "shift_factor_morphism r": lambda x: stability.shift_factor_morphism(V, x, 1),
    "tau_indecomposable": lambda x: stability.tau_indecomposable(V, x),
    "degree_rips radii": lambda x: degree_rips(metric_space([0, 1], [[0, 1], [1, 0]]), [x], [0]),
    "metric_space distances": lambda x: metric_space([0, 1], [[0, x], [x, 0]]),
    "sublevel vertex values": lambda x: sublevel_bifiltration(
        TRIANGLE, {0: (x, 0), 1: (1, 0), 2: (0, 1)}),
    "vertex_perturbation_pair eta": _perturbation_pair,
    "precompact_probe delta": lambda x: limits.precompact_probe([V], x),
    "uniform_bounds_report eps": lambda x: limits.uniform_bounds_report([V], [x]),
    "box_interval lo": lambda x: library.box_interval(PrimeField(2), V.grid, (x, 0)),
    "box_interval hi": lambda x: library.box_interval(PrimeField(2), V.grid, (0, 0), (x, 2)),
    "single_cell_module corner": lambda x: library.single_cell_module(PrimeField(2), (x, 0), 1, 2),
    "single_cell_module width": lambda x: library.single_cell_module(PrimeField(2), (0, 0), x, 2),
    "random_grid hi": lambda x: library.random_grid(np.random.default_rng(0), hi=x),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_floats_are_rejected(name):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[name](1.0)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_int_fraction_and_str_are_accepted(name):
    for x in (1, Fraction(1), "1"):
        ENTRY_POINTS[name](x)


def test_smooth_rejects_a_float_epsilon():
    with pytest.raises(ValidationError):
        smooth(V, 0.1)
    assert smooth(V, "1/10").eps == Fraction(1, 10)


# -- integer index keys and axes ---------------------------------------------------

LINE = Grid(((0, 1),))


def test_a_step_key_that_is_not_an_integer_is_rejected():
    with pytest.raises(ValidationError, match="must be an integer"):
        StepModule(PrimeField(2), LINE, {(0,): 1, (1,): 1}, {((0.2,), 0.9): [[1]]})
    with pytest.raises(ValidationError, match="axis .* must be an integer"):
        StepModule(PrimeField(2), LINE, {(0,): 1, (1,): 1}, {((0,), 0.9): [[1]]})


def test_a_dims_key_that_is_not_an_integer_is_rejected():
    with pytest.raises(ValidationError, match="must be an integer"):
        StepModule(PrimeField(2), LINE, {(0.0,): 1, (1,): 1}, {((0,), 0): [[1]]})


def test_a_comps_key_that_is_not_an_integer_is_rejected():
    v = StepModule(PrimeField(2), LINE, {(0,): 1, (1,): 1}, {((0,), 0): [[1]]})
    with pytest.raises(ValidationError, match="must be an integer"):
        Morphism(v, v, {(0.0,): [[1]], (1,): [[1]]})


def test_integer_keys_of_other_types_are_kept_as_ints():
    v = StepModule(PrimeField(2), LINE, {(np.int64(0),): 1, (1,): 1},
                   {((np.int64(0),), np.int64(0)): [[1]]})
    assert validate(v) == []
    assert all(type(i) is int for g in v.dims for i in g)
    assert all(type(i) is int for g, axis in v.steps for i in g + (axis,))


def fractional_step_doc():
    doc = serialize.module_to_json(
        StepModule(PrimeField(2), LINE, {(0,): 1, (1,): 1}, {((0,), 0): [[1]]}))
    doc["steps"][0].update(at=[0.4], axis=0.7)
    return doc


def test_a_module_json_step_key_that_is_not_an_integer_is_rejected():
    with pytest.raises(ValidationError, match="must be an integer"):
        serialize.module_from_json(fractional_step_doc())
    doc = fractional_step_doc()
    doc["steps"][0]["at"] = [0]
    with pytest.raises(ValidationError, match="axis .* must be an integer"):
        serialize.module_from_json(doc)
    doc["steps"][0]["axis"] = 0
    doc["dims"]["0.0"] = doc["dims"].pop("0")
    with pytest.raises(ValidationError, match="not a list of integers"):
        serialize.module_from_json(doc)


def test_cli_validate_rejects_a_fractional_step_key(tmp_path, capsys):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(fractional_step_doc()))
    assert cli_main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "must be an integer" in err


def test_degree_rips_rejects_a_fractional_degree():
    m = metric_space([0, 1, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    with pytest.raises(ValidationError, match="degree must be an integer"):
        degree_rips(m, [0, 1, 2], [0, 1.7])


def test_m_lambda_rejects_a_fractional_lambda():
    with pytest.raises(ValidationError, match="lam must be an integer"):
        library.m_lambda(3, 1.5)
