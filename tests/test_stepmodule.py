"""Grids, step modules, morphisms, Hom spaces and images of morphisms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obspers import library, stepmodule
from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.stepmodule import (Grid, Morphism, StepModule, add_morphisms, compose,
                                direct_sum, factor_morphism,
                                hom_basis, hom_rows, identity_morphism,
                                linear_combination, restrict_extend,
                                union_grids, validate, validate_morphism,
                                zero_module, zero_morphism)
from obspers.calculus import eta, eta_on, restrict_morphism
from obspers.decompose import iso_test

from conftest import assert_same_morphism, to_plain
from oracles import (oracle_edges, oracle_factor_morphism, oracle_hom_count,
                     oracle_linear_combination, oracle_morphisms_match)

F2 = PrimeField(2)
F3 = PrimeField(3)

rationals = st.fractions(min_value=-4, max_value=8, max_denominator=4)


# -- grids -------------------------------------------------------------------

def test_grid_rejects_bad_axes():
    with pytest.raises(ValidationError):
        Grid(())
    with pytest.raises(ValidationError):
        Grid(((0, 0),))
    with pytest.raises(ValidationError):
        Grid(((1, 0),))
    with pytest.raises(ValidationError):
        Grid(((1, Fraction(1, 2)),))


@given(st.lists(rationals, min_size=2, max_size=5, unique=True), rationals)
def test_anchor_is_sup_below(ticks, s):
    axis = tuple(sorted(ticks))
    grid = Grid((axis,))
    idx = grid.anchor((s,))
    below = [i for i, c in enumerate(axis) if c <= s]
    if not below:
        assert idx is None
    else:
        assert idx == (max(below),)


def test_union_grids_merges_ticks():
    a = Grid(((0, 1), (0, 2)))
    b = Grid(((Fraction(1, 2),), (1, 2)))
    u = union_grids(a, b)
    assert u.axes == ((0, Fraction(1, 2), 1), (0, 1, 2))


@given(st.lists(st.lists(rationals, min_size=1, max_size=4, unique=True).map(sorted),
                min_size=2, max_size=4), rationals)
def test_translate_and_union_equal_validated_grids(axes, delta):
    a, b = Grid((axes[0], axes[1])), Grid((axes[-1], axes[-2]))
    expected = [(a.translate(delta), [[c + delta for c in x] for x in a.axes]),
                (union_grids(a, b), [sorted(set(x) | set(y)) for x, y in zip(a.axes, b.axes)])]
    for fast, want in expected:
        slow = Grid(tuple(map(tuple, want)))
        assert fast == slow and hash(fast) == hash(slow)
        assert all(type(c) is Fraction for axis in fast.axes for c in axis)


@given(st.lists(st.lists(rationals, min_size=1, max_size=4, unique=True).map(sorted),
                min_size=4, max_size=4), rationals, rationals)
def test_integer_keys_of_translated_and_merged_grids(axes, d1, d2):
    a, b = Grid((axes[0], axes[1])), Grid((axes[2], axes[3]))
    grids = [a, b, a.translate(d1), union_grids(a, b.translate(d1)),
             union_grids(a.translate(d2), b, a)]
    for g in grids:
        assert len(g._scaled) == g.n_axes
        for (den, keys), axis in zip(g._scaled, g.axes):
            assert keys == tuple(c * den for c in axis)
    for mine in grids:
        for theirs in grids:
            want = tuple(tuple(max((i for i, c in enumerate(m) if c <= t + d2), default=None)
                               for t in th) for m, th in zip(mine.axes, theirs.axes))
            assert mine.anchor_indices(theirs, d2) == want


def test_union_of_one_grid_is_that_grid():
    a = Grid(((0, 1), (0, Fraction(1, 3))))
    assert union_grids(a) is a and union_grids(a, a, a) is a
    twin = Grid(((0, 1), (0, Fraction(1, 3))))
    u = union_grids(a, twin)
    assert u == a and u is not a


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_edges_match_a_point_by_point_walk(shape):
    # single-coordinate axes have no steps; the order is points in
    # lexicographic order, then axes increasing
    grid = Grid(tuple(tuple(range(n)) for n in shape))
    assert list(grid.edges.items()) == oracle_edges(tuple(shape))


def test_grids_of_one_shape_share_one_read_only_table():
    a = Grid(((0, 1), (0, 1, 2)))
    b = Grid(((Fraction(1, 2), 3), (5, 6, 7)))
    assert a.edges is b.edges and a.edges is a.translate(1).edges
    assert a.edges[((0, 2), 0)] == (1, 2) and ((0, 2), 1) not in a.edges
    with pytest.raises(TypeError):
        a.edges[((0, 0), 0)] = (9, 9)


# -- equality ----------------------------------------------------------------

def per_step_equal(a, b):
    return (a.field == b.field and a.grid == b.grid and a.dims == b.dims
            and a.steps.keys() == b.steps.keys()
            and all(np.array_equal(m, b.steps[k]) for k, m in a.steps.items()))


def per_component_match(m1, m2):
    u = union_grids(m1.grid, m2.grid)
    r1, r2 = restrict_morphism(m1, u), restrict_morphism(m2, u)
    return (r1.source == r2.source and r1.target == r2.target
            and all(np.array_equal(r1.comps[g], r2.comps[g]) for g in u.points()))


def flipped(mats):
    """A copy of mats with one entry of its first nonempty matrix changed."""
    out = {k: m.copy() for k, m in mats.items()}
    for m in out.values():
        if m.size:
            m.flat[0] += 1
            break
    return out


@given(st.integers(0, 10 ** 6), st.sampled_from([F2, F3]))
def test_module_and_morphism_equality_match_per_step_comparison(seed, F):
    rng = np.random.default_rng(seed)
    v = library.random_module(F, rng)
    others = [StepModule(F, v.grid, v.dims, {k: m.copy() for k, m in v.steps.items()}),
              StepModule(F, v.grid, v.dims, flipped(v.steps)),
              restrict_extend(v, v.grid), library.random_module(F, rng, grid=v.grid)]
    for w in others:
        assert (v == w) == per_step_equal(v, w)
    e = eta(v, 1)
    fine = eta_on(v, 1, union_grids(e.grid, e.grid.translate(Fraction(1, 3))))
    changed = Morphism(e.source, e.target, flipped(e.comps))
    for m in (fine, changed, e):
        assert oracle_morphisms_match(e, m) == per_component_match(e, m)
        assert oracle_morphisms_match(m, e) == per_component_match(m, e)
    assert oracle_morphisms_match(e, fine)
    assert oracle_morphisms_match(e, changed) == (not any(c.size for c in e.comps.values()))


def test_equality_compares_shapes_of_equal_sized_matrices():
    grid = Grid(((0, 1),))
    dims = {(0,): 1, (1,): 2}
    tall = StepModule(F2, grid, dims, {((0,), 0): [[1], [1]]})
    wide = StepModule(F2, grid, dims, {((0,), 0): [[1, 1]]})
    assert tall != wide and not per_step_equal(tall, wide)
    assert tall == StepModule(F2, grid, dims, {((0,), 0): [[1], [1]]})
    one, two = (StepModule(F2, Grid(((0,),)), {(0,): n}, {}) for n in (1, 2))
    m_tall = Morphism(one, two, {(0,): [[1], [1]]})
    m_wide = Morphism(one, two, {(0,): [[1, 1]]})
    assert m_tall != m_wide
    assert not oracle_morphisms_match(m_tall, m_wide) and not per_component_match(m_tall, m_wide)


def test_constructors_give_empty_input_the_shape_its_dims_fix():
    grid = Grid(((0, 1),))
    v = StepModule(F2, grid, {(0,): 0, (1,): 0}, {((0,), 0): []})
    assert v.steps[((0,), 0)].shape == (0, 0) and validate(v) == []
    # a step out of a zero space, and one on an axis that does not exist
    w = StepModule(F2, grid, {(0,): 0, (1,): 2}, {((0,), 0): [], ((1,), 1): []})
    assert w.steps[((0,), 0)].shape == (2, 0) and w.steps[((1,), 1)].shape == (0, 2)
    a = library.box_interval(F2, grid, (1,))
    m = Morphism(a, w, {(0,): [], (1,): [[1], [0]]})
    assert m.comps[(0,)].shape == (0, 0) and validate_morphism(m) == []
    assert Morphism(w, a, {(0,): [[]], (1,): [[1, 1]]}).comps[(0,)].shape == (0, 0)


def test_step_module_rejects_entries_that_are_not_integers():
    grid, dims = Grid(((0, 1),)), {(0,): 1, (1,): 1}
    for step in ([[1.5]], np.array([[0.9]]), [[float("nan")]]):
        with pytest.raises(ValidationError, match=r"step at \(0,\) axis 0: entries must be integers"):
            StepModule(F2, grid, dims, {((0,), 0): step})
    # floats that are integers stand for them exactly
    assert (StepModule(F2, grid, dims, {((0,), 0): np.array([[3.0]])})
            == StepModule(F2, grid, dims, {((0,), 0): [[1]]}))


def test_step_module_rejects_dimensions_that_are_not_integers():
    grid = Grid(((0, 1),))
    for dim in (1.7, 1.0, Fraction(1)):
        with pytest.raises(ValidationError, match=r"dimension at \(0,\) must be an integer"):
            StepModule(F2, grid, {(0,): dim, (1,): 1}, {((0,), 0): [[1]]})
    v = StepModule(F2, grid, {(0,): np.int64(1), (1,): 1}, {((0,), 0): [[1]]})
    assert type(v.dims[(0,)]) is int


def test_morphism_rejects_entries_that_are_not_integers():
    v = library.constant_module(F2, Grid(((0, 1),)))
    with pytest.raises(ValidationError, match=r"component at \(0,\): entries must be integers"):
        Morphism(v, v, {(0,): [[0.5]], (1,): [[1]]})
    assert Morphism(v, v, {(0,): np.eye(1), (1,): [[1]]}) == identity_morphism(v)


def test_constructors_reject_empty_input_for_a_nonzero_map_and_stacks():
    grid = Grid(((0, 1),))
    with pytest.raises(ValidationError, match=r"step at \(0,\) axis 0 is empty"):
        StepModule(F2, grid, {(0,): 1, (1,): 1}, {((0,), 0): []})
    with pytest.raises(ValidationError, match="not a matrix"):
        StepModule(F2, grid, {(0,): 2, (1,): 2}, {((0,), 0): np.zeros((2, 1, 2))})
    v = library.constant_module(F2, grid)
    with pytest.raises(ValidationError, match=r"component at \(1,\) is empty"):
        Morphism(v, v, {(0,): [[1]], (1,): []})
    with pytest.raises(ValidationError, match="not a matrix"):
        Morphism(v, v, {(0,): [[1]], (1,): [[[1]]]})


def test_constructors_read_one_dimensional_input_in_the_shape_its_dims_fix():
    grid = Grid(((0, 1),))
    # the row [1, 1] is the only map from a plane to a line
    v = StepModule(F2, grid, {(0,): 2, (1,): 1}, {((0,), 0): [1, 1]})
    assert v.steps[((0,), 0)].tolist() == [[1, 1]] and validate(v) == []
    w = StepModule(F2, grid, {(0,): 1, (1,): 2}, {((0,), 0): [1, 0]})
    assert w.steps[((0,), 0)].tolist() == [[1], [0]] and validate(w) == []
    one, two = (StepModule(F2, Grid(((0,),)), {(0,): n}, {}) for n in (1, 2))
    assert Morphism(one, two, {(0,): [1, 1]}).comps[(0,)].tolist() == [[1], [1]]
    assert Morphism(two, one, {(0,): [0, 1]}).comps[(0,)].tolist() == [[0, 1]]
    with pytest.raises(ValidationError, match=r"step at \(0,\) axis 0 has 3 entries"):
        StepModule(F2, grid, {(0,): 2, (1,): 1}, {((0,), 0): [1, 1, 1]})
    with pytest.raises(ValidationError, match=r"component at \(0,\) has 1 entries"):
        Morphism(two, one, {(0,): 1})


def test_empty_steps_of_one_shape_are_one_shared_block():
    grid = Grid(((0, 1, 2),))
    v = StepModule(F2, grid, {g: 0 for g in grid.points()}, {((0,), 0): [], ((1,), 0): [[]]})
    w = StepModule(F3, grid, {(0,): 0, (1,): 0, (2,): 0}, {((0,), 0): np.zeros((0, 0))})
    block = v.steps[((0,), 0)]
    assert block is v.steps[((1,), 0)] and block is w.steps[((0,), 0)]
    assert block.shape == (0, 0) and not block.flags.writeable


# -- validate ----------------------------------------------------------------

def test_validate_constant_module_ok():
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    assert validate(v) == []


def test_validate_names_broken_square():
    grid = Grid(((0, 1), (0, 1)))
    v = library.constant_module(F3, grid)
    steps = dict(v.steps)
    steps[((0, 0), 0)] = F3.matrix([[2]])  # breaks commutativity of the square
    bad = StepModule(F3, grid, v.dims, steps)
    violations = validate(bad)
    assert violations and "square at (0, 0)" in violations[0]


def test_validate_shape_mismatch():
    grid = Grid(((0, 1),))
    v = StepModule(F2, grid, {(0,): 1, (1,): 1}, {((0,), 0): [[1, 0]]})
    violations = validate(v)
    assert violations and "shape" in violations[0]


@pytest.mark.parametrize("axis", [-1, 2])
def test_validate_reports_a_step_on_an_axis_the_grid_lacks(axis):
    # -1 would otherwise read the last axis from the end, and n_axes index
    # past it
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    steps = dict(v.steps)
    steps[((0, 0), axis)] = [[1]]
    violations = validate(StepModule(F2, v.grid, v.dims, steps))
    assert violations == [f"step at (0, 0) axis {axis} does not match any grid edge"]


def test_validate_reports_a_dimension_off_the_grid():
    grid = Grid(((0, 1),))
    v = StepModule(F2, grid, {(0,): 1, (1,): 1, (7,): 3}, {((0,), 0): [[1]]})
    assert v.total_dim == 5
    assert validate(v) == ["dimension at (7,) is not at a grid point"]


def test_validate_morphism_reports_a_component_off_the_grid():
    v = library.constant_module(F2, Grid(((0, 1),)))
    m = Morphism(v, v, {(0,): [[1]], (1,): [[1]], (7,): [[1, 1], [0, 1]]})
    assert validate_morphism(m) == ["component at (7,) is not at a grid point"]


def test_validate_reports_a_step_below_the_grid():
    # (-1, 0) + e_0 is the grid point (0, 0), but (-1, 0) is no grid point
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    dims, steps = dict(v.dims), dict(v.steps)
    dims[(-1, 0)] = 1
    steps[((-1, 0), 0)] = [[1]]
    assert validate(StepModule(F2, v.grid, dims, steps)) == [
        "dimension at (-1, 0) is not at a grid point",
        "step at (-1, 0) axis 0 does not match any grid edge"]


# -- evaluate ----------------------------------------------------------------

def test_evaluate_below_on_and_inside():
    grid = Grid(((0, 1), (0, 1)))
    v = library.constant_module(F2, grid)
    assert v.evaluate((-1, 0)) == (0, None)
    assert v.evaluate((1, 0)) == (1, (1, 0))
    # strictly inside the cell [(0,0), (1,1)) anchors back to (0,0)
    assert v.evaluate((Fraction(1, 2), Fraction(3, 4))) == (1, (0, 0))


def test_evaluate_rejects_a_point_of_the_wrong_arity():
    # a third coordinate was dropped and a missing one was a bare IndexError
    v = library.constant_module(F2, library.integer_grid(3))
    for s in ((1, 1, 99), (1,)):
        with pytest.raises(ValidationError, match=f"point has {len(s)} coordinates, "
                                                  "grid has 2 axes"):
            v.evaluate(s)
    assert v.evaluate((1, 1)) == (1, (1, 1))


@given(st.integers(0, 3), st.integers(0, 3),
       st.fractions(min_value=0, max_value=3, max_denominator=8),
       st.fractions(min_value=0, max_value=3, max_denominator=8))
def test_evaluate_constant_on_cells(i, j, dx, dy):
    grid = Grid(((0, 1, 2, 3), (0, 1, 2, 3)))
    v = library.box_interval(F2, grid, (1, 1), (2, 2))
    s = (Fraction(i) + dx, Fraction(j) + dy)
    a = grid.anchor(s)
    d, idx = v.evaluate(s)
    assert idx == a and d == v.dims[a]


# -- direct sum --------------------------------------------------------------

def test_sum_with_zero_is_isomorphic():
    v = library.m_lambda(5, 3)
    z = zero_module(5, n_axes=2)
    z = restrict_extend(z, v.grid)
    ok, _ = iso_test(direct_sum(v, z), v)
    assert ok


def test_sum_of_constants_has_dim_two():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    s = direct_sum(f, f)
    assert all(d == 2 for d in s.dims.values())
    assert validate(s) == []


# -- hom spaces --------------------------------------------------------------

def test_hom_constant_constant_is_identity_span():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    basis = hom_basis(f, f)
    assert len(basis) == 1
    m = basis[0]
    c = m.comps[(0, 0)][0, 0]
    assert c == 1  # a scalar multiple of the identity


def test_hom_into_zero_is_empty():
    v = library.constant_module(F2, Grid(((0, 1),)))
    z = restrict_extend(zero_module(2), v.grid)
    assert hom_basis(v, z) == []


def test_hom_dim_matches_exhaustive_enumeration():
    # all dims are 1 so the list-of-lists oracle represents every matrix
    grid = Grid(((0, 1), (0, 1)))
    dims = {g: 1 for g in grid.points()}
    v = StepModule(F2, grid, dims, {
        (((0, 0)), 0): [[1]], ((0, 0), 1): [[0]],
        ((1, 0), 1): [[0]], ((0, 1), 0): [[1]]})
    assert not validate(v)
    w = library.constant_module(F2, grid)
    basis = hom_basis(v, w)
    count = oracle_hom_count(to_plain(v), to_plain(w))
    assert 2 ** len(basis) == count == 2
    for m in basis:
        assert not validate_morphism(m)


# -- morphism algebra --------------------------------------------------------

def test_compose_and_identity():
    v = library.constant_module(F3, Grid(((0, 1), (0, 1))))
    i = identity_morphism(v)
    assert np.array_equal(compose(i, i).comps[(0, 0)], i.comps[(0, 0)])
    z = zero_morphism(v, v)
    assert not np.any(compose(i, z).comps[(1, 1)])


def assert_exact(m, p):
    """Components at every point, read-only, int64 and reduced mod p."""
    assert m.comps.keys() == set(m.grid.points())
    for c in m.comps.values():
        assert not c.flags.writeable and c.dtype == np.int64
        assert c.size == 0 or (c.min() >= 0 and c.max() < p)


def test_morphism_builders_match_the_validating_constructor():
    rng = np.random.default_rng(5)
    v = library.random_module(F3, rng, max_summands=3)
    w = library.twist_module(v, rng)
    vw, wv = hom_rows(v, w), hom_rows(w, v)
    f = linear_combination(v, w, vw, rng.integers(0, 3, size=len(vw)))
    g = linear_combination(w, v, wv, rng.integers(0, 3, size=len(wv)))
    points = v.grid.points()
    expected = [
        (compose(g, f), Morphism(v, v, {q: g.comps[q] @ f.comps[q] for q in points})),
        (add_morphisms(f, f), Morphism(v, w, {q: 2 * f.comps[q] for q in points})),
        (identity_morphism(v), Morphism(v, v, {q: np.eye(v.dims[q]) for q in points})),
        (zero_morphism(v, w), Morphism(v, w, {q: np.zeros((w.dims[q], v.dims[q]))
                                              for q in points})),
        # endpoints that are equal but different objects compose too
        (compose(f, identity_morphism(StepModule(v.field, v.grid, v.dims, v.steps))), f)]
    for built, want in expected:
        assert_same_morphism(built, want)
        assert_exact(built, 3)


def test_morphism_builders_keep_their_endpoint_errors():
    v = library.constant_module(F3, Grid(((0, 1), (0, 1))))
    u = library.constant_module(F3, Grid(((0, 2), (0, 1))))
    w = direct_sum(v, v)
    with pytest.raises(ValidationError, match="composition endpoints do not match"):
        compose(identity_morphism(v), zero_morphism(v, w))
    with pytest.raises(ValidationError, match="morphism endpoints must share a grid"):
        zero_morphism(v, u)


def test_validate_morphism_catches_non_naturality():
    grid = Grid(((0, 1),))
    v = library.box_interval(F2, grid, (0,))
    w = library.box_interval(F2, grid, (1,))
    # v -> w with a nonzero component at 1 breaks the naturality square:
    # the step of w into index 1 is 1x0, so the composite cannot be nonzero
    bad = Morphism(v, w, {(0,): F2.zeros(0, 1), (1,): F2.matrix([[1]])})
    violations = validate_morphism(bad)
    assert violations and "naturality" in violations[0]


def test_validate_morphism_checks_once_per_morphism(monkeypatch):
    grid = Grid(((0, 1),))
    v = library.box_interval(F2, grid, (0,))
    w = library.box_interval(F2, grid, (1,))
    bad = Morphism(v, w, {(0,): F2.zeros(0, 1), (1,): F2.matrix([[1]])})
    checks = []
    check = stepmodule._morphism_violations
    monkeypatch.setattr(stepmodule, "_morphism_violations",
                        lambda m: checks.append(m) or check(m))
    first = validate_morphism(bad)
    first.append("changed by the caller")
    assert validate_morphism(bad) == first[:-1] and checks == [bad]
    # a step of the wrong shape raises, and raises again: nothing is cached
    small = StepModule(F2, grid, {(0,): 2, (1,): 2}, {((0,), 0): [[1]]})
    m = Morphism(small, small, {g: np.eye(2, dtype=np.int64) for g in grid.points()})
    for _ in range(2):
        with pytest.raises(ValidationError, match=r"step at \(0,\) axis 0 has shape"):
            validate_morphism(m)
    assert len(checks) == 3


# -- image of a morphism ----------------------------------------------------

def assert_image_matches_oracle(m):
    """factor_morphism(m) is the oracle's image and image inclusion, element
    by element, and the image's dims are the pointwise ranks of m."""
    image, inclusion = factor_morphism(m)
    slow = oracle_factor_morphism(m)
    assert image == slow.image
    assert_same_morphism(inclusion, slow.image_inclusion)
    assert validate(image) == [] and validate_morphism(inclusion) == []
    for g in m.grid.points():
        assert image.dims[g] == m.field.rank(m.comps[g])


def test_factor_identity_and_zero():
    v = library.m_lambda(5, 2)
    image, inclusion = factor_morphism(identity_morphism(v))
    assert image == v
    assert inclusion == identity_morphism(v)
    image, inclusion = factor_morphism(zero_morphism(v, v))
    assert image.total_dim == 0
    assert all(c.shape == (v.dims[g], 0) for g, c in inclusion.comps.items())
    for m in (identity_morphism(v), zero_morphism(v, v)):
        assert_image_matches_oracle(m)


def test_add_morphisms_rejects_other_endpoints():
    a, b = (identity_morphism(library.constant_module(F2, library.integer_grid(n)))
            for n in (2, 3))
    with pytest.raises(ValidationError, match="sum endpoints do not match"):
        add_morphisms(a, b)
    v = library.constant_module(F2, Grid(((0, 1),)))
    w = library.box_interval(F2, v.grid, (1,))
    with pytest.raises(ValidationError, match="sum endpoints do not match"):
        add_morphisms(zero_morphism(v, w), zero_morphism(w, w))
    with pytest.raises(ValidationError, match="sum endpoints do not match"):
        add_morphisms(zero_morphism(w, v), zero_morphism(w, w))
    # equal endpoints that are different objects add
    same = StepModule(F2, v.grid, v.dims, v.steps)
    assert_same_morphism(add_morphisms(identity_morphism(v), identity_morphism(same)),
                         zero_morphism(v, v))


@given(st.integers(0, 10 ** 6), st.sampled_from([F2, F3]))
def test_linear_combination_matches_per_element_sum(seed, F):
    rng = np.random.default_rng(seed)
    v = library.random_module(F, rng, max_summands=3)
    for w in (v, library.twist_module(v, rng), library.random_module(F, rng, grid=v.grid)):
        rows = hom_rows(v, w)
        basis = hom_basis(v, w)
        for coeffs in (rng.integers(0, F.p, size=len(rows)), np.zeros(len(rows), np.int64)):
            got = linear_combination(v, w, rows, coeffs)
            assert_same_morphism(got, oracle_linear_combination(basis, coeffs, v, w))
            assert_exact(got, F.p)


def test_factor_random_rank_exactness(rng):
    # random endomorphisms and eta maps, against the full factorization
    for p in (2, 3, 5):
        F = PrimeField(p)
        for _ in range(4):
            v = library.random_module(F, rng)
            rows = hom_rows(v, v)
            m = linear_combination(v, v, rows, rng.integers(0, p, size=len(rows)))
            assert validate_morphism(m) == []
            assert_image_matches_oracle(m)
            for eps in (Fraction(1, 4), Fraction(1, 2), 1):
                assert_image_matches_oracle(eta(v, eps))


def test_factor_rejects_a_step_leaving_the_image():
    grid = Grid(((0, 1),))
    v = library.box_interval(F2, grid, (0,))
    # not natural: the image at 0 is everything, and v's step carries it to
    # a nonzero vector outside the image at 1, which is 0
    bad = Morphism(v, v, {(0,): [[1]], (1,): [[0]]})
    assert validate_morphism(bad)
    with pytest.raises(ValidationError, match="left the subspace"):
        factor_morphism(bad)


# -- restrict/extend ---------------------------------------------------------

def test_restrict_extend_identity_on_own_grid():
    v = library.m_lambda(5, 4)
    assert restrict_extend(v, v.grid) == v


def test_restrict_extend_idempotent():
    v = library.box_interval(F2, Grid(((0, 1, 2), (0, 1, 2))), (1, 1))
    target = Grid(((0, 2), (0, 2)))
    once = restrict_extend(v, target)
    assert restrict_extend(once, target) == once


def test_restrict_extend_zero_below_support():
    v = library.box_interval(F2, Grid(((1, 2), (1, 2))), (1, 1))
    below = Grid(((-2, -1), (-2, -1)))
    assert restrict_extend(v, below).total_dim == 0
