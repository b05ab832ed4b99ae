"""The padded-stack kernels against the per-edge and per-point code they
replaced (tests/oracles.py): validate's and validate_morphism's
violations, compose,
add_morphisms, _submodule and persistent_rank, on random modules over F_2 and
F_3 with one to three axes, single-coordinate axes and points of dimension
zero; and the cached stacks against freshly padded ones.  The random modules
are narrow, so the kernels run on them both with the narrowest size class as
it is (one class) and with it set to 1 (one class per power of two), and once
more on a module whose dimensions span two size classes.

Objects built from stacks (_from_stack) over F_2, F_3 and F_5: their steps
or comps are views built on first read, validate_morphism reads their
stacks alone and agrees with a dict-built copy, and the stacked
factor_morphism matches the per-point oracle.  Every module and morphism the
library's builders return holds its stack and no steps or comps until they
are read, the identity checks of a decomposition compare stacks without
building a comps view, and a certify benchmark job builds no steps view."""

import functools
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obspers.stepmodule as stepmodule
from obspers import library
from obspers.stability import shift_factor_morphism
from obspers.calculus import (discretize, eta, persistent_rank, restrict_morphism, shift,
                              shift_morphism, smooth)
from obspers.decompose import decompose, iso_test
from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.metric import decide, verify
from obspers.pipelines import degree_rips, homology_module, metric_space
from obspers.stepmodule import (Grid, Morphism, StepModule, _groups, _submodule,
                                add_morphisms, compose, direct_sum, factor_morphism, hom_basis,
                                hom_rows, identity_morphism, linear_combination,
                                restrict_extend, union_grids, validate, validate_morphism,
                                zero_morphism)

from conftest import assert_image_matches_oracle
from oracles import (oracle_add_morphisms, oracle_compose, oracle_persistent_rank,
                     oracle_submodule, oracle_validate, oracle_validate_morphism)

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
    # never empty: the public constructor reads an empty block as a zero
    # block of the right shape
    wrong[g] = np.ones((v.dims[g] + 1, v.dims[g] + 1), dtype=np.int64)
    del missing[g]
    off[(7,) * v.grid.n_axes] = [[1]]
    cases = [wrong, missing, off]
    if g != pts[-1]:
        # a wrong shape before a missing point: both are reported
        both = dict(wrong)
        del both[pts[-1]]
        cases.append(both)
    for comps in cases:
        m = Morphism(v, v, comps)
        assert validate_morphism(m) == oracle_validate_morphism(m)
        assert validate_morphism(m)


def broken_steps(rng, v):
    """v's steps with one nonempty step, if any, replaced by a random matrix
    of its shape: the squares through it then mostly fail to commute."""
    steps = dict(v.steps)
    sized = [k for k, m in steps.items() if m.size]
    if sized:
        k = sized[int(rng.integers(0, len(sized)))]
        steps[k] = rng.integers(0, v.field.p, size=steps[k].shape)
    return steps


@given(seeds, primes, narrowest)
def test_module_violations_match_the_oracle(seed, p, narrow):
    # well-formed and broken modules on one to three axes, and a skewed one
    # with a point wider than the narrowest size class, valid and broken
    rng, (v,) = modules(seed, p, 1)
    skewed = skewed_module(rng, p)
    cases = [v, skewed, restrict_extend(v, union_grids(v.grid, v.grid.translate(Fraction(1, 2))))]
    cases += [StepModule(x.field, x.grid, x.dims, broken_steps(rng, x)) for x in (v, skewed)]
    with classes_from(narrow):
        for x in cases:
            assert validate(x) == oracle_validate(x)
    assert validate(cases[0]) == validate(cases[1]) == []


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


# -- objects built from stacks ----------------------------------------------

all_primes = st.sampled_from([2, 3, 5])


def stack_built(seed, p):
    """Modules and morphisms fresh from _from_stack, none of them read yet:
    a composite, a sum, a random submodule, an image with its inclusion, and
    the summands and witnesses of a decomposition; random modules over F_p
    on one random grid, then a module whose dimensions span two size
    classes.  Each object is listed once: decompose returns one identity as
    both the inclusion and the projection of an indecomposable module."""
    rng, (u, v, w) = modules(seed, p, 3)
    f, f2, g = (random_morphism(rng, a, b) for a, b in ((u, v), (u, v), (v, w)))
    pts = v.grid.points()
    dims = {q: int(rng.integers(0, v.dims[q] + 2)) for q in pts}
    k = max(dims.values())
    sub = _submodule(v, dims, padded([rng.integers(0, p, size=(v.dims[q], dims[q]))
                                      for q in pts], width(v), k),
                     padded([rng.integers(0, p, size=(dims[q], v.dims[q])) for q in pts],
                            k, width(v)))
    out = [compose(g, f), add_morphisms(f, f2), sub]
    for x in (v, skewed_module(rng, p)):
        out += factor_morphism(eta(x, 1))
        dec = decompose(x)
        out += [s for s in dec.summands if s is not x] + dec.inclusions + dec.projections
    unique = {id(x): x for x in out if "_stack" in x.__dict__ and x is not v}
    return rng, list(unique.values())


def assert_lazy_view(x):
    """x's steps or comps is built on first read, as read-only int64 views
    that are the per-point blocks of x's stack, and read again as is."""
    if isinstance(x, Morphism):
        name, s, t = "comps", x.source.dims, x.target.dims
        blocks = {q: (q, t[q], s[q]) for q in x.grid.points()}
    else:
        name, dims = "steps", x.dims
        blocks = {(q, axis): ((q, axis), dims[h], dims[q])
                  for (q, axis), h in x.grid.edges.items()}
    assert name not in x.__dict__
    view = getattr(x, name)
    assert getattr(x, name) is view and x.__dict__[name] is view
    assert list(view) == list(blocks)
    for i, (key, rows, cols) in enumerate(blocks.values()):
        m = view[key]
        assert m.dtype == np.int64 and not m.flags.writeable
        assert not m.size or np.shares_memory(m, x._stack)
        assert m.shape == (rows, cols) and np.array_equal(m, x._stack[i, :rows, :cols]), key
    assert_fresh_stacks(x)


def assert_same_verdict(m):
    """validate_morphism on m, a morphism built from a stack and not read yet,
    equals its verdict on a copy built through the public constructor; the
    stack alone decides it when its shape is the padded one."""
    unread = Morphism._from_stack(m.source, m.target, m._stack)
    copy = Morphism(m.source, m.target, {q: c.copy() for q, c in unread.comps.items()})
    padded_shape = (len(m.grid.points()), width(m.target), width(m.source))
    assert validate_morphism(m) == validate_morphism(copy)
    assert ("comps" in m.__dict__) == (m._stack.shape != padded_shape)


@given(seeds, all_primes)
def test_stack_built_objects_build_their_dicts_on_first_read(seed, p):
    _, built = stack_built(seed, p)
    assert any(isinstance(x, Morphism) for x in built)
    assert any(isinstance(x, StepModule) for x in built)
    for x in built:
        if isinstance(x, Morphism):
            assert_same_verdict(x)
        assert_lazy_view(x)


@given(seeds, all_primes)
def test_stack_built_morphisms_with_a_bad_entry_or_width_get_the_dict_verdict(seed, p):
    rng, built = stack_built(seed, p)
    for m in built:
        if not isinstance(m, Morphism):
            continue
        pts, s, t = m.grid.points(), m.source.dims, m.target.dims
        # one corrupted entry inside a block: naturality may fail there
        sized = [i for i, q in enumerate(pts) if t[q] * s[q]]
        if sized:
            i = sized[int(rng.integers(0, len(sized)))]
            bad = m._stack.copy()
            r, c = int(rng.integers(0, t[pts[i]])), int(rng.integers(0, s[pts[i]]))
            bad[i, r, c] = (bad[i, r, c] + 1) % p
            assert_same_verdict(Morphism._from_stack(m.source, m.target, stepmodule._freeze(bad)))
        # a stack one row too narrow: the widest points' blocks lose a row.
        # The public constructor reads an empty block as a zero block of the
        # right shape, so the copy keeps the violation only where no such
        # block is empty
        wt = width(m.target)
        if wt > 1 and all(s[q] for q in pts if t[q] == wt):
            narrow = Morphism._from_stack(m.source, m.target, m._stack[:, :wt - 1])
            assert_same_verdict(narrow)
            assert validate_morphism(narrow)[0].startswith("component at ")


@given(seeds, all_primes)
def test_stacked_image_matches_the_oracle(seed, p):
    rng, (v, w) = modules(seed, p, 2)
    skewed = skewed_module(rng, p)
    for x in (v, skewed):
        for eps in (Fraction(1, 2), 1, 2):
            assert_image_matches_oracle(eta(x, eps))
        m = natural_morphism(rng, x, x)
        if m is not None:
            assert_image_matches_oracle(m)
    m = natural_morphism(rng, v, w)
    if m is not None:
        assert_image_matches_oracle(m)


def image_leaves(m):
    """True when a step of m's target carries the span of m's components at
    its start outside their span at its end, found per edge by a solve."""
    F, w = m.field, m.target
    span = {q: F.column_space_basis(m.comps[q]) for q in m.grid.points()}
    return any(F.solve(span[h], F.matmul(w.steps[(q, axis)], span[q])) is None
               for (q, axis), h in m.grid.edges.items())


@given(seeds, all_primes)
def test_stacked_image_of_a_morphism_that_is_not_natural(seed, p):
    rng, (v, w) = modules(seed, p, 2)
    for m in (random_morphism(rng, v, w), random_morphism(rng, v, v)):
        if image_leaves(m):
            with pytest.raises(ValidationError,
                               match=r"^induced step left the subspace; morphism invalid$"):
                factor_morphism(m)
            continue
        image, inclusion = factor_morphism(m)
        for q in m.grid.points():
            want = m.field.column_space_basis(m.comps[q])
            assert image.dims[q] == want.shape[1] and inclusion.comps[q].shape == want.shape
            assert np.array_equal(inclusion.comps[q], want)


# -- every module and morphism the library builds is a stack -------------------

def library_built(seed, p):
    """The morphisms that the library's builders return, none read yet:
    identity_morphism, zero_morphism, eta, smooth, discretize,
    restrict_morphism, shift_morphism, linear_combination, hom_basis, and
    iso_test and decide at 0 between a random module and a twist of it."""
    rng, (v, w) = modules(seed, p, 2)
    twin = library.twist_module(v, rng)
    e = eta(v, 1)
    res, pair = smooth(v, 1), discretize(v, Fraction(1, 2))
    rows = hom_rows(v, w)
    cert = decide(v, twin, 0)
    out = [identity_morphism(v), zero_morphism(v, w), e, res.f, res.g, pair.f, pair.g,
           restrict_morphism(e, union_grids(e.grid, e.grid.translate(Fraction(1, 3)))),
           shift_morphism(e, 1),
           linear_combination(v, w, rows, rng.integers(0, p, size=len(rows))),
           *hom_basis(v, w), iso_test(v, twin)[1], cert.f, cert.g]
    return list({id(m): m for m in out}.values())


@given(seeds, primes)
def test_library_morphisms_hold_stacks_and_build_comps_on_first_read(seed, p):
    built = library_built(seed, p)
    assert all("_stack" in m.__dict__ and "comps" not in m.__dict__ for m in built)
    for m in built:
        assert_lazy_view(m)


def library_built_modules(seed, p):
    """The modules that the library's builders return, none read yet:
    restrict_extend, shift (of a module and of a restriction), direct_sum,
    H_0 and H_1 of the degree-Rips bifiltration of a 4-cycle, the summands
    of a decomposition and the image of factor_morphism."""
    rng, (v, w) = modules(seed, p, 2)
    fine = union_grids(v.grid, v.grid.translate(Fraction(1, 3)))
    cycle = [[min(abs(i - j), 4 - abs(i - j)) for j in range(4)] for i in range(4)]
    rips = degree_rips(metric_space(list(range(4)), cycle), [0, 1, 2], [0, 1, 2])
    h0, h1 = (homology_module(rips, k, Grid(((0, 1, 2), (-2, -1, 0))), p) for k in (0, 1))
    assert h1.total_dim
    out = [restrict_extend(v, fine), shift(v, 1), shift(restrict_extend(w, fine), 2),
           direct_sum(v, w), h0, h1, factor_morphism(eta(v, 1))[0]]
    out += [s for s in decompose(v).summands if s is not v]
    return list({id(x): x for x in out}.values())


@given(seeds, primes)
def test_library_modules_hold_stacks_and_build_steps_on_first_read(seed, p):
    built = library_built_modules(seed, p)
    assert all("_stack" in v.__dict__ and "steps" not in v.__dict__ for v in built)
    for v in built:
        assert_lazy_view(v)


@settings(max_examples=25)
@given(seeds, primes)
def test_identity_checks_of_a_decomposition_build_no_comps_view(seed, p):
    # the checks of the decompose benchmark job: proj o inc = id on each
    # summand, and the inc o proj sum to id on the module
    rng, (v,) = modules(seed, p, 1)
    built, view = [], Morphism.comps.func
    for x in (v, skewed_module(rng, p)):
        dec = decompose(x)
        with patch.object(Morphism.comps, "func", lambda m: built.append(m) or view(m)):
            total = zero_morphism(x, x)
            for s, inc, proj in zip(dec.summands, dec.inclusions, dec.projections):
                assert compose(proj, inc) == identity_morphism(s)
                total = add_morphisms(total, compose(inc, proj))
            assert total == identity_morphism(x)
    assert built == []


@settings(max_examples=10)
@given(seeds)
def test_a_certify_job_builds_no_steps_view(seed):
    # discretize, smooth, their verified witnesses and shift_factor_morphism
    # on one input of the certify benchmark job read every step off a stack
    rng = np.random.default_rng(seed)
    v = library.random_module(PrimeField(2), rng, grid=library.random_grid(rng, lo=0, hi=2))
    built, view = [], StepModule.steps.func
    with patch.object(StepModule.steps, "func", lambda x: built.append(x) or view(x)):
        for eps in (1, Fraction(1, 2), Fraction(1, 4)):
            for res in (discretize(v, eps), smooth(v, eps)):
                assert verify(v, res.module, eps, res.f, res.g).verified
        gaps = v.grid.gaps()
        fac = shift_factor_morphism(v, min(gaps), max(gaps))
        assert fac.triangle_verified and validate_morphism(fac.m) == []
    assert built == []
