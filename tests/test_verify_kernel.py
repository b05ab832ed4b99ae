"""The triangle check of verify and shift_factor_morphism against the
per-point check (oracles.oracle_triangle_holds) and the composite-building
path (oracles.oracle_verify) it replaced, and the generator grades it walks
against a per-point rank.

verify must return the same verdict and the same violations on witnesses
that verify, on natural single-entry corruptions of them, on zero morphisms
and on decide's witnesses, over F_2, F_3 and F_5 and on one, two and three
axes.  The generator-grade check is exact only for natural maps out of a
module, so verify and decide reject endpoints that are not modules, and
shift_factor_morphism a factor that is not natural."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obspers.stability as stability
from obspers import library
from obspers.calculus import (_triangle_holds, discretize, lattice_grid,
                              restriction_pair, smooth)
from obspers.errors import BudgetExceeded, ValidationError
from obspers.fields import _STACK_BITS, PrimeField
from obspers.metric import decide, verify
from obspers.stability import shift_factor_morphism
from obspers.stepmodule import (Grid, Morphism, StepModule, direct_sum,
                                identity_morphism, restrict_extend, validate,
                                validate_morphism, zero_morphism)

from conftest import tiny_decide_corpus
from oracles import oracle_shift_factor_ok, oracle_triangle_holds, oracle_verify

EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))


def module(p, n_axes, seed):
    """A sum of one to three box intervals over F_p, bounded or not, on a
    random grid in [0, 2]^n (2x2x2 in [0, 1]^3 on three axes), twisted by a
    basis change when seed is odd.  Untwisted, its basis vectors are born and
    die at grid points, so natural single-entry corruptions of its witnesses
    are common."""
    rng = np.random.default_rng(seed)
    F = PrimeField(p)
    hi = 1 if n_axes == 3 else 2
    grid = library.random_grid(rng, n_axes=n_axes, lo=0, hi=hi,
                               max_points=2 if n_axes == 3 else 3)
    pts = grid.points()
    boxes = []
    for _ in range(int(rng.integers(1, 4))):
        a, b = (grid.coords(pts[int(rng.integers(0, len(pts)))]) for _ in range(2))
        top = tuple(map(max, a, b)) if rng.integers(0, 2) else None
        boxes.append(library.box_interval(F, grid, tuple(map(min, a, b)), top))
    v = boxes[0]
    for box in boxes[1:]:
        v = direct_sum(v, box)
    return library.twist_module(v, rng) if seed % 2 else v


def witnesses(v, eps):
    """(w, f, g) for the discretization, smoothing and restriction pairs."""
    res = discretize(v, eps)
    yield res.module, res.f, res.g
    res = smooth(v, eps)
    yield res.module, res.f, res.g
    half = lattice_grid(eps / 2, v.grid.min_corner(), v.grid.max_corner())
    res = restriction_pair(v, half, eps)
    yield res.module, res.f, res.g


def natural_corruptions(m, rng, count):
    """Up to count copies of m, each with one entry changed, that stay
    natural: the entry (i, j) at q is one where source basis vector j is hit
    by no step into q and target basis vector i is killed by every step out
    of q."""
    grid, places = m.grid, []
    for q in grid.points():
        into = [m.source.steps[(q[:k] + (q[k] - 1,) + q[k + 1:], k)]
                for k in range(grid.n_axes) if q[k]]
        out = [m.target.steps[(q, k)] for k in range(grid.n_axes)
               if q[k] + 1 < grid.shape[k]]
        rows, cols = m.comps[q].shape
        places += [(q, i, j) for i in range(rows) if not any(s[:, i].any() for s in out)
                   for j in range(cols) if not any(s[j].any() for s in into)]
    for k in rng.permutation(len(places))[:count]:
        q, i, j = places[k]
        comps = dict(m.comps)
        comps[q] = m.comps[q].copy()
        comps[q][i, j] += int(rng.integers(1, m.field.p))
        bad = Morphism(m.source, m.target, comps)
        assert validate_morphism(bad) == []
        yield bad


def assert_same_verdict(v, w, eps, f, g):
    got, want = verify(v, w, eps, f, g), oracle_verify(v, w, eps, f, g)
    assert (got.verified, got.violations) == (want.verified, want.violations)
    return got


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_matches_oracle_on_witnesses_and_corruptions(p, n_axes):
    rng = np.random.default_rng(100 * p + n_axes)
    verdicts = []
    for seed in range(3 if n_axes < 3 else 2):
        v = module(p, n_axes, 10 * p + seed)
        for eps in EPSILONS:
            for w, f, g in witnesses(v, eps):
                verdicts.append(assert_same_verdict(v, w, eps, f, g).verified)
                assert verdicts[-1]
                for bad in natural_corruptions(f, rng, 2):
                    verdicts.append(assert_same_verdict(v, w, eps, bad, g).verified)
                for bad in natural_corruptions(g, rng, 2):
                    verdicts.append(assert_same_verdict(v, w, eps, f, bad).verified)
                zf = zero_morphism(f.source, f.target)
                zg = zero_morphism(g.source, g.target)
                verdicts.append(assert_same_verdict(v, w, eps, zf, g).verified)
                verdicts.append(assert_same_verdict(v, w, eps, zf, zg).verified)
    # the corpus reaches the triangles and fails them, not only passes
    assert verdicts.count(False) >= 10


@pytest.mark.parametrize("n_axes", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_matches_oracle_on_decide_witnesses(p, n_axes):
    mods = [module(p, n_axes, 10 * p + seed) for seed in range(3)]
    if n_axes == 2:
        mods += tiny_decide_corpus(p)[:4]
    found = 0
    for v in mods:
        for w in mods:
            for eps in (0, Fraction(1, 2), 1):
                try:
                    res = decide(v, w, eps)
                except BudgetExceeded:
                    continue
                if res is not None:
                    found += 1
                    assert assert_same_verdict(v, w, eps, res.f, res.g).verified
    assert found >= len(mods)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shift_factor_matches_the_composite_check(p):
    rng = np.random.default_rng(p)
    checks = []
    for seed in range(6):
        l = module(p, 1 + seed % 3, seed)
        gaps = [b - a for axis in l.grid.axes for a, b in zip(axis, axis[1:])]
        r = min(gaps) * Fraction(int(rng.integers(1, 5)), 4)
        beta = max(gaps) + Fraction(int(rng.integers(0, 4)), 4)
        res = shift_factor_morphism(l, r, beta)
        assert res.triangle_verified
        assert oracle_shift_factor_ok(l, res.m, res.first, beta)
        for bad in [zero_morphism(res.m.source, res.m.target),
                    *natural_corruptions(res.m, rng, 4)]:
            checks.append(_triangle_holds(res.first, bad, l, 0, beta))
            assert checks[-1] == oracle_shift_factor_ok(l, bad, res.first, beta)
    assert False in checks


def test_triangle_kernel_needs_eta_zero_below_a_factor_grid():
    # first and second live on [1, 2]: below 1 their extensions are zero,
    # while eta on the constant module x is the identity there
    x = library.constant_module(PrimeField(2), Grid(((0, 2),)))
    late = identity_morphism(restrict_extend(x, Grid(((1, 2),))))
    assert _triangle_holds(identity_morphism(x), identity_morphism(x), x, 0, 0)
    assert not _triangle_holds(late, identity_morphism(x), x, 0, 0)
    assert not _triangle_holds(identity_morphism(x), late, x, 0, 0)


@settings(max_examples=12)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_triangle_kernel_matches_the_per_cell_oracle(seed, p, n_axes):
    rng = np.random.default_rng(seed)
    v = module(p, n_axes, seed)
    eps = EPSILONS[seed % len(EPSILONS)]
    verdicts = []
    for w, f, g in witnesses(v, eps):
        for bad_f, bad_g in [(f, g), *((b, g) for b in natural_corruptions(f, rng, 2)),
                             *((f, b) for b in natural_corruptions(g, rng, 2)),
                             (zero_morphism(f.source, f.target), g),
                             (zero_morphism(f.source, f.target),
                              zero_morphism(g.source, g.target))]:
            for args in ((bad_f, bad_g, v, eps, 2 * eps), (bad_g, bad_f, w, eps, 2 * eps)):
                verdicts.append(_triangle_holds(*args))
                assert verdicts[-1] == oracle_triangle_holds(*args)
    assert True in verdicts


def incoming_ranks(v):
    """Per grid point, the rank of the unit steps into it side by side."""
    F, ranks = v.field, {}
    for g in v.grid.points():
        into = [v.steps[(g[:k] + (g[k] - 1,) + g[k + 1:], k)]
                for k in range(v.grid.n_axes) if g[k]]
        ranks[g] = F.rank(np.concatenate(into, axis=1)) if into else 0
    return ranks


@pytest.mark.parametrize("wide", [False, True])
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_generators_match_a_per_point_rank(wide, seed, p, n_axes):
    # steps of random rank between dimensions 0 to 5 (wide: one point of
    # dimension past _STACK_BITS / n_axes), commuting or not, so reduce_stack
    # takes the packed F_2 pass on the narrow stacks and the one on residues
    # on the wide ones and over F_3 and F_5
    rng = np.random.default_rng(seed)
    grid = Grid(tuple(tuple(range(int(rng.integers(1, 4)))) for _ in range(n_axes)))
    pts = grid.points()
    dims = {g: int(rng.integers(0, 6)) for g in pts}
    if wide:
        dims[pts[int(rng.integers(0, len(pts)))]] = _STACK_BITS // n_axes + 1
    steps = {}
    for (g, axis), h in grid.edges.items():
        inner = int(rng.integers(0, min(dims[g], dims[h]) + 1))
        steps[(g, axis)] = (rng.integers(0, p, size=(dims[h], inner))
                            @ rng.integers(0, p, size=(inner, dims[g])))
    v = StepModule(PrimeField(p), grid, dims, steps)
    assert (n_axes * max(dims.values()) > _STACK_BITS) == wide
    ranks = incoming_ranks(v)
    assert v._generators == tuple(g for g in pts if dims[g] > ranks[g])
    assert v._generators is v._generators


def test_generators_of_a_box_sum_are_its_births():
    F = PrimeField(3)
    grid = library.integer_grid(3)
    v = direct_sum(library.box_interval(F, grid, (0, 1), (2, 2)),
                   library.box_interval(F, grid, (1, 0)))
    assert v._generators == ((0, 1), (1, 0))
    assert library.twist_module(v, np.random.default_rng(0))._generators == ((0, 1), (1, 0))


# -- endpoints that are not modules, and factors that are not natural

def non_module():
    """A 2x2 F_2 module of dimension 1 everywhere whose step (0, 1) -> (1, 1)
    is 0, so the square at (0, 0) does not commute."""
    grid = Grid(((0, 1), (0, 1)))
    steps = {(g, axis): [[1]] for g, axis in grid.edges}
    steps[((0, 1), 0)] = [[0]]
    return StepModule(PrimeField(2), grid, {g: 1 for g in grid.points()}, steps)


def test_verify_rejects_endpoints_that_are_not_modules():
    v = non_module()
    assert validate(v) == ["square at (0, 0) axes (0,1) does not commute"]
    ident = identity_morphism(v)
    res = verify(v, v, 0, ident, ident)
    assert not res.verified
    assert res.violations == ("V is not a module: square at (0, 0) axes (0,1) does not commute",
                              "W is not a module: square at (0, 0) axes (0,1) does not commute")
    good = library.constant_module(PrimeField(2), v.grid)
    res = verify(good, v, 0, zero_morphism(good, v), zero_morphism(v, good))
    assert res.violations[0] == ("W is not a module: "
                                 "square at (0, 0) axes (0,1) does not commute")


def test_decide_rejects_endpoints_that_are_not_modules():
    v = non_module()
    good = library.constant_module(PrimeField(2), v.grid)
    for a, b in ((v, v), (v, good), (good, v)):
        with pytest.raises(ValidationError, match="is not a module: square at"):
            decide(a, b, 0)


def test_validate_runs_once_and_returns_a_new_list():
    v = non_module()
    first = validate(v)
    first.append("edited")
    assert validate(v) == ["square at (0, 0) axes (0,1) does not commute"]
    assert v._violations is v._violations


def test_restrictions_of_modules_are_modules():
    # validate skips a restriction of a module: a copy that does not record
    # its source is checked in full and passes too, and a restriction of a
    # module that fails validate is checked in full and fails
    fine = Grid(((0, Fraction(1, 2), 1, 2), (Fraction(-1), 0, 1)))
    for seed in range(4):
        v = module(3, 2, seed)
        for grid in (fine, v.grid.translate(Fraction(1, 3))):
            r = restrict_extend(v, grid)
            assert validate(r) == [] == validate(StepModule(r.field, r.grid, r.dims, r.steps))
    bad = restrict_extend(non_module(), Grid(((0, Fraction(1, 2), 1), (0, 1))))
    assert validate(bad) == ["square at (1, 0) axes (0,1) does not commute"]


def test_shift_factor_needs_a_natural_factor(monkeypatch):
    # one entry of m changed where the change breaks naturality: the
    # generator-grade triangle alone could miss it, the naturality check not
    l = module(2, 2, 4)
    gaps = [b - a for axis in l.grid.axes for a, b in zip(axis, axis[1:])]
    res = shift_factor_morphism(l, min(gaps), max(gaps))
    assert res.triangle_verified
    broken = []
    for q in res.m.grid.points():
        for i, j in np.ndindex(res.m.comps[q].shape):
            comps = dict(res.m.comps)
            comps[q] = res.m.comps[q].copy()
            comps[q][i, j] ^= 1
            bad = Morphism(res.m.source, res.m.target, comps)
            if validate_morphism(bad):
                broken.append(bad)
    assert broken
    for bad in broken:
        monkeypatch.setattr(stability, "anchored_morphism", lambda *args: bad)
        assert not shift_factor_morphism(l, min(gaps), max(gaps)).triangle_verified
    # some of them pass the triangle at l's generator grades
    assert any(_triangle_holds(res.first, bad, l, 0, max(gaps)) for bad in broken)
