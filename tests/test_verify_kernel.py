"""The anchored triangle check of verify and shift_factor_morphism against
the composite-building path it replaced (oracles.oracle_verify).

verify must return the same verdict and the same violations on witnesses
that verify, on natural single-entry corruptions of them, on zero morphisms
and on decide's witnesses, over F_2, F_3 and F_5 and on one, two and three
axes."""

from fractions import Fraction

import numpy as np
import pytest

from obspers import library
from obspers.calculus import (_triangle_holds, discretize, lattice_grid,
                              restriction_pair, smooth)
from obspers.errors import BudgetExceeded
from obspers.fields import PrimeField
from obspers.metric import decide, verify
from obspers.stability import shift_factor_morphism
from obspers.stepmodule import (Grid, Morphism, direct_sum,
                                identity_morphism, restrict_extend,
                                union_grids, validate_morphism, zero_morphism)

from conftest import tiny_decide_corpus
from oracles import oracle_shift_factor_ok, oracle_verify

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
            checks.append(_triangle_holds(res.first, bad, l, 0, beta, l.grid))
            assert checks[-1] == oracle_shift_factor_ok(l, bad, res.first, beta)
    assert False in checks


def test_triangle_kernel_needs_eta_zero_below_a_factor_grid():
    # first and second live on [1, 2]: below 1 their extensions are zero,
    # while eta on the constant module x is the identity there
    x = library.constant_module(PrimeField(2), Grid(((0, 2),)))
    late = identity_morphism(restrict_extend(x, Grid(((1, 2),))))
    on = union_grids(x.grid, late.grid)
    assert _triangle_holds(identity_morphism(x), identity_morphism(x), x, 0, 0, on)
    assert not _triangle_holds(late, identity_morphism(x), x, 0, 0, on)
    assert not _triangle_holds(identity_morphism(x), late, x, 0, 0, on)
