"""Endpoint checks without a rebuild: calculus.modules_match and
StepModule.__eq__ against the restricting comparison they replaced
(oracles.oracle_modules_match), on restrictions that do and do not refine
the base, shift copies, restrictions of restrictions and equal data built
independently."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from hypothesis import given, strategies as st

from obspers import calculus, library
from obspers.calculus import modules_match, shift
from obspers.fields import PrimeField
from obspers.metric import decide, verify
from obspers.stepmodule import Grid, StepModule, restrict_extend, union_grids

from oracles import oracle_modules_match

seeds = st.integers(min_value=0, max_value=10 ** 6)
primes = st.sampled_from([2, 3])
coords = st.fractions(min_value=-2, max_value=6, max_denominator=6)
axis_ticks = st.lists(coords, min_size=1, max_size=4, unique=True).map(sorted)
target_grids = st.tuples(axis_ticks, axis_ticks).map(lambda axes: Grid(tuple(map(tuple, axes))))
shifts = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def module(seed, p):
    return library.random_module(PrimeField(p), np.random.default_rng(seed))


def same_data(a, b):
    return (a.field == b.field and a.grid == b.grid and a.dims == b.dims
            and a.steps.keys() == b.steps.keys()
            and all(np.array_equal(m, b.steps[k]) for k, m in a.steps.items()))


def assert_matches_oracle(pairs):
    for a, b in pairs:
        want = oracle_modules_match(a, b)
        assert modules_match(a, b) == want and modules_match(b, a) == want
        if a.grid == b.grid:
            assert (a == b) == same_data(a, b) == (b == a)


def twin(v):
    """v's data copied into new objects, on a grid built again."""
    return StepModule(v.field, Grid(v.grid.axes), dict(v.dims),
                      {k: m.copy() for k, m in v.steps.items()})


@given(seeds, primes, target_grids, target_grids)
def test_restrictions_and_their_restrictions_match_the_oracle(seed, p, t1, t2):
    v = module(seed, p)
    r1, r2 = restrict_extend(v, t1), restrict_extend(v, t2)
    fine = restrict_extend(v, union_grids(v.grid, t1))  # refines the base
    rr = restrict_extend(r1, t2)
    rr_fine = restrict_extend(r1, union_grids(t1, t2))
    assert_matches_oracle([(r1, v), (r2, v), (fine, v), (rr, v), (rr, r1), (rr, r2),
                           (rr_fine, r1), (rr_fine, v), (r1, restrict_extend(v, t1)),
                           (fine, restrict_extend(v, fine.grid))])


@given(seeds, primes, shifts, shifts, target_grids)
def test_shift_copies_match_the_oracle(seed, p, e1, e2, target):
    v = module(seed, p)
    s1, s1b, s2 = shift(v, e1), shift(v, e1), shift(v, e2)
    on_union = restrict_extend(s1, union_grids(s1.grid, target))
    assert_matches_oracle([(s1, s1b), (s1, s2), (s1, v), (on_union, s1b), (on_union, s2),
                           (restrict_extend(s1, target), s1b)])
    assert modules_match(s1, s1b) and s1 == s1b


@given(seeds, primes, target_grids)
def test_equal_data_built_independently_matches_the_oracle(seed, p, target):
    v = module(seed, p)
    u = union_grids(v.grid, target)
    t = twin(v)
    other_field = StepModule._trusted(PrimeField(5), v.grid, v.dims, v.steps)
    assert_matches_oracle([(t, v), (t, restrict_extend(v, u)),
                           (restrict_extend(t, u), restrict_extend(v, u)),
                           (restrict_extend(t, target), restrict_extend(v, target))])
    assert not modules_match(other_field, v) and other_field != v


def test_endpoint_checks_restrict_nothing(monkeypatch):
    """The endpoints of discretize, smooth and decide witnesses are
    restrictions of V onto refinements of V's grid, or of a shift copy of W:
    verify matches them without restricting either module again."""
    v = module(7, 2)
    half = Fraction(1, 2)
    found = decide(v, shift(v, half), half)
    pairs = [calculus.discretize(v, half), calculus.smooth(v, half),
             SimpleNamespace(module=shift(v, half), eps=half, f=found.f, g=found.g)]

    def refuse(x, grid):
        raise AssertionError("modules_match restricted a module")

    monkeypatch.setattr(calculus, "restrict_extend", refuse)
    for res in pairs:
        eps, f, g = res.eps, res.f, res.g
        assert modules_match(f.source, v) and modules_match(g.source, res.module)
        assert modules_match(f.target, shift(res.module, eps))
        assert modules_match(g.target, shift(v, eps))
        assert verify(v, res.module, eps, f, g).verified
