"""Interleaving verification, decision, and distance brackets."""

import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers import library, metric
from obspers.calculus import compose_matched, discretize, shift, shift_morphism
from obspers.decompose import decompose, iso_test, split_once
from obspers.errors import BudgetExceeded, ValidationError
from obspers.fields import PrimeField
from obspers.limits import precompact_probe
from obspers.metric import (INF, candidate_set, decide, distance_bracket,
                            rank_lower_bound, rank_obstruction_at, verify)
from obspers.serialize import bracket_to_json
from obspers.stability import perturbation_experiment, tau_indecomposable
from obspers.stepmodule import (DEFAULT_BUDGET, Grid, Morphism, identity_morphism,
                                restrict_extend, union_grids, zero_module,
                                zero_morphism)

from conftest import enumerate_interleavings
from oracles import oracle_distance_bracket, oracle_verify

F2 = PrimeField(2)
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def offset_cells(d):
    v = library.single_cell_module(F2, (0, 0), 1, 2)
    w = library.single_cell_module(F2, (d, d), 1, 2)
    return v, w


# -- verify --------------------------------------------------------------------

def test_verify_identity_at_zero():
    v = library.m_lambda(5, 1)
    i = identity_morphism(v)
    w = verify(v, v, 0, i, i)
    assert w.verified and w.violations == ()


def test_verify_density_pair():
    v = library.box_interval(F2, Grid(((Fraction(1, 3), 2), (0, 2))),
                             (Fraction(1, 3), 0))
    for eps in (1, Fraction(1, 2)):
        res = discretize(v, eps)
        assert verify(v, res.module, eps, res.f, res.g).verified


def test_verify_mutation_names_failure():
    # constant module: eta_2eps is nonzero everywhere on the support, so
    # zeroing any component of f must break naturality or a triangle
    v = library.constant_module(F2, Grid(((0, 1, 2), (0, 1, 2))))
    res = discretize(v, 1)
    f = res.f
    broken = {g: c.copy() for g, c in f.comps.items()}
    changed = None
    for g in sorted(broken):
        if broken[g].size and np.any(broken[g]):
            broken[g] = np.zeros_like(broken[g])
            changed = g
            break
    assert changed is not None
    bad = Morphism(f.source, f.target, broken)
    w = verify(v, res.module, 1, bad, res.g)
    assert not w.verified
    assert any("triangle" in viol or "naturality" in viol or "square" in viol
               for viol in w.violations)


def test_verify_names_a_triangle_through_a_zero_space():
    # V a unit cell at 0, W a cell at 1/4 of width 1/4, eps = 1/8: the zero
    # maps are natural, W(q + eps) = 0 at q = 0 where eta_{1/4} on V is the
    # identity, and eta_{1/4} on W is zero, so only V's triangle fails
    eps = Fraction(1, 8)
    v = library.single_cell_module(F2, (0, 0), 1, 2)
    w = library.single_cell_module(F2, (Fraction(1, 4),) * 2, Fraction(1, 4), 2)

    def zero(x, y):
        u = union_grids(x.grid, y.grid.translate(-eps))
        return zero_morphism(restrict_extend(x, u), restrict_extend(shift(y, eps), u))

    f, g = zero(v, w), zero(w, v)
    got = verify(v, w, eps, f, g)
    assert got.violations == ("triangle g[eps] o f != eta_2eps on V",)
    want = oracle_verify(v, w, eps, f, g)
    assert (got.verified, got.violations) == (want.verified, want.violations)


def test_verify_rejects_negative_eps():
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    i = identity_morphism(v)
    with pytest.raises(ValidationError):
        verify(v, v, -1, i, i)


# -- decide ----------------------------------------------------------------------

def test_decide_self_any_eps():
    v = library.m_lambda(5, 2)
    for eps in (0, Fraction(1, 2), 2):
        w = decide(v, v, eps)
        assert w is not None and w.verified


def test_decide_constant_vs_zero_none():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    z = restrict_extend(zero_module(2, 2), f.grid)
    for eps in (0, 1, 10):
        assert decide(f, z, eps) is None


def test_decide_offset_cells_threshold():
    v, w = offset_cells(Fraction(1, 4))
    assert decide(v, w, Fraction(1, 8)) is None
    found = decide(v, w, Fraction(1, 4))
    assert found is not None and found.verified


def test_decide_matches_exhaustive_enumeration():
    v, w = offset_cells(Fraction(1, 4))
    for eps in candidate_set(v, w):
        got = decide(v, w, eps)
        all_pairs = enumerate_interleavings(v, w, eps)
        assert (got is not None) == (len(all_pairs) > 0), eps
        if got is not None:
            assert got.verified


def test_decide_budget_raises():
    v, _ = library.random_library_sum(2, np.random.default_rng(0), 3)
    with pytest.raises(BudgetExceeded):
        decide(v, v, 1, budget=1)


# -- rank lower bound --------------------------------------------------------------

def test_rank_lower_bound_self_zero():
    v = library.m_lambda(5, 3)
    assert rank_lower_bound(v, v) == 0


def test_rank_lower_bound_constant_vs_zero_infinite():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    z = restrict_extend(zero_module(2, 2), f.grid)
    assert rank_lower_bound(f, z) == INF


def test_rank_lower_bound_at_most_distance():
    v, w = offset_cells(Fraction(1, 4))
    rlb = rank_lower_bound(v, w)
    br = distance_bracket(v, w)
    assert rlb <= br.upper


# -- distance bracket ----------------------------------------------------------------

def test_bracket_self_zero_identity_witness():
    v = library.m_lambda(5, 4)
    br = distance_bracket(v, v)
    assert (br.lower, br.upper, br.exact) == (0, 0, True)
    assert br.witness is not None and br.witness.eps == 0


def test_bracket_upper_at_most_discretization_eps(rng):
    for _ in range(3):
        v = library.random_module(F2, rng)
        for eps in (1, Fraction(1, 2)):
            res = discretize(v, eps)
            br = distance_bracket(v, res.module)
            assert br.upper <= eps


def test_bracket_offset_cells_exact():
    # d_I of unit cells offset diagonally by d is min(d, 1/2): past 1/2 the
    # 2eps-triviality of both cells allows the zero interleaving
    for d, want in ((Fraction(1, 4), Fraction(1, 4)),
                    (Fraction(3, 4), Fraction(1, 2))):
        v, w = offset_cells(d)
        br = distance_bracket(v, w)
        assert br.exact and br.lower == br.upper == want
        assert br.witness is not None and br.witness.eps == want


def test_bracket_zero_iff_isomorphic(rng):
    a, _ = library.random_library_sum(2, rng, 2)
    b, _ = library.random_library_sum(2, rng, 2)
    for v, w in ((a, a), (a, b)):
        br = distance_bracket(v, w)
        ok, _ = iso_test(v, w)
        assert (br.upper == 0 and br.exact) == ok


def test_bracket_infinite_when_eventual_dims_differ():
    f = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    z = restrict_extend(zero_module(2, 2), f.grid)
    br = distance_bracket(f, z)
    assert br.lower == INF and br.upper == INF
    assert br.witness is None


def test_candidate_set_contains_zero_and_sorted():
    v, w = offset_cells(Fraction(1, 4))
    cands = candidate_set(v, w)
    assert cands[0] == 0
    assert list(cands) == sorted(cands)
    assert Fraction(1, 4) in cands and Fraction(1, 2) in cands


# -- modules that cannot be compared -------------------------------------------

F3 = PrimeField(3)
G4 = Grid(((0, 1, 2, 3), (0, 1, 2, 3)))


def mismatched_pairs():
    """(v, w) over different fields, or with different numbers of axes."""
    line = Grid(((0, 1, 2, 3),))
    return [(library.box_interval(F2, G4, (0, 0), (2, 2)),
             library.box_interval(F3, G4, (1, 1), (1, 1))),
            (library.box_interval(F2, G4, (0, 0), (2, 2)),
             library.box_interval(F3, G4, (0, 0), (3, 3))),
            (library.box_interval(F2, G4, (0, 0), (2, 2)),
             library.box_interval(F2, line, (0,), (2,)))]


@pytest.mark.parametrize("v, w", mismatched_pairs())
def test_metric_functions_reject_incomparable_modules(v, w):
    for a, b in ((v, w), (w, v)):
        for eps in (0, 1, 2):
            with pytest.raises(ValidationError):
                decide(a, b, eps)
            with pytest.raises(ValidationError):
                rank_obstruction_at(a, b, eps)
        with pytest.raises(ValidationError):
            rank_lower_bound(a, b)
        with pytest.raises(ValidationError):
            distance_bracket(a, b)
        assert iso_test(a, b) == (False, None)


BUDGET_SEARCHES = {
    "decide": lambda v, b: decide(v, v, 0, budget=b),
    "distance_bracket": lambda v, b: distance_bracket(v, v, budget=b),
    "iso_test": lambda v, b: iso_test(v, v, budget=b),
    "split_once": lambda v, b: split_once(v, budget=b),
    "decompose": lambda v, b: decompose(v, budget=b),
    "precompact_probe": lambda v, b: precompact_probe([v, v], 1, budget=b),
    "tau_indecomposable": lambda v, b: tau_indecomposable(v, 1, budget=b),
    "perturbation_experiment": lambda v, b: perturbation_experiment(v, trials=1, budget=b),
}


@pytest.mark.parametrize("name", sorted(BUDGET_SEARCHES))
def test_search_budgets_are_validated(name):
    # a budget is a number of candidates: an integer of at least 1
    search = BUDGET_SEARCHES[name]
    v = library.box_interval(F2, G4, (0, 0), (2, 2))
    for bad in (-5, 0, True, 1.0, 2.5, Fraction(4), "4"):
        with pytest.raises(ValidationError, match="search budget"):
            search(v, bad)
    search(v, np.int64(4))


# -- the bracket's search ------------------------------------------------------

def counted_bracket(monkeypatch, bracket, v, w):
    """bracket(v, w) at budget 1 << 10, and the shifts at which it evaluated
    a rank obstruction."""
    shifts, check = [], metric.rank_obstruction_at

    def counted(a, b, eps):
        shifts.append(eps)
        return check(a, b, eps)

    with monkeypatch.context() as m:
        m.setattr(metric, "rank_obstruction_at", counted)
        return bracket(v, w, 1 << 10), shifts


@pytest.mark.parametrize("seed", [83, 101, 0, 1, 2, 3])
def test_distance_bracket_scans_each_shift_once(monkeypatch, seed):
    # the search evaluates each shift at most once, and only shifts that the
    # top-first search evaluates too, and 0, which it evaluates first
    rng = np.random.default_rng(seed)
    v = library.random_module(F2, rng, hi=2, max_summands=2)
    w = library.random_module(F2, rng, grid=v.grid, max_summands=2)
    fast, shifts = counted_bracket(monkeypatch, metric.distance_bracket, v, w)
    slow, oracle_shifts = counted_bracket(monkeypatch, oracle_distance_bracket, v, w)
    assert fast == slow
    assert len(set(shifts)) == len(shifts) and set(shifts) <= set(oracle_shifts) | {0}
    assert shifts[:1] in ([], [0])  # none where the eventual dimensions differ
    if seed == 101:
        # rank_lower_bound reads 0, yet the scan found an obstruction at 0:
        # the bracket must not evaluate 0 again, nor take the 0 as "none"
        assert metric.rank_lower_bound(v, w) == 0
        assert rank_obstruction_at(v, w, 0) is not None
        assert shifts.count(Fraction(0)) == 1


def bracket_pair(seed, p):
    """A random module over F_p and, for odd seeds, a random module on its
    grid, for even ones its discretization at 1, 1/2 or 1/3, which shares
    its eventual dimension."""
    rng = np.random.default_rng(seed)
    F = PrimeField(p)
    v = library.random_module(F, rng, max_summands=3)
    if seed % 2:
        return v, library.random_module(F, rng, grid=v.grid, max_summands=3)
    return v, discretize(v, Fraction(1, 1 + seed % 3)).module


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3]),
       st.sampled_from([4, 16, 256, DEFAULT_BUDGET]))
def test_distance_bracket_matches_the_top_first_search(seed, p, budget):
    # the same bracket wherever the top-first search has an upper bound or no
    # candidate succeeds, unless 0 succeeds, which the search decides first:
    # then the bracket is exact at 0.  Else only the top decision ran out of
    # budget, and the bracket holds the smaller verified success bisection met
    v, w = bracket_pair(seed, p)
    fast = distance_bracket(v, w, budget)
    slow = oracle_distance_bracket(v, w, budget)
    if fast.upper == 0:
        assert fast.exact and fast.lower == slow.lower == 0
        assert slow.upper == 0 or not slow.exact
        if slow.upper == 0:
            assert bracket_to_json(fast) == bracket_to_json(slow)
    elif slow.upper != INF or fast.upper == INF:
        assert bracket_to_json(fast) == bracket_to_json(slow)
    else:
        assert slow.certificates["largest_none_candidate"] is None
        assert slow.lower <= fast.lower <= fast.upper
    for br in (fast, slow):
        if br.witness is not None:
            wit = br.witness
            assert verify(v, w, wit.eps, wit.f, wit.g).verified


def test_distance_bracket_finds_a_success_below_an_exhausted_top():
    # at budget 256 deciding the top candidate 3 runs out of budget, and the
    # top-first search reported [5/8, INF] without a witness; bisection meets
    # the success at 3/4 and a certified none at 5/8 just below it
    v, w = bracket_pair(72, 2)
    slow = oracle_distance_bracket(v, w, 256)
    assert (slow.lower, slow.upper, slow.witness) == (Fraction(5, 8), INF, None)
    with pytest.raises(BudgetExceeded):
        decide(v, w, candidate_set(v, w)[-1], budget=256)
    br = distance_bracket(v, w, 256)
    assert (br.lower, br.upper, br.exact) == (Fraction(3, 4), Fraction(3, 4), True)
    assert br.certificates["largest_none_candidate"] == Fraction(5, 8)
    assert verify(v, w, br.witness.eps, br.witness.f, br.witness.g).verified


def test_distance_bracket_decides_zero_first():
    # a module and a twisted copy at budget 4: decide succeeds at 0, and the
    # top-first search, whose bisection meets decisions over budget above 0,
    # reported the inexact [0, 3]
    rng = np.random.default_rng(8)
    v = library.random_module(F2, rng, max_summands=3)
    w = library.twist_module(v, rng)
    slow = oracle_distance_bracket(v, w, 4)
    assert (slow.lower, slow.upper, slow.exact) == (0, 3, False)
    br = distance_bracket(v, w, 4)
    assert (br.lower, br.upper, br.exact) == (0, 0, True)
    assert br.witness.verified and iso_test(v, w)[0]
    assert bracket_to_json(br) == bracket_to_json(distance_bracket(v, w))


@pytest.mark.parametrize("points, pairs, exact, digest", [
    (4, 64, 64, "592c5df0a449561ebe5ec9428c149089a42bc88e514079b6aaa30fb077fc81a0"),
    (5, 8, 7, "f22e997c174bb73a0f1f8baa67bbba79edf702d6ee3e08645bc9d051d814c26f"),
    (5, 32, 28, "cfa41584153185afb084c2287f06be5b63ed49e1c082db19d818006e95602ce6"),
    # mostly out of budget: the brackets without an upper bound
    (6, 16, 1, "08648a6a5c81d7c31a98c2b60624e53b40227e63b81e8ed813407224a66a25f6"),
])
def test_decide_point_digests(monkeypatch, points, pairs, exact, digest):
    """scripts/run_decide_point.py: the digest of every bracket's canonical
    JSON as the top-first search gave it, and every witness verified (the
    script exits 0)."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(sys, "argv", ["run_decide_point.py", "--points", str(points),
                                      "--pairs", str(pairs)])
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "run_decide_point.py"), run_name="__main__")
    got = json.loads(out.getvalue())
    assert (done.value.code, got["exact"], got["sha256"]) == (0, exact, digest)


# -- the metric axioms, on the 4-point pool of scripts/run_decide_point.py ------

@pytest.fixture(scope="module")
def decide_pool():
    """The 64 pairs of run_decide_point.py --points 4, with the bracket of each."""
    script = runpy.run_path(str(SCRIPTS / "run_decide_point.py"))
    rng = np.random.default_rng(script["SEED"])
    pairs = [script["draw_pair"](rng, 4) for _ in range(64)]
    return pairs, [distance_bracket(v, w) for v, w in pairs]


def test_distance_bracket_is_symmetric(decide_pool):
    for (v, w), br in zip(*decide_pool):
        back = distance_bracket(w, v)
        assert (back.lower, back.upper, back.exact) == (br.lower, br.upper, br.exact)


def test_distance_zero_exactly_when_isomorphic(decide_pool):
    # only an exact bracket certifies the converse: a decision at 0 that runs
    # out of budget leaves upper above 0 where iso_test's random phase may
    # still find an isomorphism
    answers = set()
    for (v, w), br in zip(*decide_pool):
        same = iso_test(v, w)[0]
        if br.upper == 0:
            assert same
        elif br.exact:
            assert not same
        answers.add(same)
    assert answers == {True, False}


def test_composed_witnesses_verify_at_the_sum(decide_pool):
    # (f2[e1] o f1, g1[e2] o g2) interleaves U and W at e1 + e2, from the
    # witnesses of (U, V) and (V, W): verify checks a pair no search built,
    # and the certified lower bound of (U, W) is at most e1 + e2
    pairs, brackets = decide_pool
    composed = 0
    for k in range(len(pairs) - 1):
        (u, v), w = pairs[k], pairs[k + 1][0]
        first, second = brackets[k].witness, distance_bracket(v, w).witness
        if first is None or second is None:
            continue
        e1, e2 = first.eps, second.eps
        f = compose_matched(shift_morphism(second.f, e1), first.f)
        g = compose_matched(shift_morphism(first.g, e2), second.g)
        assert verify(u, w, e1 + e2, f, g).verified
        assert distance_bracket(u, w).lower <= e1 + e2
        composed += 1
    assert composed == 46
