"""Interleaving verification, decision, and distance brackets."""

from fractions import Fraction

import numpy as np
import pytest

from obspers import library, metric
from obspers.calculus import discretize, shift
from obspers.decompose import iso_test
from obspers.errors import BudgetExceeded, ValidationError
from obspers.fields import PrimeField
from obspers.metric import (INF, candidate_set, decide, distance_bracket,
                            rank_lower_bound, rank_obstruction_at, verify)
from obspers.stepmodule import (Grid, Morphism, identity_morphism,
                                restrict_extend, union_grids, zero_module,
                                zero_morphism)

from conftest import enumerate_interleavings
from oracles import oracle_verify

F2 = PrimeField(2)


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


# -- the bracket's rank scan ---------------------------------------------------

def counted_bracket(monkeypatch, v, w, reuse):
    """distance_bracket(v, w) and the shifts at which it evaluated a rank
    obstruction; without reuse its decide calls scan for themselves."""
    shifts, scan, check = [], metric._rank_scan, metric.rank_obstruction_at

    def counted(a, b, eps):
        shifts.append(eps)
        return check(a, b, eps)

    with monkeypatch.context() as m:
        m.setattr(metric, "rank_obstruction_at", counted)
        if not reuse:
            m.setattr(metric, "_rank_scan", lambda a, b, cands: (scan(a, b, cands)[0], {}))
        return metric.distance_bracket(v, w, budget=1 << 10), shifts


@pytest.mark.parametrize("seed", [83, 101, 0, 1, 2, 3])
def test_distance_bracket_scans_each_shift_once(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    v = library.random_module(F2, rng, hi=2, max_summands=2)
    w = library.random_module(F2, rng, grid=v.grid, max_summands=2)
    fast, shifts = counted_bracket(monkeypatch, v, w, reuse=True)
    slow, repeated = counted_bracket(monkeypatch, v, w, reuse=False)
    assert fast == slow
    assert len(set(shifts)) == len(shifts) and set(shifts) == set(repeated)
    if seed == 101:
        # rank_lower_bound reads 0, yet the scan found an obstruction at 0:
        # the bracket must not decide 0 again, nor take the 0 as "none"
        assert metric.rank_lower_bound(v, w) == 0
        assert rank_obstruction_at(v, w, 0) is not None
        assert shifts.count(Fraction(0)) == 1 and len(repeated) > len(shifts)
