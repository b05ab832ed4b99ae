"""The decide kernel: stacked triangle tensors, the comparable-pairs rank
scan and the once-reduced system against the earlier per-element code kept in
tests/oracles.py, at every candidate eps of random F_2/F_3 pairs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers import library
from obspers.errors import BudgetExceeded
from obspers.fields import PrimeField
from obspers.metric import (_side, _stack, _triangle, candidate_set, decide,
                            rank_obstruction_at)
from obspers.stepmodule import Grid

from conftest import assert_same_morphism
from oracles import oracle_decide, oracle_rank_obstruction_at, oracle_triangle

seeds = st.integers(min_value=0, max_value=10 ** 6)
primes = st.sampled_from([2, 3])
BUDGET = 1 << 8

F2 = PrimeField(2)
G4 = Grid(((0, 1, 2, 3), (0, 1, 2, 3)))
# Hom(V, W[eps]) has dimension 1 and Hom(W, V[eps]) dimension 0 at eps = 1,
# where no rank inequality fails; at eps = 0 one does
LOW = library.box_interval(F2, G4, (0, 0), (1, 1))
HIGH = library.box_interval(F2, G4, (1, 1), (2, 2))


def pair(seed, p):
    rng = np.random.default_rng(seed)
    F = PrimeField(p)
    return (library.random_module(F, rng, max_summands=2),
            library.random_module(F, rng, max_summands=2))


def assert_same_decision(v, w, eps):
    try:
        slow = oracle_decide(v, w, eps, BUDGET)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            decide(v, w, eps, budget=BUDGET)
        return
    fast = decide(v, w, eps, budget=BUDGET)
    assert (fast is None) == (slow is None), eps
    if fast is not None:
        assert fast.verified and fast.eps == slow.eps
        assert_same_morphism(fast.f, slow.f)
        assert_same_morphism(fast.g, slow.g)


def assert_same_tensors(v, w, eps):
    sides = _side(v, w, eps), _side(w, v, eps)
    stacks = _stack(sides[0]), _stack(sides[1])
    for first, second in ((0, 1), (1, 0)):
        tensor, rhs = _triangle(sides[first], sides[second], eps,
                                stacks[first], stacks[second])
        want_tensor, want_rhs = oracle_triangle(sides[first], sides[second], eps)
        assert tensor.shape == want_tensor.shape and np.array_equal(tensor, want_tensor), eps
        assert np.array_equal(rhs, want_rhs), eps


@settings(max_examples=15)
@given(seeds, primes)
def test_triangle_tensors_match_oracle(seed, p):
    v, w = pair(seed, p)
    for eps in candidate_set(v, w):
        assert_same_tensors(v, w, eps)


@settings(max_examples=15)
@given(seeds, primes)
def test_rank_obstruction_messages_match_oracle(seed, p):
    v, w = pair(seed, p)
    for eps in candidate_set(v, w):
        for a, b in ((v, w), (w, v)):
            assert rank_obstruction_at(a, b, eps) == oracle_rank_obstruction_at(a, b, eps)


@settings(max_examples=15)
@given(seeds, primes)
def test_decide_witnesses_match_full_system_solve(seed, p):
    v, w = pair(seed, p)
    for eps in candidate_set(v, w):
        for a, b in ((v, w), (w, v)):
            assert_same_decision(a, b, eps)


def test_empty_hom_side_matches_oracle():
    assert [len(_side(LOW, HIGH, 1).basis), len(_side(HIGH, LOW, 1).basis)] == [1, 0]
    assert rank_obstruction_at(LOW, HIGH, 1) is None
    for eps in candidate_set(LOW, HIGH):
        assert_same_tensors(LOW, HIGH, eps)
        for a, b in ((LOW, HIGH), (HIGH, LOW)):
            assert_same_decision(a, b, eps)
    assert decide(LOW, HIGH, 1).verified


def test_firing_rank_obstruction_matches_oracle():
    for a, b in ((LOW, HIGH), (HIGH, LOW)):
        hit = rank_obstruction_at(a, b, 0)
        assert hit is not None and hit == oracle_rank_obstruction_at(a, b, 0)
        assert decide(a, b, 0) is None
