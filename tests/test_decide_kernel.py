"""The decide kernel: the triangle systems, the comparable-pairs rank scan,
the once-reduced system and the chunked candidate test against the earlier
per-element code kept in tests/oracles.py, at every candidate eps of random
F_2/F_3 pairs and of the degree-Rips H_0 pairs the compare benchmark builds.
The triangle tensors hold one block per generator grade of the module the
triangle starts from, not one per point, so they are compared as decide
reads them: by the rank and the reduced form of each system."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers import library
from obspers.errors import BudgetExceeded
from obspers.fields import _STACK_BITS, PrimeField
from obspers.metric import _side, _triangle, candidate_set, decide, rank_obstruction_at
from obspers.pipelines import degree_rips, homology_module, metric_space
from obspers.stepmodule import _CHUNK_CELLS, Grid, direct_sum

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


def assert_same_decision(v, w, eps, budget=BUDGET):
    try:
        slow = oracle_decide(v, w, eps, budget)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            decide(v, w, eps, budget=budget)
        return
    fast = decide(v, w, eps, budget=budget)
    assert (fast is None) == (slow is None), eps
    if fast is not None:
        assert fast.verified and fast.eps == slow.eps
        assert_same_morphism(fast.f, slow.f)
        assert_same_morphism(fast.g, slow.g)


def reduced_system(field, tensor, rhs):
    """The rank and the nonzero rows of the reduced form of the triangle's
    system [tensor.reshape(h1 * h2, n).T | rhs], the part decide reads."""
    h1, h2, n = tensor.shape
    rref, rank, _ = field.reduce(np.concatenate([tensor.reshape(h1 * h2, n).T, rhs[:, None]],
                                                axis=1))
    return rank, rref[:rank]


def assert_same_tensors(v, w, eps):
    sides = _side(v, w, eps), _side(w, v, eps)
    for first, second in ((0, 1), (1, 0)):
        rank, rows = reduced_system(v.field, *_triangle(sides[first], sides[second], eps))
        want_rank, want_rows = reduced_system(
            v.field, *oracle_triangle(sides[first], sides[second], eps))
        assert rank == want_rank and np.array_equal(rows, want_rows), eps


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
    assert [len(_side(LOW, HIGH, 1).rows), len(_side(HIGH, LOW, 1).rows)] == [1, 0]
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


# -- compare-shaped inputs: degree-Rips H_0 of 4- and 5-point clouds and their jitters

RADII, DEGREES = (0, 1, 2, 3), (0, 1, 2)
RIPS_GRID = Grid((RADII, tuple(-d for d in reversed(DEGREES))))
RIPS_BUDGET = 1 << 12

# (cloud, jitter): the jitter moves every point by at most 1 along each axis
CLOUDS = {
    "past the first chunk": ([(0, 2), (4, 1), (4, 2), (4, 5)],
                             [(0, 2), (5, 0), (5, 3), (4, 4)]),
    "rank obstructions": ([(0, 0), (1, 1), (1, 5), (4, 1)],
                          [(1, 0), (2, 1), (2, 6), (3, 1)]),
    "h = 11": ([(2, 4), (2, 5), (3, 5), (5, 0)],
               [(1, 3), (2, 5), (2, 4), (6, 0)]),
    # 5 points: at eps = 0 both Hom spaces have dimension 12 over F_2, and
    # the first consistent candidate is in the 17th chunk
    "h = 12, many chunks": ([(0, 1), (0, 4), (1, 5), (4, 0), (4, 2)],
                            [(0, 1), (1, 5), (2, 5), (5, 0), (3, 2)]),
}


def rips_h0(points, grid=RIPS_GRID):
    """H_0 over F_2 of the degree-Rips bifiltration of points in the plane
    under the Chebyshev distance, as the compare benchmark builds it."""
    d = [[max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in points] for a in points]
    bf = degree_rips(metric_space(list(range(len(points))), d), list(RADII), list(DEGREES))
    return homology_module(bf, 0, grid, 2)


@pytest.fixture
def chunks(monkeypatch):
    """Every stack of augmented systems decide hands to
    PrimeField.reduce_stack: (shape, which systems are consistent, that is
    have no pivot in the augmented column).  The generator grades of the
    modules compared come from reduce_stack too, so a test warms them with
    warm before it reads the log."""
    log, reduce_stack = [], PrimeField.reduce_stack

    def recording(self, aug):
        out = reduce_stack(self, aug)
        log.append((aug.shape, ~out[2][:, -1]))
        return out

    monkeypatch.setattr(PrimeField, "reduce_stack", recording)
    return log


def warm(chunks, *modules):
    """Compute the modules' generator grades, which decide's triangles and
    verify read, and clear the log, so that it holds decide's chunks only."""
    for v in modules:
        v._generators
    chunks.clear()


def assert_chunks_within_cap(chunks):
    assert chunks
    for (n, r, cols), _ in chunks:
        assert n == 1 or n * r * cols <= _CHUNK_CELLS, (n, r, cols)


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_decide_on_rips_h0_matches_oracle(name, chunks):
    v, w = (rips_h0(points) for points in CLOUDS[name])
    warm(chunks, v, w)
    for eps in candidate_set(v, w):
        for a, b in ((v, w), (w, v)):
            assert_same_decision(a, b, eps, RIPS_BUDGET)
    assert_chunks_within_cap(chunks)
    assert any(n > 1 for (n, _, _), _ in chunks)


def test_first_solvable_candidate_past_the_first_chunk(chunks):
    v, w = (rips_h0(points) for points in CLOUDS["past the first chunk"])
    warm(chunks, v, w)
    assert decide(v, w, 0, budget=RIPS_BUDGET).verified
    assert len(chunks) >= 2 and not chunks[0][1].any() and chunks[-1][1].any()
    assert_chunks_within_cap(chunks)
    assert_same_decision(v, w, 0, RIPS_BUDGET)


def test_first_solvable_candidate_several_chunks_into_an_h_12_scan(chunks):
    v, w = (rips_h0(points) for points in CLOUDS["h = 12, many chunks"])
    warm(chunks, v, w)
    assert [len(_side(v, w, 0).rows), len(_side(w, v, 0).rows)] == [12, 12]
    assert decide(v, w, 0, budget=RIPS_BUDGET).verified
    hits = [i for i, (_, consistent) in enumerate(chunks) if consistent.any()]
    assert hits == [len(chunks) - 1] and hits[0] >= 8
    # every chunk before the last is full, and over F_2 the packed pass takes it
    assert len({shape for shape, _ in chunks[:-1]}) == 1 and 1 < chunks[0][0][2] <= _STACK_BITS
    assert_chunks_within_cap(chunks)
    assert_same_decision(v, w, 0, RIPS_BUDGET)


def test_zero_hom_spaces_on_rips_h0(chunks):
    # at radius 0 no point has a neighbour, so no point has degree >= 1 and
    # H_0 is 0 on this grid: both Hom spaces are 0 and the one empty candidate
    # is tested (test_empty_hom_side_matches_oracle covers h = 0 < k)
    grid = Grid(((0,), (-2, -1)))
    with pytest.warns(UserWarning, match="truncated"):
        v, w = (rips_h0(points, grid) for points in CLOUDS["rank obstructions"])
    warm(chunks, v, w)
    assert v.total_dim == w.total_dim == 0
    for eps in (0, 1):
        assert [len(_side(v, w, eps).rows), len(_side(w, v, eps).rows)] == [0, 0]
        assert_same_decision(v, w, eps)
        assert decide(v, w, eps).verified
    assert [shape for shape, _ in chunks] == [(1, 0, 1)] * 4


def test_zero_hom_spaces_without_interleaving(chunks):
    # M_1 and M_2 over F_3 share their dimensions and ranks, so no rank
    # inequality fails, but neither maps to the other: the one empty
    # candidate leaves eta_0 = id on the right-hand side, and decide says none
    v, w = library.m_lambda(3, 1), library.m_lambda(3, 2)
    warm(chunks, v, w)
    assert [len(_side(v, w, 0).rows), len(_side(w, v, 0).rows)] == [0, 0]
    assert rank_obstruction_at(v, w, 0) is None
    assert decide(v, w, 0) is None
    assert len(chunks) == 1 and chunks[0][0][:1] == (1,) and not chunks[0][1].any()
    assert_same_decision(v, w, 0)


def test_certified_none_scans_every_candidate(chunks):
    # sampled degree-Rips H_0 pairs of 4-point clouds never reach this: where
    # they have no interleaving, a rank inequality already fails.  M_1 + E and
    # M_2 + E over F_3 share their rank invariant but are not isomorphic
    # (Krull-Schmidt), so decide must scan all 3^h candidates, in two chunks
    F3 = PrimeField(3)
    g = library.integer_grid(4)
    extra = direct_sum(library.constant_module(F3, g), library.box_interval(F3, g, (1, 1)))
    v, w = (direct_sum(library.m_lambda(3, lam), extra) for lam in (1, 2))
    warm(chunks, v, w)
    h = min(len(_side(v, w, 0).rows), len(_side(w, v, 0).rows))
    assert rank_obstruction_at(v, w, 0) is None
    assert decide(v, w, 0, budget=RIPS_BUDGET) is None
    assert len(chunks) == 2 and sum(n for (n, _, _), _ in chunks) == 3 ** h
    assert not any(hits.any() for _, hits in chunks)
    assert_chunks_within_cap(chunks)
    assert_same_decision(v, w, 0, RIPS_BUDGET)
