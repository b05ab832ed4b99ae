"""Exact F_p linear algebra against the list-based oracles."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obspers import fields
from obspers.errors import ValidationError
from obspers.fields import PrimeField

from oracles import (oracle_kernel_by_enumeration, oracle_matrix_rank,
                     oracle_rank_minor, oracle_rref, oracle_solve)


def test_field_requires_prime():
    PrimeField(2), PrimeField(13)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_scalar_ops_mod_p():
    F = PrimeField(5)
    assert F.add(3, 4) == 2
    assert F.neg(2) == 3
    assert F.mul(3, 4) == 2
    assert F.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_rref_identity_and_zero():
    F = PrimeField(2)
    eye = F.identity(3)
    assert F.rank(eye) == 3
    assert np.array_equal(F.reduce(eye)[0], eye)
    zero = F.zeros(2, 2)
    assert F.rank(zero) == 0


def test_rank_matches_minor_expansion():
    F = PrimeField(5)
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = F.matrix(rng.integers(0, 5, size=(4, 4)))
        assert F.rank(m) == oracle_rank_minor(m.tolist(), 5)


def test_kernel_matches_enumeration():
    F = PrimeField(3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = F.matrix(rng.integers(0, 3, size=(3, 5)))
        basis = F.kernel_basis(m)
        # every basis vector is annihilated
        if basis.shape[1]:
            assert not np.any(F.matmul(m, basis))
        # dimension agrees with the exhaustive kernel
        kernel = oracle_kernel_by_enumeration(m.tolist(), 3)
        assert 3 ** basis.shape[1] == len(kernel)
        assert basis.shape[1] == 5 - F.rank(m)


def test_solve_identity_zero_and_random():
    F = PrimeField(2)
    b = F.matrix([[1], [0], [1]])
    assert np.array_equal(F.solve(F.identity(3), b), b)
    assert F.solve(F.zeros(3, 3), b) is None
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = F.matrix(rng.integers(0, 2, size=(4, 3)))
        x0 = F.matrix(rng.integers(0, 2, size=(3, 1)))
        rhs = F.matmul(m, x0)
        x = F.solve(m, rhs)
        assert x is not None
        assert not np.any((m @ x - rhs) % 2)
        oracle = oracle_solve(m.tolist(), [int(r) for r in rhs[:, 0]], 2)
        assert oracle is not None


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_rref_rank_properties(rows, cols, data):
    F = PrimeField(3)
    entries = data.draw(st.lists(st.integers(0, 2), min_size=rows * cols,
                                 max_size=rows * cols))
    m = F.matrix(np.array(entries, dtype=np.int64).reshape(rows, cols)) \
        if rows * cols else F.zeros(rows, cols)
    r = F.rank(m)
    assert 0 <= r <= min(rows, cols)
    assert r == oracle_matrix_rank(m.tolist(), 3)
    red, rank2 = oracle_rref(m.tolist(), 3)
    assert rank2 == r


def test_inverse_round_trip():
    F = PrimeField(7)
    rng = np.random.default_rng(4)
    found = 0
    while found < 5:
        m = F.matrix(rng.integers(0, 7, size=(3, 3)))
        if not F.is_invertible(m):
            continue
        found += 1
        assert np.array_equal(F.matmul(m, F.inverse(m)), F.identity(3))


def test_matrix_reduces_residues():
    F = PrimeField(2)
    assert np.array_equal(F.matrix([[5, -1], [2, 3]]),
                          np.array([[1, 1], [0, 1]]))


def test_matrix_rejects_entries_that_are_not_integers():
    F = PrimeField(3)
    for data in ([[1.5, 2.7]], np.array([[0.9]]), [[float("nan")]], [[float("inf")]],
                 [["1"]], [[1j]]):
        with pytest.raises(ValidationError, match="entries must be integers"):
            F.matrix(data)
    # floats that are integers stand for them exactly; empty data has no dtype
    assert F.matrix(np.eye(2) * 4 - 1).tolist() == [[0, 2], [2, 0]]
    assert F.matrix([[1e20]]).tolist() == [[int(1e20) % 3]]
    assert F.matrix([]).shape == (0, 0) and F.matrix([[]]).shape == (1, 0)


def consistent(F, aug):
    """Which systems of a stack of augmented matrices reduce_stack finds
    consistent: those with no pivot in the augmented column."""
    return ~F.reduce_stack(aug)[2][:, -1]


def assert_consistent_matches_solve(F, aug):
    got = consistent(F, aug)
    assert got.shape == (aug.shape[0],) and got.dtype == bool
    for system, ok in zip(aug, got):
        m, b = system[:, :-1], system[:, -1:]
        assert ok == (F.solve(m, b) is not None)
        assert ok == (oracle_solve(m.tolist(), b[:, 0].tolist(), F.p) is not None)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 4), st.integers(0, 3),
       st.sampled_from(["random", "solvable", "zero rhs", "zero"]), st.data())
def test_consistent_matches_solve_and_oracle(p, n, rows, unknowns, kind, data):
    F = PrimeField(p)
    size = n * rows * (unknowns + 1)
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    aug = np.array(entries, dtype=np.int64).reshape(n, rows, unknowns + 1)
    if kind == "solvable":
        x = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=unknowns,
                                        max_size=unknowns)), dtype=np.int64)
        aug[:, :, -1] = aug[:, :, :-1] @ x % p
    elif kind == "zero rhs":
        aug[:, :, -1] = 0
    elif kind == "zero":
        aug[:] = 0
    assert_consistent_matches_solve(F, aug)
    if kind in ("solvable", "zero rhs", "zero"):
        assert consistent(F, aug).all()


def test_consistent_edge_shapes():
    F = PrimeField(3)
    no_rows = np.zeros((2, 0, 3), dtype=np.int64)
    assert consistent(F, no_rows).tolist() == [True, True]
    no_unknowns = np.array([[[0], [0]], [[0], [2]]], dtype=np.int64)
    assert consistent(F, no_unknowns).tolist() == [True, False]
    assert_consistent_matches_solve(F, no_unknowns)
    assert consistent(F, np.zeros((1, 3, 4), dtype=np.int64)).tolist() == [True]
    assert consistent(F, np.zeros((0, 2, 3), dtype=np.int64)).shape == (0,)
    # x + y = 1 and x + y = 0 have no common solution; dropping the second does
    one = np.array([[[1, 1, 1], [1, 1, 0]]], dtype=np.int64)
    assert consistent(F, one).tolist() == [False]
    assert consistent(F, one[:, :1]).tolist() == [True]
    # the pivot rows sit below rows that are zero in their column, in another
    # order in each system of the stack
    mixed = np.array([[[0, 0, 1], [0, 2, 1], [1, 0, 2], [1, 2, 0]],
                      [[1, 0, 2], [0, 0, 0], [0, 2, 1], [1, 2, 0]]], dtype=np.int64)
    assert_consistent_matches_solve(F, mixed)
    assert consistent(F, mixed).tolist() == [False, True]


def assert_reduce_stack_slices(F, a):
    rref, ranks, pivots = F.reduce_stack(a)
    n, _, c = a.shape
    assert rref.shape == a.shape and ranks.shape == (n,) and pivots.shape == (n, c)
    assert pivots.dtype == bool
    for m, got, rank, mask in zip(a, rref, ranks, pivots):
        want, want_rank, want_pivots = F.reduce(m)
        assert np.array_equal(got, want) and rank == want_rank
        assert np.flatnonzero(mask).tolist() == want_pivots
        assert (got.tolist(), rank) == oracle_rref((m % F.p).tolist(), F.p)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 4), st.integers(0, 4), st.integers(0, 5),
       st.sampled_from(["random", "sparse", "low rank"]), st.data())
def test_reduce_stack_matches_reduce_and_oracle(p, n, rows, cols, kind, data):
    F = PrimeField(p)
    size = n * rows * cols
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    a = np.array(entries, dtype=np.int64).reshape(n, rows, cols)
    if kind == "sparse":
        a[a != 1] = 0
    elif kind == "low rank":
        a = a[:, :, :1] @ a[:, :1, :] % p if rows * cols else a
    assert_reduce_stack_slices(F, a)


def test_reduce_stack_edge_shapes():
    F = PrimeField(3)
    for shape in ((0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0), (1, 1, 1)):
        assert_reduce_stack_slices(F, np.zeros(shape, dtype=np.int64))
    # pivots found in other rows and columns in each matrix of the stack,
    # entries given out of range
    a = np.array([[[0, 0, 2], [0, 1, 1], [2, 0, 0]],
                  [[1, 2, 0], [2, 1, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [0, 5, -1]]], dtype=np.int64)
    assert_reduce_stack_slices(F, a)
    assert F.reduce_stack(a)[1].tolist() == [3, 1, 1]
    with pytest.raises(ValueError):
        F.reduce_stack(np.zeros((2, 3), dtype=np.int64))


# -- reduce on every path: lists, packed F_2 bits and numpy columns -------------

def cells_from(n):
    """Run reduce with n as the largest matrix it takes on lists: at 0 every
    nonempty matrix is packed (F_2) or taken by columns, and at a huge n
    every matrix is taken on lists."""
    return patch.object(fields, "_LIST_CELLS", n)


list_cells = pytest.mark.parametrize("cells", [0, fields._LIST_CELLS, 10 ** 9])
# the byte boundaries of the packed rows, and the cell constant's neighbours
widths = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129]),
                   st.integers(0, 140))


def random_matrix(p, rows, cols, kind, seed):
    """A rows x cols matrix of the given kind with entries out of range:
    residues plus random multiples of p, some negative."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols))
    if kind == "sparse":
        m[rng.random((rows, cols)) < 0.85] = 0
    elif kind == "low rank":
        k = int(rng.integers(0, 4))
        m = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
    elif kind == "zero":
        m[:] = 0
    return m + p * rng.integers(-2, 3, size=(rows, cols))


def assert_reduce_matches_oracle(F, m):
    before = m.copy()
    rref, rank, pivots = F.reduce(m)
    want, want_rank = oracle_rref((m % F.p).tolist(), F.p)
    assert np.array_equal(m, before)
    assert rref.dtype == np.int64 and rref.shape == m.shape
    assert rref.flags.writeable and not np.shares_memory(rref, m)
    assert rref.tolist() == want and rank == want_rank and type(rank) is int
    assert pivots == leading_columns(want, rank)
    assert all(type(c) is int for c in pivots)
    again = F.reduce(rref)
    assert np.array_equal(again[0], rref) and again[1:] == (rank, pivots)
    assert F.rank(m) == rank
    assert np.array_equal(F.column_space_basis(m), m[:, pivots])
    return rref, rank, pivots


def assert_kernel_matches_oracle(F, m, rref, rank, pivots):
    cols = m.shape[1]
    basis = F.kernel_basis(m)
    free = [c for c in range(cols) if c not in pivots]
    assert basis.shape == (cols, cols - rank) and basis.dtype == np.int64
    assert np.array_equal(basis[free], np.eye(len(free), dtype=np.int64))
    assert np.array_equal(basis[pivots], -rref[:rank][:, free] % F.p)
    assert not (m @ basis % F.p).any()
    if len(m) and F.p ** cols <= 3 ** 7:  # the oracle reads cols off the first row
        assert F.p ** (cols - rank) == len(oracle_kernel_by_enumeration((m % F.p).tolist(), F.p))


def leading_columns(rref, rank):
    return [row.index(next(x for x in row if x)) for row in rref[:rank]]


def assert_solve_matches_oracle(F, m, b):
    cols = m.shape[1]
    aug, aug_rank = oracle_rref((np.concatenate([m, b], axis=1) % F.p).tolist(), F.p)
    lead = leading_columns(aug, aug_rank)
    consistent = all(c < cols for c in lead)
    if len(m) and F.p ** cols <= 3 ** 7 and b.shape[1] == 1:
        assert (oracle_solve((m % F.p).tolist(), b[:, 0].tolist(), F.p) is not None) == consistent
    x = F.solve(m, b)
    if not consistent:
        assert x is None
        return
    assert x.shape == (cols, b.shape[1]) and x.dtype == np.int64
    assert np.array_equal(m @ x % F.p, b % F.p)
    # the solution read off the reduced form: free unknowns are 0
    want = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for c, row in zip(lead, aug):
        want[c] = row[cols:]
    assert np.array_equal(x, want)


@list_cells
@settings(max_examples=150)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 20), widths,
       st.sampled_from(["random", "sparse", "low rank", "zero"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 2))
def test_elimination_matches_oracles_on_every_path(cells, p, rows, cols, kind, seed, k):
    F = PrimeField(p)
    m = random_matrix(p, rows, cols, kind, seed)
    with cells_from(cells):
        rref, rank, pivots = assert_reduce_matches_oracle(F, m)
        assert_kernel_matches_oracle(F, m, rref, rank, pivots)
        rng = np.random.default_rng(seed)
        solvable = m @ rng.integers(0, p, size=(cols, k)) + p * rng.integers(-1, 2, size=(rows, k))
        assert_solve_matches_oracle(F, m, solvable)
        assert_solve_matches_oracle(F, m, random_matrix(p, rows, k, "random", seed + 1))


@list_cells
def test_elimination_edge_shapes_on_every_path(cells):
    with cells_from(cells):
        for p in (2, 3):
            F = PrimeField(p)
            for shape in ((0, 0), (0, 5), (5, 0), (1, 1), (1, 65), (65, 1), (9, 129)):
                m = random_matrix(p, *shape, "random", 7)
                rref, rank, pivots = assert_reduce_matches_oracle(F, m)
                assert_kernel_matches_oracle(F, m, rref, rank, pivots)
                assert_solve_matches_oracle(F, m, random_matrix(p, shape[0], 1, "random", 8))
            # a read-only input, as the frozen steps of a module are
            m = random_matrix(p, 12, 70, "sparse", 9)
            m.setflags(write=False)
            assert_reduce_matches_oracle(F, m)
            # identity and all-ones blocks past a word of columns
            eye = np.eye(70, dtype=np.int64)
            assert np.array_equal(F.reduce(eye)[0], eye)
            assert F.reduce(np.ones((20, 130), dtype=np.int64))[1:] == (1, [0])
            assert np.array_equal(F.inverse(eye[:66, :66] * (p - 1)), eye[:66, :66] * (p - 1))
