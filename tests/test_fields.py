"""Exact F_p linear algebra against the list-based oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
