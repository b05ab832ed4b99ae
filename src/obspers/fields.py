"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays whose entries are residues in [0, p).  All
arithmetic is reduced mod p immediately, so values stay small and every
operation is exact; p is restricted to small primes, for which intermediate
dot products fit comfortably in 64 bits.  Zero-row and zero-column matrices
are legal everywhere (dimension-zero spaces occur constantly in grid modules).
Entries that are not integers are rejected, never truncated (`residues`).

Every row reduction of one matrix (`reduce`, and through it `rank`, `solve`,
`kernel_basis`, `column_space_basis`, `is_invertible` and `inverse`) runs
Gauss-Jordan elimination on Python integers or numpy rows, by size:

- a matrix of at most `_LIST_CELLS` cells, over any p, on rows held as lists
  of ints with a table of inverses mod p: most calls are on a handful of
  cells, where a numpy call costs more than the arithmetic;
- a larger matrix over F_2 on rows packed into one Python int each, bit c
  holding column c, so that adding a row is one XOR over all its columns;
- a larger matrix over an odd p by numpy row operations, a column at a time.

The reduced row echelon form of a matrix is unique, so every path returns
the same (rref, rank, pivots), and no caller can tell which one ran.
`reduce_stack` reduces a stack of matrices in one numpy pass.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)

# reduce takes matrices of at most this many cells on lists of Python ints.
# Lists beat packed rows over F_2 up to about 16 cells and numpy rows over
# F_3 up to 256 (dense) to 1024 cells (sparse); over the benchmark's
# recorded calls the total is flat within 1% from 32 to 128, lowest at 64.
_LIST_CELLS = 64


@functools.cache
def _inverses(p):
    """x -> x^-1 mod p as a tuple indexed by x, with 0 at 0."""
    return (0,) + tuple(pow(x, p - 2, p) for x in range(1, p))


def _reduce_bits(a):
    """reduce over F_2 on rows packed into Python ints, bit c holding column
    c, so that adding one row to another is one XOR; a is a nonempty array
    of 0s and 1s.

    Each row in turn is cleared of its lowest set bit by the kept row whose
    lowest bit that is, until it is 0 or its lowest bit is new; then it is
    kept.  The kept rows are in echelon form, and going down from the last
    pivot, each has every other pivot bit cleared by rows already reduced.
    The work follows the set bits, so sparse rows cost little."""
    rows, cols = a.shape
    packed = np.packbits(a, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    kept = {}
    for k in range(0, len(data), width):
        x = int.from_bytes(data[k:k + width], "little")
        while x:
            c = (x & -x).bit_length() - 1
            if c not in kept:
                kept[c] = x
                break
            x ^= kept[c]
    pivots = sorted(kept)
    mask = sum(1 << c for c in pivots)
    for c in reversed(pivots):
        x = kept[c]
        other = (x & mask) ^ (1 << c)
        while other:
            low = other & -other
            x ^= kept[low.bit_length() - 1]
            other ^= low
        kept[c] = x
    out = np.zeros((rows, cols), dtype=np.int64)
    data = b"".join(kept[c].to_bytes(width, "little") for c in pivots)
    out[:len(pivots)] = np.unpackbits(np.frombuffer(data, np.uint8).reshape(-1, width),
                                      axis=1, count=cols, bitorder="little")
    return out, len(pivots), pivots


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a small prime p.

    Scalars are plain ints in [0, p); matrix methods accept and return numpy
    int64 arrays of residues.
    """

    p: int

    def __post_init__(self):
        if self.p not in _SMALL_PRIMES:
            raise ValidationError(f"p must be a small prime, got {self.p}")

    # -- scalar arithmetic -------------------------------------------------

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(x, self.p - 2, self.p)

    # -- matrix constructors ----------------------------------------------

    def residues(self, data):
        """data as a new int64 array of residues, in data's shape.  A float
        array is taken only when every entry is an integer, which it then
        stands for exactly; a fraction, nan or inf, like any dtype that is
        not numeric, is a ValidationError where a cast would truncate it.
        The empty list passes, although np.array([]) is float64."""
        a = np.asarray(data)
        if a.dtype.kind == "f":
            with np.errstate(invalid="ignore"):
                a = np.mod(a, self.p)  # exact in floating point
            if (a != np.floor(a)).any():
                raise ValidationError("entries must be integers, found a fraction, nan or inf")
        elif a.dtype.kind not in "biu":
            raise ValidationError(f"entries must be integers, not {a.dtype}")
        return np.mod(a.astype(np.int64, copy=False), self.p)

    def matrix(self, rows):
        """Build a residue matrix from nested lists; shape may be r x 0."""
        a = self.residues(rows)
        if a.ndim == 1:
            a = a.reshape(len(rows), 0) if a.size == 0 else a.reshape(1, -1)
        if a.ndim != 2:
            raise ValueError("matrix data must be two dimensional")
        return a

    def zeros(self, rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n):
        return np.eye(n, dtype=np.int64)

    # -- matrix arithmetic --------------------------------------------------

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        return np.mod(a @ b, self.p)

    def matadd(self, a, b):
        return np.mod(a + b, self.p)

    def matscale(self, c, a):
        return np.mod(c * a, self.p)

    # -- elimination ---------------------------------------------------------

    def reduce(self, m):
        """Reduced row echelon form.

        Returns (rref, rank, pivot_columns): rref a new writable int64 array
        of m's shape, rank an int and pivot_columns a list of ints.
        Idempotent: reducing the result returns it unchanged.
        """
        a = np.mod(np.array(m, dtype=np.int64), self.p)
        if not a.size:
            return a, 0, []
        if a.size <= _LIST_CELLS:
            return self._reduce_lists(a)
        if self.p == 2:
            return _reduce_bits(a)
        return self._reduce_columns(a)

    def _reduce_lists(self, a):
        """reduce on rows held as lists of Python ints; a is a nonempty
        residue array, overwritten with the result."""
        p, inverse = self.p, _inverses(self.p)
        rows = a.tolist()
        n, pivots = len(rows), []
        for c in range(len(rows[0])):
            r = len(pivots)
            if r == n:
                break
            for i in range(r, n):
                if rows[i][c]:
                    break
            else:
                continue
            pivot = rows[i]
            if pivot[c] != 1:
                s = inverse[pivot[c]]
                pivot = [x * s % p for x in pivot]
            rows[i] = rows[r]
            rows = [[(x - f * y) % p for x, y in zip(row, pivot)] if (f := row[c]) else row
                    for row in rows]
            rows[r] = pivot
            pivots.append(c)
        a[:] = rows
        return a, len(pivots), pivots

    def _reduce_columns(self, a):
        """reduce by numpy row operations, one column at a time; a is a
        residue array, overwritten with the result."""
        rows, cols = a.shape
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + nz[0]
            if pr != r:
                a[[r, pr]] = a[[pr, r]]
            a[r] = (a[r] * self.inv(int(a[r, c]))) % self.p
            other = np.nonzero(a[:, c])[0]
            other = other[other != r]
            if other.size:
                a[other] = (a[other] - np.outer(a[other, c], a[r])) % self.p
            pivots.append(c)
            r += 1
        return a, len(pivots), pivots

    def reduce_stack(self, a):
        """reduce over a stack: a has shape (n, r, c), and the result is
        (rref, ranks, pivots) with rref of shape (n, r, c), ranks of shape
        (n,) and pivots an (n, c) boolean mask of the pivot columns.

        One Gauss-Jordan pass runs over the whole stack, a column at a time.
        In every matrix that has a nonzero entry in the column at or below
        its current rank row, the first such row is swapped up to the rank
        row, scaled to a leading 1 and used to clear the column in every
        other row, as reduce does for one matrix.  The rows from the rank row
        down are zero in every earlier column (each one either was a pivot
        column, cleared everywhere else, or had no nonzero entry there), so
        the clearing only touches this column and the ones after it.  Every
        slice ends in reduced row echelon form, which is unique, so
        rref[i], ranks[i] and the columns where pivots[i] holds are exactly
        what reduce returns for a[i].
        """
        a = np.mod(np.array(a, dtype=np.int64), self.p)
        if a.ndim != 3:
            raise ValueError(f"need a (n, r, c) stack, got shape {a.shape}")
        n, r, cols = a.shape
        inverses = np.array(_inverses(self.p), dtype=np.int64)
        ranks = np.zeros(n, dtype=np.int64)
        pivots = np.zeros((n, cols), dtype=bool)
        rows = np.arange(r)
        for c in range(cols):
            live = (a[:, :, c] != 0) & (rows >= ranks[:, None])
            found = live.any(axis=1)
            if not found.any():
                continue
            sel = np.flatnonzero(found)
            at, first = ranks[sel], live[sel].argmax(axis=1)
            pivot = a[sel, first, c:]
            a[sel, first, c:] = a[sel, at, c:]
            pivot = pivot * inverses[pivot[:, 0]][:, None] % self.p
            block = a[sel, :, c:]
            block = (block - block[:, :, :1] * pivot[:, None, :]) % self.p
            block[np.arange(len(sel)), at] = pivot
            a[sel, :, c:] = block
            pivots[sel, c] = True
            ranks[sel] += 1
        return a, ranks, pivots

    def rank(self, m):
        return self.reduce(m)[1]

    def kernel_basis(self, m):
        """Columns spanning ker m; column count = cols - rank(m)."""
        rref, rank, pivots = self.reduce(m)
        free = np.delete(np.arange(m.shape[1]), pivots)
        basis = self.zeros(m.shape[1], len(free))
        basis[free, range(len(free))] = 1
        basis[pivots] = -rref[:rank, free] % self.p
        return basis

    def solve(self, m, b):
        """Some x with m @ x = b, or None if inconsistent.

        b may be a vector-shaped (n, k) matrix; the solution then solves all
        right-hand sides at once.
        """
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if m.shape[0] != b.shape[0]:
            raise ValueError(f"row counts differ: {m.shape} vs {b.shape}")
        cols = m.shape[1]
        aug = np.concatenate([m, b], axis=1)
        rref, rank, pivots = self.reduce(aug)
        if any(pc >= cols for pc in pivots):
            return None
        x = self.zeros(cols, b.shape[1])
        x[pivots] = rref[:rank, cols:]
        return x

    def column_space_basis(self, m):
        """The pivot columns of m, a basis of its column space."""
        _, _, pivots = self.reduce(m)
        return m[:, pivots].copy()

    def is_invertible(self, m):
        return m.shape[0] == m.shape[1] and self.rank(m) == m.shape[0]

    def inverse(self, m):
        if m.shape[0] != m.shape[1]:
            raise ValueError("inverse needs a square matrix")
        x = self.solve(m, self.identity(m.shape[0]))
        if x is None or not np.array_equal(self.matmul(m, x), self.identity(m.shape[0])):
            raise ZeroDivisionError("matrix is singular")
        return x
