"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays whose entries are residues in [0, p).  All
arithmetic is reduced mod p immediately, so values stay small and every
operation is exact; p is restricted to small primes, for which intermediate
dot products fit comfortably in 64 bits.  Zero-row and zero-column matrices
are legal everywhere (dimension-zero spaces occur constantly in grid modules).
"""

from dataclasses import dataclass

import numpy as np

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a small prime p.

    Scalars are plain ints in [0, p); matrix methods accept and return numpy
    int64 arrays of residues.
    """

    p: int

    def __post_init__(self):
        if self.p not in _SMALL_PRIMES:
            raise ValueError(f"p must be a small prime, got {self.p}")

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

    def matrix(self, rows):
        """Build a residue matrix from nested lists; shape may be r x 0."""
        a = np.array(rows, dtype=np.int64)
        if a.ndim == 1:
            a = a.reshape(len(rows), 0) if a.size == 0 else a.reshape(1, -1)
        if a.ndim != 2:
            raise ValueError("matrix data must be two dimensional")
        return np.mod(a, self.p)

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

        Returns (rref, rank, pivot_columns).  Idempotent: reducing the result
        returns it unchanged.
        """
        a = np.mod(np.array(m, dtype=np.int64), self.p)
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
        inverses = np.array([0] + [self.inv(x) for x in range(1, self.p)], dtype=np.int64)
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
        rows, cols = m.shape
        rref, rank, pivots = self.reduce(m)
        free = [c for c in range(cols) if c not in pivots]
        basis = self.zeros(cols, len(free))
        for j, fc in enumerate(free):
            basis[fc, j] = 1
            for i, pc in enumerate(pivots):
                basis[pc, j] = (-rref[i, fc]) % self.p
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
        rows, cols = m.shape
        aug = np.concatenate([m, b], axis=1)
        rref, rank, pivots = self.reduce(aug)
        if any(pc >= cols for pc in pivots):
            return None
        x = self.zeros(cols, b.shape[1])
        for i, pc in enumerate(pivots):
            x[pc] = rref[i, cols:]
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
