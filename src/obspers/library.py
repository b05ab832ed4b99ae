"""Module constructions: constants, box intervals, named indecomposables on
the 3x3 grid, the 4x4 lambda family, and seeded random module generators for
test corpora.

Random modules are random direct sums of box intervals conjugated by random
pointwise basis changes; this samples genuinely non-diagonal presentations
while keeping commutativity by construction.
"""

from fractions import Fraction

import numpy as np

from .fields import PrimeField
from .stepmodule import Grid, StepModule, _frac, _integer, direct_sum


def _module_from_dims(F, grid, dims, mats):
    """Fill in steps: mats maps (g, axis) -> matrix for the nonzero blocks;
    everything else becomes an appropriately shaped zero matrix."""
    steps = {(g, axis): mats[(g, axis)] if (g, axis) in mats else F.zeros(dims[h], dims[g])
             for (g, axis), h in grid.edges.items()}
    return StepModule(F, grid, dims, steps)


def constant_module(F, grid):
    """Dimension 1 with identity steps at every grid point."""
    dims = {g: 1 for g in grid.points()}
    return _module_from_dims(F, grid, dims, dict.fromkeys(grid.edges, F.identity(1)))


def box_interval(F, grid, lo, hi=None):
    """Dimension 1 on the grid points of the box [lo, hi] (hi None means
    unbounded above), identity steps inside, zero elsewhere."""
    lo = tuple(_frac(x) for x in lo)
    hi = None if hi is None else tuple(_frac(x) for x in hi)

    def inside(g):
        c = grid.coords(g)
        if any(x < l for x, l in zip(c, lo)):
            return False
        if hi is not None and any(x > h for x, h in zip(c, hi)):
            return False
        return True

    dims = {g: 1 if inside(g) else 0 for g in grid.points()}
    mats = {(g, axis): F.identity(1) for (g, axis), h in grid.edges.items()
            if dims[g] and dims[h]}
    return _module_from_dims(F, grid, dims, mats)


def single_cell_module(F, corner, width, n_axes):
    """Dimension 1 exactly on [corner, corner + width); strictly trivial at
    every sigma >= width."""
    corner = tuple(_frac(x) for x in corner)
    width = _frac(width)
    axes = tuple((corner[i], corner[i] + width) for i in range(n_axes))
    grid = Grid(axes)
    dims = {g: 1 if all(i == 0 for i in g) else 0 for g in grid.points()}
    return _module_from_dims(F, grid, dims, {})


def integer_grid(n, n_axes=2):
    axis = tuple(Fraction(i) for i in range(n))
    return Grid(tuple(axis for _ in range(n_axes)))


def m_lambda(p, lam):
    """The 4x4-grid two-generator family: a staircase of one- and
    two-dimensional spaces whose last leg enters along (1, lam).  Distinct
    lam give non-isomorphic modules."""
    F = PrimeField(p)
    lam = _integer(lam, "lam") % p
    if lam == 0:
        raise ValueError("lam must be a unit")
    grid = integer_grid(4)
    dims = {}
    for x in range(4):
        for y in range(4):
            if y == 3:
                dims[(x, y)] = 1 if x == 0 else 2
            elif y == 2:
                dims[(x, y)] = 0 if x == 0 else (1 if x == 1 else 2)
            elif y == 1:
                dims[(x, y)] = 0 if x <= 1 else (1 if x == 2 else 2)
            else:
                dims[(x, y)] = 1 if x == 3 else 0
    col = lambda a, b: F.matrix([[a], [b]])
    ident = F.identity(2)
    mats = {
        ((0, 3), 0): col(0, 1),
        ((1, 3), 0): ident,
        ((2, 3), 0): ident,
        ((1, 2), 1): col(1, 0),
        ((1, 2), 0): col(1, 0),
        ((2, 2), 1): ident,
        ((2, 2), 0): ident,
        ((3, 2), 1): ident,
        ((2, 1), 1): col(1, 1),
        ((2, 1), 0): col(1, 1),
        ((3, 1), 1): ident,
        ((3, 0), 1): col(1, lam),
    }
    return _module_from_dims(F, grid, dims, mats)


def tri_leg_module(p=2):
    """3x3 analogue of the lambda family with legs (0,1), (1,0), (1,1);
    indecomposable because three distinct lines pin the top corner."""
    F = PrimeField(p)
    grid = integer_grid(3)
    dims = {
        (0, 2): 1, (1, 2): 2, (2, 2): 2,
        (0, 1): 0, (1, 1): 1, (2, 1): 2,
        (0, 0): 0, (1, 0): 0, (2, 0): 1,
    }
    col = lambda a, b: F.matrix([[a], [b]])
    ident = F.identity(2)
    mats = {
        ((0, 2), 0): col(0, 1),
        ((1, 2), 0): ident,
        ((1, 1), 1): col(1, 0),
        ((1, 1), 0): col(1, 0),
        ((2, 1), 1): ident,
        ((2, 0), 1): col(1, 1),
    }
    return _module_from_dims(F, grid, dims, mats)


def indecomposable_library(p=2):
    """Named pairwise non-isomorphic indecomposables on the 3x3 integer grid."""
    F = PrimeField(p)
    grid = integer_grid(3)
    return {
        "full-box": box_interval(F, grid, (0, 0)),
        "upper-right": box_interval(F, grid, (1, 1)),
        "column": box_interval(F, grid, (1, 0), (1, 2)),
        "band": box_interval(F, grid, (0, 1), (2, 1)),
        "corner-cell": box_interval(F, grid, (2, 2), (2, 2)),
        "tri-leg": tri_leg_module(p),
    }


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

def random_grid(rng, n_axes=2, lo=0, hi=4, min_points=2, max_points=4, denom=4):
    lo = _frac(lo)
    hi = _frac(hi)
    axes = []
    span = (hi - lo) * denom
    for _ in range(n_axes):
        k = int(rng.integers(min_points, max_points + 1))
        ticks = rng.choice(int(span) + 1, size=k, replace=False)
        axes.append(tuple(sorted(lo + Fraction(int(t), denom) for t in ticks)))
    return Grid(tuple(axes))


def random_invertible(F, rng, n):
    if n == 0:
        return F.identity(0)
    while True:
        m = rng.integers(0, F.p, size=(n, n)).astype(np.int64)
        if F.is_invertible(m):
            return m


def twist_module(v, rng):
    """Conjugate by a random invertible basis change at every grid point;
    the result is isomorphic to v but no longer block diagonal."""
    F = v.field
    changes = {g: random_invertible(F, rng, v.dims[g]) for g in v.grid.points()}
    edges = v.grid.edges
    steps = {(g, axis): F.matmul(changes[edges[(g, axis)]], F.matmul(m, F.inverse(changes[g])))
             for (g, axis), m in v.steps.items()}
    return StepModule(F, v.grid, dict(v.dims), steps)


def random_module(F, rng, n_axes=2, lo=0, hi=4, max_summands=3, grid=None):
    """Random direct sum of box intervals on a random grid, twisted by random
    basis changes.  Always a valid module; decomposable by construction."""
    if grid is None:
        grid = random_grid(rng, n_axes=n_axes, lo=lo, hi=hi)
    pts = grid.points()
    k = int(rng.integers(1, max_summands + 1))
    parts = []
    for _ in range(k):
        a = pts[int(rng.integers(0, len(pts)))]
        b = pts[int(rng.integers(0, len(pts)))]
        lo_c = tuple(min(x, y) for x, y in zip(grid.coords(a), grid.coords(b)))
        hi_c = tuple(max(x, y) for x, y in zip(grid.coords(a), grid.coords(b)))
        if rng.integers(0, 2):
            parts.append(box_interval(F, grid, lo_c, hi_c))
        else:
            parts.append(box_interval(F, grid, lo_c))
    acc = parts[0]
    for part in parts[1:]:
        acc = direct_sum(acc, part)
    return twist_module(acc, rng)


def random_library_sum(p, rng, n_summands):
    """Random direct sum of library indecomposables; returns (module, names)."""
    lib = indecomposable_library(p)
    names = sorted(lib)
    chosen = [names[int(rng.integers(0, len(names)))] for _ in range(n_summands)]
    acc = None
    for name in chosen:
        acc = lib[name] if acc is None else direct_sum(acc, lib[name])
    return twist_module(acc, rng), sorted(chosen)
