"""Krull-Schmidt decomposition into indecomposables and isomorphism testing.

Splitting uses Fitting decompositions of endomorphisms (V = ker f^N + im f^N
for N the total dimension), falling back to exhaustive enumeration of
idempotents in End(V) when the algebra is small enough; the exhaustive path is
the certificate of indecomposability, random search alone never certifies
absence.  All randomized steps take an explicit seed and default to 0.

Derived endomorphism algebras.  decompose computes a Hom basis once, for
End(V).  A piece a split off a module m, with inclusion i: a -> m and
projection q: m -> a (q o i = id_a), gets its End from End(m), q_g S_g i_g
at every grid point g, S_g the basis components at g.  The map
b -> q o b o i sends End(m) onto End(a): it is linear, and every phi in
End(a) is the image of the endomorphism i o phi o q of m, because
q o (i o phi o q) o i = phi.  So the q o b_j o i span End(a) for any basis
b_j of End(m), and stepmodule.canonical_rows turns them into exactly the
basis hom_basis(a, a) returns (its docstring has the argument).

Dimension groups.  StepModule._dim_groups is each module's cached,
read-only table of its dimension groups: for each dimension d, the numbers
of the grid points of dimension d and, per point, the d * d columns its
block takes in a flattened Hom row (flatten_morphism order).  _gather reads
a group's blocks out of one row, or out of a stack of rows, as one
(..., n, d, d) array with one index; a group of one point is read as a view
of the rows.  The products q_g S_g i_g are taken one batched product per
(dim m, dim a) group of points, whose blocks all have one shape.  A batched
product of a stack is the stack of the products of its slices, so each
slice is the product the per-point code takes on the same block, and the
rows come out byte for byte the same.  Nothing is padded to the
module-wide width D: a (h, P, D, D) stack of an End basis of dimension h
on P points holds h * P * D^2 entries where its blocks hold
h * sum_g dim_g^2.  At the scale point (scripts/run_scale_point.py
--points 40, one point of dimension 40 among 100) a version padded that way
was measured at 68.5 s and a 4.9 GB peak, against 2.8 s and 101.5 MB with
one product per group (2 vCPUs, Python 3.11.7, numpy 2.4.6).

The structure table takes one batched product of the stacked basis with
itself per grid point, and only the exhaustive idempotent search needs it.

Stacked elimination.  The Fitting split and the isomorphism search work on
the dimension groups: the Fitting split takes its candidate endomorphism as
a coefficient row (a basis row, or c @ rows mod p for a random or
exhaustive candidate c) and gathers each group's (n, d, d) stack from it,
and iso_test gathers each group's candidate blocks from the Hom basis rows.
PrimeField.reduce_stack row-reduces a whole stack in one pass.  Both give
exactly what the per-point code gave (kept in tests/oracles.py):
- reduce_stack's slices are the reduced row echelon forms of the stacked
  matrices, which are unique, so ranks, pivot columns and everything read
  off them are the per-point ones;
- each group is raised to the same power N = total_dim by squaring, and
  powers of one matrix commute, so the stack holds the same f^N at every
  point, and the same kernel basis, pivot columns of f^N and inverse of
  [ker | im] come out of its two reductions;
- the four witnesses are written into their padded stacks one (d, dim ker)
  group at a time, block for block what padding the per-point pieces
  gives;
- iso_test draws its random candidates from the same generator, one draw
  of h coefficients per try, then scans coefficient_vectors in the same
  lexicographic order.  A chunk's candidates are tested together, and the
  answer is the first candidate of the first chunk that is invertible at
  every point, so it is the first candidate the one-by-one scan accepts;
  the witness is its combination of the Hom basis.

Validity.  decompose, split_once, endo_algebra, iso_test and
stepmodule.hom_basis take their modules through ensure_valid, so a module
whose squares do not commute is a ValidationError, never split along
witnesses that are not natural; the check is cached on the module.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .calculus import persistent_rank, restrict_extend
from .stepmodule import (_CHUNK_CELLS, DEFAULT_BUDGET, Morphism, StepModule, _blocks, _freeze,
                         _morphisms, _submodule, _width, canonical_rows, check_budget,
                         coefficient_vectors, compose, ensure_valid, flatten_morphism, hom_rows,
                         identity_morphism, linear_combination, union_grids)


@dataclass(frozen=True)
class EndoAlgebra:
    """End(V) with a basis and exact structure constants:
    basis[i] o basis[j] = sum_k table[i, j, k] basis[k]; stack holds the
    flattened basis elements as columns."""

    module: StepModule
    basis: list
    table: np.ndarray
    stack: np.ndarray

    @property
    def dim(self):
        return len(self.basis)


def _table(v, rows):
    """Structure constants of the basis flattened in rows: the products
    basis[i] o basis[j] for all i, j take one batched product per grid point,
    and one solve expresses them in the basis."""
    F = v.field
    d = len(rows)
    prods = [(b[:, None] @ b[None]).reshape(d * d, b.shape[1] ** 2) % F.p
             for b in _blocks(v, v, rows).values()]
    coeffs = F.solve(rows.T, np.concatenate(prods, axis=1).T)
    if coeffs is None:
        raise RuntimeError("endomorphism composition left the basis span")
    return coeffs.T.reshape(d, d, d)


def endo_algebra(v):
    rows = hom_rows(ensure_valid(v), v)
    if not len(rows):
        return EndoAlgebra(v, [], np.zeros((0, 0, 0), dtype=np.int64),
                           np.zeros((0, 0), dtype=np.int64))
    return EndoAlgebra(v, _morphisms(v, v, rows), _table(v, rows), rows.T)


def _gather(rows, group):
    """The blocks at the points of a dimension group (StepModule._dim_groups)
    of a flattened Hom row, or of a stack of them: an (..., n, d, d) array,
    a view into rows when the group has one point."""
    d, pts, cols = group
    return rows[..., cols].reshape(rows.shape[:-1] + (len(pts), d, d))


def _derived_rows(a, m, rows, inc, proj):
    """hom_basis(a, a), flattened as rows, for a summand a of m with
    inclusion inc: a -> m and projection proj: m -> a, from the basis of
    End(m) flattened in rows, one batched product per (dim m, dim a) group
    of points (the module docstring has the argument)."""
    p = a.field.p
    dims = a._point_dims
    starts = np.cumsum(dims ** 2) - dims ** 2
    span = np.zeros((len(rows), int((dims ** 2).sum())), dtype=np.int64)
    for d, pts, cols in m._dim_groups:
        ks = dims[pts]
        for k in set(ks.tolist()) - {0}:
            sel = ks == k
            group = (d, pts, cols) if sel.all() else (d, pts[sel], cols[sel])
            at = group[1]
            q_b = proj._stack[at, :k, :d] @ _gather(rows, group) % p
            span[:, starts[at][:, None] + np.arange(k * k)] = (
                q_b @ inc._stack[at, :d, :k] % p).reshape(len(rows), len(at), k * k)
    return canonical_rows(a.field, span)


@dataclass(frozen=True)
class Split:
    """A two-term direct sum decomposition V = a + b with witnesses: the
    inclusions and projections compose to identities and the two
    inclusion-projection idempotents sum to id_V."""

    a: StepModule
    b: StepModule
    inc_a: Morphism
    inc_b: Morphism
    proj_a: Morphism
    proj_b: Morphism


def _power(a, n, p):
    """a[i]^n mod p for every matrix of the stack a, n >= 1, by squaring."""
    result = None
    while True:
        if n & 1:
            result = a if result is None else result @ a % p
        n >>= 1
        if not n:
            return result
        a = a @ a % p


def _split_from_endo(v, row):
    """Fitting split along the stabilized endomorphism f^N, if nontrivial,
    f the endomorphism flattened in row: a = ker f^N and b = im f^N, with
    the kernel basis elimination reads off and the pivot columns of f^N.  At
    each point [ker | im] is a basis, and the rows of its inverse are the
    coordinates in it, which give both projections and the pieces' steps
    (stepmodule._submodule).  The points are taken a dimension group at a
    time (the module docstring has the argument that this is the per-point
    split), and the four witnesses are written into padded stacks (see
    stepmodule, Padded stacks) one (d, dim ker) group at a time."""
    F, p = v.field, v.field.p
    n = max(v.total_dim, 1)
    groups = []
    for group in v._dim_groups:
        if group[0]:
            fn = _power(_gather(row, group), n, p)
            groups.append((group, fn) + F.reduce_stack(fn))
    ka = sum(int((d - ranks).sum()) for (d, _, _), _, _, ranks, _ in groups)
    if ka == 0 or ka == v.total_dim:
        return None
    pts = v.grid.points()
    dims_a = np.zeros(len(pts), dtype=np.intp)
    for (d, at, _), _, _, ranks, _ in groups:
        dims_a[at] = d - ranks
    dims_a = dict(zip(pts, dims_a.tolist()))
    dims_b = {g: v.dims[g] - k for g, k in dims_a.items()}
    dv, da, db = _width(v), max(dims_a.values()), max(dims_b.values())
    kernel, image = (np.zeros((len(pts), dv, w), dtype=np.int64) for w in (da, db))
    proj_a, proj_b = (np.zeros((len(pts), w, dv), dtype=np.int64) for w in (da, db))
    for (d, at, _), fn, rref, ranks, pivots in groups:
        # row j of lead is the reduced row whose pivot is column j (0 at the
        # free columns), so column j of the kernel basis, for a free j, is 1
        # at j and -lead[pc, j] at each pivot column pc, as F.kernel_basis
        row_of = np.maximum(np.cumsum(pivots, axis=1) - 1, 0)
        lead = np.where(pivots[:, :, None],
                        np.take_along_axis(rref, row_of[:, :, None], axis=1), 0)
        ker = (np.eye(d, dtype=np.int64) * ~pivots[:, None, :] - lead) % p
        # [ker | im]: the free columns of ker, then f^N's pivot columns
        order = np.argsort(pivots, axis=1, kind="stable")[:, None, :]
        both = np.take_along_axis(np.where(pivots[:, None, :], fn, ker), order, axis=2)
        eye = np.broadcast_to(np.eye(d, dtype=np.int64), both.shape)
        red, _, bar = F.reduce_stack(np.concatenate([both, eye], axis=2))
        if not bar[:, :d].all():
            return None  # f^N not yet stabilized into a direct sum; try another f
        ks = d - ranks
        for k in set(ks.tolist()):
            sel = ks == k
            kernel[at[sel], :d, :k] = both[sel, :, :k]
            image[at[sel], :d, :d - k] = both[sel, :, k:]
            proj_a[at[sel], :k, :d] = red[sel, :k, d:]
            proj_b[at[sel], :d - k, :d] = red[sel, k:, d:]
    kernel, image, proj_a, proj_b = map(_freeze, (kernel, image, proj_a, proj_b))
    a, b = _submodule(v, dims_a, kernel, proj_a), _submodule(v, dims_b, image, proj_b)
    return Split(a, b, Morphism._from_stack(a, v, kernel), Morphism._from_stack(b, v, image),
                 Morphism._from_stack(v, a, proj_a), Morphism._from_stack(v, b, proj_b))


def split_once(v, seed=0, budget=DEFAULT_BUDGET):
    """One splitting V = a + b with witnesses, or None when V is certified
    indecomposable (no nontrivial idempotent exists in End(V), checked by
    exhaustive enumeration when random Fitting finds nothing)."""
    budget = check_budget(budget)
    if ensure_valid(v).total_dim == 0:
        raise ValueError("split_once needs a nonzero module")
    return _split(v, hom_rows(v, v), seed, budget)


def _split(v, rows, seed, budget):
    """split_once for a nonzero v whose End basis is flattened in rows."""
    F = v.field
    d = len(rows)
    if d == 1:
        return None  # End = F_p, local
    # deterministic pass over the basis, one element built at a time, then
    # seeded random combinations
    for row in rows:
        s = _split_from_endo(v, row)
        if s is not None:
            return s
    rng = np.random.default_rng(seed)
    for _ in range(8 + 4 * d):
        s = _split_from_endo(v, rng.integers(0, F.p, size=d) @ rows % F.p)
        if s is not None:
            return s
    # exhaustive idempotent search: the certificate of indecomposability
    cands = coefficient_vectors(F.p, d, budget, "End(V)")
    table = _table(v, rows)
    id_c = F.solve(rows.T, flatten_morphism(identity_morphism(v)))[:, 0]
    while chunk := list(islice(cands, 4096)):
        e = _idempotent_in_chunk(np.array(chunk, dtype=np.int64), table, id_c, F.p)
        if e is not None:
            return _split_from_endo(v, e @ rows % F.p)
    return None


def _idempotent_in_chunk(cands, table, id_coeffs, p):
    """First candidate coefficient vector with e o e = e, e != 0, e != id."""
    half = np.einsum("mi,ijk->mjk", cands, table) % p
    square = np.einsum("mjk,mj->mk", half, cands) % p
    ok = np.all(square == cands, axis=1)
    nz = np.any(cands != 0, axis=1)
    nid = np.any(cands != id_coeffs, axis=1)
    hits = np.nonzero(ok & nz & nid)[0]
    if hits.size == 0:
        return None
    return cands[hits[0]]


@dataclass(frozen=True)
class Decomposition:
    """Indecomposable summands with inclusion/projection witnesses into the
    original module: proj_i o inc_i = id on each summand and the sum of
    inc_i o proj_i is id on the module."""

    module: StepModule
    summands: list
    inclusions: list
    projections: list


def decompose(v, seed=0, budget=DEFAULT_BUDGET):
    """Indecomposable summands of v with witnesses, largest first.  A Hom
    basis is computed once, for End(v); each split piece derives its End
    from the End of the module it was split from."""
    budget = check_budget(budget)
    if ensure_valid(v).total_dim == 0:
        return Decomposition(v, [], [], [])
    ident = identity_morphism(v)
    work = [(v, ident, ident, hom_rows(v, v))]
    summands, incs, projs = [], [], []
    counter = 0
    while work:
        m, inc, proj, rows = work.pop()
        s = _split(m, rows, seed + counter, budget)
        counter += 1
        if s is None:
            summands.append(m)
            incs.append(inc)
            projs.append(proj)
            continue
        for part, i, q in ((s.a, s.inc_a, s.proj_a), (s.b, s.inc_b, s.proj_b)):
            work.append((part, compose(inc, i), compose(q, proj),
                         _derived_rows(part, m, rows, i, q)))
    order = sorted(range(len(summands)), key=lambda i: (-summands[i].total_dim, i))
    return Decomposition(v,
                         [summands[i] for i in order],
                         [incs[i] for i in order],
                         [projs[i] for i in order])


def _square_groups(v, rows):
    """One (d, point numbers, stack) per dimension group of v, smallest d
    first, for the basis of Hom(v, w) flattened in rows, w of v's dimension
    at every point: stack holds the basis components at the points of
    dimension d as one (h, points * d * d) array."""
    return [(d, pts, _gather(rows, (d, pts, cols)).reshape(len(rows), len(pts) * d * d))
            for d, pts, cols in v._dim_groups]


def _first_invertible(F, groups, cands):
    """The first of the coefficient vectors cands whose combination is
    invertible at every point, or None, for the groups of _square_groups.
    Candidates are tested in chunks of at most _CHUNK_CELLS block entries,
    and a group rejects candidates before the larger groups see them."""
    size = max(1, _CHUNK_CELLS // max(1, sum(stack.shape[1] for _, _, stack in groups)))
    while chunk := list(islice(cands, size)):
        alive = np.arange(len(chunk))
        c = np.array(chunk, dtype=np.int64)
        for d, _, stack in groups:
            if d and alive.size:
                combos = (c[alive] @ stack % F.p).reshape(-1, d, d)
                _, ranks, _ = F.reduce_stack(combos)
                alive = alive[(ranks.reshape(len(alive), -1) == d).all(axis=1)]
        if alive.size:
            return c[alive[0]]
    return None


def iso_test(v, w, seed=0, budget=DEFAULT_BUDGET):
    """(True, witness) when an invertible natural transformation v -> w
    exists, else (False, None); absence is certified by exhausting the
    coefficient space of Hom(v, w) (budget errors are raised, never silently
    reported as non-isomorphism).  Candidates are tested a chunk at a time
    (the module docstring has the argument that the witness is the one a
    candidate-by-candidate scan finds)."""
    budget = check_budget(budget)
    ensure_valid(v)
    ensure_valid(w)
    if v.field != w.field or v.grid.n_axes != w.grid.n_axes:
        return False, None
    u = union_grids(v.grid, w.grid)
    rv = restrict_extend(v, u)
    rw = restrict_extend(w, u)
    if any(rv.dims[g] != rw.dims[g] for g in u.points()):
        return False, None
    if rv.total_dim == 0 or rv == rw:
        return True, identity_morphism(rv)
    gaps = u.gaps()
    if gaps and persistent_rank(rv, min(gaps)) != persistent_rank(rw, min(gaps)):
        return False, None
    rows = hom_rows(rv, rw)
    h = len(rows)
    if h == 0:
        return False, None
    F = v.field
    groups = _square_groups(rv, rows)
    rng = np.random.default_rng(seed)
    random = (rng.integers(0, F.p, size=h) for _ in range(min(200, F.p ** h)))
    hit = _first_invertible(F, groups, random)
    if hit is None:
        # the zero vector is tested too: it is singular wherever rv is nonzero
        hit = _first_invertible(F, groups, coefficient_vectors(F.p, h, budget, "Hom(V, W)"))
    if hit is None:
        return False, None
    return True, linear_combination(rv, rw, rows, hit)
