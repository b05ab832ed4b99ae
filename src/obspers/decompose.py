"""Krull-Schmidt decomposition into indecomposables and isomorphism testing.

Splitting uses Fitting decompositions of endomorphisms (V = ker f^N + im f^N
for N the total dimension), falling back to exhaustive enumeration of
idempotents in End(V) when the algebra is small enough; the exhaustive path is
the certificate of indecomposability, random search alone never certifies
absence.  All randomized steps take an explicit seed and default to 0.

Derived endomorphism algebras.  decompose computes a Hom basis once, for
End(V).  A piece a split off a module m, with inclusion i: a -> m and
projection q: m -> a (q o i = id_a), gets its End from End(m), one batched
product q_g S_g i_g per grid point g, S_g the basis components at g.  The
map b -> q o b o i sends End(m) onto End(a): it is linear, and every phi in
End(a) is the image of the endomorphism i o phi o q of m, because
q o (i o phi o q) o i = phi.  So the q o b_j o i span End(a) for any basis
b_j of End(m), and stepmodule.canonical_rows turns them into exactly the
basis hom_basis(a, a) returns (its docstring has the argument).

The structure table takes one batched product of the stacked basis with
itself per grid point, and only the exhaustive idempotent search needs it.

Stacked elimination.  The Fitting split and the isomorphism search work on
the grid points a dimension group at a time: the components at the points
of dimension d are stacked into one (points, d, d) array, and
PrimeField.reduce_stack row-reduces the whole stack in one pass.  Both give
exactly what the per-point code gave (kept in tests/oracles.py):
- reduce_stack's slices are the reduced row echelon forms of the stacked
  matrices, which are unique, so ranks, pivot columns and everything read
  off them are the per-point ones;
- each group is raised to the same power N = total_dim by squaring, and
  powers of one matrix commute, so the stack holds the same f^N at every
  point, and the same kernel basis, pivot columns of f^N and inverse of
  [ker | im] come out of its two reductions;
- iso_test draws its random candidates from the same generator, one draw
  of h coefficients per try, then scans coefficient_vectors in the same
  lexicographic order.  A chunk's candidates are tested together, and the
  answer is the first candidate of the first chunk that is invertible at
  every point, so it is the first candidate the one-by-one scan accepts;
  its components are listed smallest dimension first, as before.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .calculus import persistent_rank, restrict_extend
from .stepmodule import (_CHUNK_CELLS, DEFAULT_BUDGET, Morphism, StepModule, _blocks, _freeze,
                         _morphisms, _padded, _submodule, _width, canonical_rows,
                         coefficient_vectors, compose, flatten_morphism, hom_rows,
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
    rows = hom_rows(v, v)
    if not len(rows):
        return EndoAlgebra(v, [], np.zeros((0, 0, 0), dtype=np.int64),
                           np.zeros((0, 0), dtype=np.int64))
    return EndoAlgebra(v, _morphisms(v, v, rows), _table(v, rows), rows.T)


def _derived_rows(a, m, rows, inc, proj):
    """hom_basis(a, a), flattened as rows, for a summand a of m with
    inclusion inc: a -> m and projection proj: m -> a, from the basis of
    End(m) flattened in rows (the module docstring has the argument)."""
    F = a.field
    d = len(rows)
    span = [((proj.comps[g] @ b) % F.p @ inc.comps[g]).reshape(d, a.dims[g] ** 2) % F.p
            for g, b in _blocks(m, m, rows).items()]
    return canonical_rows(F, np.concatenate(span, axis=1))


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


def _by_dim(v):
    """{d: the points of v with dimension d, in lexicographic order}, in
    increasing order of d."""
    groups = {}
    for g in v.grid.points():
        groups.setdefault(v.dims[g], []).append(g)
    return dict(sorted(groups.items()))


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


def _split_from_endo(v, f):
    """Fitting split along the stabilized endomorphism f^N, if nontrivial:
    a = ker f^N and b = im f^N, with the kernel basis elimination reads off
    and the pivot columns of f^N.  At each point [ker | im] is a basis, and
    the rows of its inverse are the coordinates in it, which give both
    projections and the pieces' steps (stepmodule._submodule).  The points
    are taken a dimension group at a time (the module docstring has the
    argument that this is the per-point split), and the four witnesses
    are padded into stacks (see stepmodule, Padded stacks)."""
    F, p = v.field, v.field.p
    n = max(v.total_dim, 1)
    groups = []
    for d, pts in _by_dim(v).items():
        fn = _power(np.stack([f.comps[g] for g in pts]), n, p)
        rref, ranks, pivots = F.reduce_stack(fn)
        groups.append((d, pts, fn, rref, ranks, pivots))
    ka = sum(int((d - ranks).sum()) for d, _, _, _, ranks, _ in groups)
    if ka == 0 or ka == v.total_dim:
        return None
    parts = {}
    for d, pts, fn, rref, ranks, pivots in groups:
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
        for g, k, basis, inv in zip(pts, d - ranks, both, red[:, :, d:]):
            parts[g] = basis[:, :k], basis[:, k:], inv[:k], inv[k:]
    pts = v.grid.points()
    kernel, image, proj_a, proj_b = ([parts[g][i] for g in pts] for i in range(4))
    dims_a = {g: m.shape[1] for g, m in zip(pts, kernel)}
    dims_b = {g: m.shape[1] for g, m in zip(pts, image)}
    dv, da, db = _width(v), max(dims_a.values()), max(dims_b.values())
    kernel, image = _padded(kernel, dv, da), _padded(image, dv, db)
    proj_a, proj_b = _padded(proj_a, da, dv), _padded(proj_b, db, dv)
    a, b = _submodule(v, dims_a, kernel, proj_a), _submodule(v, dims_b, image, proj_b)
    return Split(a, b, Morphism._from_stack(a, v, kernel), Morphism._from_stack(b, v, image),
                 Morphism._from_stack(v, a, proj_a), Morphism._from_stack(v, b, proj_b))


def split_once(v, seed=0, budget=DEFAULT_BUDGET):
    """One splitting V = a + b with witnesses, or None when V is certified
    indecomposable (no nontrivial idempotent exists in End(V), checked by
    exhaustive enumeration when random Fitting finds nothing)."""
    if v.total_dim == 0:
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
    for i in range(d):
        s = _split_from_endo(v, _morphisms(v, v, rows[i:i + 1])[0])
        if s is not None:
            return s
    rng = np.random.default_rng(seed)
    for _ in range(8 + 4 * d):
        s = _split_from_endo(v, linear_combination(v, v, rows, rng.integers(0, F.p, size=d)))
        if s is not None:
            return s
    # exhaustive idempotent search: the certificate of indecomposability
    cands = coefficient_vectors(F.p, d, budget, "End(V)")
    table = _table(v, rows)
    id_c = F.solve(rows.T, flatten_morphism(identity_morphism(v)))[:, 0]
    while chunk := list(islice(cands, 4096)):
        e = _idempotent_in_chunk(np.array(chunk, dtype=np.int64), table, id_c, F.p)
        if e is not None:
            return _split_from_endo(v, linear_combination(v, v, rows, e))
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
    if v.total_dim == 0:
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


def _first_invertible(F, groups, cands, size):
    """The first of the coefficient vectors cands whose combination is
    invertible at every point, or None, testing chunks of size candidates.
    groups holds, smallest dimension first, (d, points, stack) with the basis
    components at the points of dimension d as one (h, points * d * d)
    array; a group rejects candidates before the larger groups see them."""
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
    blocks = _blocks(rv, rw, rows)
    groups = [(d, pts, np.stack([blocks[g] for g in pts], axis=1).reshape(h, -1))
              for d, pts in _by_dim(rv).items()]
    size = max(1, _CHUNK_CELLS // sum(stack.shape[1] for _, _, stack in groups))
    rng = np.random.default_rng(seed)
    random = (rng.integers(0, F.p, size=h) for _ in range(min(200, F.p ** h)))
    hit = _first_invertible(F, groups, random, size)
    if hit is None:
        # the zero vector is tested too: it is singular wherever rv is nonzero
        hit = _first_invertible(F, groups, coefficient_vectors(F.p, h, budget, "Hom(V, W)"),
                                size)
    if hit is None:
        return False, None
    comps = {}
    for d, pts, stack in groups:
        comps.update(zip(pts, map(_freeze, (hit @ stack % F.p).reshape(len(pts), d, d))))
    return True, Morphism._trusted(rv, rw, comps)
