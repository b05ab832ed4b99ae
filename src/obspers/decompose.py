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
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .calculus import persistent_rank, restrict_extend
from .stepmodule import (DEFAULT_BUDGET, Morphism, StepModule, _blocks,
                         _combination_at, _freeze, _morphisms, _submodule,
                         canonical_rows, coefficient_vectors, compose,
                         flatten_morphism, hom_basis, hom_rows, identity_morphism,
                         linear_combination, union_grids)


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


def _split_from_endo(v, f):
    """Fitting split along the stabilized endomorphism f^N, if nontrivial:
    a = ker f^N and b = im f^N, with the kernel basis elimination reads off
    and the pivot columns of f^N.  At each point [ker | im] is a basis, and
    the rows of its inverse are the coordinates in it, which give both
    projections and the pieces' steps (stepmodule._submodule)."""
    F = v.field
    n = max(v.total_dim, 1)
    fn = {g: F.matpow(f.comps[g], n) for g in v.grid.points()}
    kernel = {g: _freeze(F.kernel_basis(c)) for g, c in fn.items()}
    ka = sum(k.shape[1] for k in kernel.values())
    if ka == 0 or ka == v.total_dim:
        return None
    image, proj_a, proj_b = {}, {}, {}
    for g, c in fn.items():
        image[g] = _freeze(F.column_space_basis(c))
        inv = F.solve(np.concatenate([kernel[g], image[g]], axis=1), F.identity(v.dims[g]))
        if inv is None:
            return None  # f^N not yet stabilized into a direct sum; try another f
        k = kernel[g].shape[1]
        proj_a[g], proj_b[g] = _freeze(inv[:k]), _freeze(inv[k:])
    a, b = _submodule(v, kernel, proj_a), _submodule(v, image, proj_b)
    return Split(a, b, Morphism._trusted(a, v, kernel), Morphism._trusted(b, v, image),
                 Morphism._trusted(v, a, proj_a), Morphism._trusted(v, b, proj_b))


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
    basis = _morphisms(v, v, rows)
    # deterministic pass over the basis, then seeded random combinations
    for b in basis:
        s = _split_from_endo(v, b)
        if s is not None:
            return s
    rng = np.random.default_rng(seed)
    for _ in range(8 + 4 * d):
        coeffs = rng.integers(0, F.p, size=d)
        f = linear_combination(basis, coeffs, v, v)
        s = _split_from_endo(v, f)
        if s is not None:
            return s
    # exhaustive idempotent search: the certificate of indecomposability
    cands = coefficient_vectors(F.p, d, budget, "End(V)")
    table = _table(v, rows)
    id_c = F.solve(rows.T, flatten_morphism(identity_morphism(v)))[:, 0]
    while chunk := list(islice(cands, 4096)):
        e = _idempotent_in_chunk(np.array(chunk, dtype=np.int64), table, id_c, F.p)
        if e is not None:
            return _split_from_endo(v, linear_combination(basis, e, v, v))
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


def _invertible_pointwise(v, w, basis, coeffs):
    """The combination of basis with coeffs when it is invertible at every
    point, else None; points are visited smallest dimension first, so that a
    singular candidate is rejected before the large components are built."""
    F = v.field
    comps = {}
    for g in sorted(v.grid.points(), key=lambda g: v.dims[g]):
        acc = _combination_at(basis, coeffs, g, (w.dims[g], v.dims[g]), F.p)
        if not F.is_invertible(acc):
            return None
        comps[g] = acc
    return Morphism(v, w, comps)


def iso_test(v, w, seed=0, budget=DEFAULT_BUDGET):
    """(True, witness) when an invertible natural transformation v -> w
    exists, else (False, None); absence is certified by exhausting the
    coefficient space of Hom(v, w) (budget errors are raised, never silently
    reported as non-isomorphism)."""
    if v.field != w.field or v.grid.n_axes != w.grid.n_axes:
        return False, None
    u = union_grids(v.grid, w.grid)
    rv = restrict_extend(v, u)
    rw = restrict_extend(w, u)
    if any(rv.dims[g] != rw.dims[g] for g in u.points()):
        return False, None
    if rv.total_dim == 0 or rv == rw:
        return True, identity_morphism(rv)
    gaps = [b - a for axis in u.axes for a, b in zip(axis, axis[1:])]
    if gaps and persistent_rank(rv, min(gaps)) != persistent_rank(rw, min(gaps)):
        return False, None
    basis = hom_basis(rv, rw)
    h = len(basis)
    if h == 0:
        return False, None
    F = v.field
    rng = np.random.default_rng(seed)
    for _ in range(min(200, F.p ** h)):
        coeffs = rng.integers(0, F.p, size=h)
        m = _invertible_pointwise(rv, rw, basis, coeffs)
        if m is not None:
            return True, m
    for cand in coefficient_vectors(F.p, h, budget, "Hom(V, W)"):
        if not any(cand):
            continue
        m = _invertible_pointwise(rv, rw, basis, cand)
        if m is not None:
            return True, m
    return False, None
