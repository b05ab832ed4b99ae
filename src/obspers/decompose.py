"""Krull-Schmidt decomposition into indecomposables and isomorphism testing.

Splitting uses Fitting decompositions of endomorphisms (V = ker f^N + im f^N
for N the total dimension), falling back to exhaustive enumeration of
idempotents in End(V) when the algebra is small enough; the exhaustive path is
the certificate of indecomposability, random search alone never certifies
absence.  All randomized steps take an explicit seed and default to 0.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .calculus import persistent_rank, restrict_extend
from .stepmodule import (DEFAULT_BUDGET, Morphism, StepModule, _combination_at,
                         coefficient_vectors, compose, factor_morphism,
                         flatten_morphism, hom_basis, identity_morphism,
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


def endo_algebra(v):
    basis = hom_basis(v, v)
    d = len(basis)
    F = v.field
    if d == 0:
        return EndoAlgebra(v, [], np.zeros((0, 0, 0), dtype=np.int64),
                           np.zeros((0, 0), dtype=np.int64))
    mat = np.stack([flatten_morphism(b) for b in basis], axis=1)
    prods = []
    for bi in basis:
        for bj in basis:
            prods.append(flatten_morphism(compose(bi, bj)))
    rhs = np.stack(prods, axis=1)
    coeffs = F.solve(mat, rhs)
    if coeffs is None:
        raise RuntimeError("endomorphism composition left the basis span")
    table = coeffs.T.reshape(d, d, d)
    return EndoAlgebra(v, basis, table, mat)


def _pointwise_power(f, n):
    F = f.field
    comps = {g: F.matpow(f.comps[g], n) for g in f.grid.points()}
    return Morphism(f.source, f.target, comps)


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
    """Fitting split along the stabilized endomorphism f^N, if nontrivial."""
    F = v.field
    n = v.total_dim
    fn = _pointwise_power(f, max(n, 1))
    fac = factor_morphism(fn)
    ka = fac.kernel.total_dim
    if ka == 0 or ka == v.total_dim:
        return None
    kernel, image = fac.kernel, fac.image
    inc_a, inc_b = fac.kernel_inclusion, fac.image_inclusion
    proj_a, proj_b = {}, {}
    for g in v.grid.points():
        kb = inc_a.comps[g]
        ib = inc_b.comps[g]
        full = np.concatenate([kb, ib], axis=1)
        if full.shape[0] != full.shape[1] or not F.is_invertible(full):
            return None  # f^N not yet stabilized into a direct sum; try another f
        inv = F.inverse(full)
        proj_a[g] = inv[:kb.shape[1], :]
        proj_b[g] = inv[kb.shape[1]:, :]
    return Split(kernel, image, inc_a, inc_b,
                 Morphism(v, kernel, proj_a), Morphism(v, image, proj_b))


def split_once(v, seed=0, budget=DEFAULT_BUDGET):
    """One splitting V = a + b with witnesses, or None when V is certified
    indecomposable (no nontrivial idempotent exists in End(V), checked by
    exhaustive enumeration when random Fitting finds nothing)."""
    if v.total_dim == 0:
        raise ValueError("split_once needs a nonzero module")
    F = v.field
    algebra = endo_algebra(v)
    d = algebra.dim
    if d == 1:
        return None  # End = F_p, local
    # deterministic pass over the basis, then seeded random combinations
    for b in algebra.basis:
        s = _split_from_endo(v, b)
        if s is not None:
            return s
    rng = np.random.default_rng(seed)
    for _ in range(8 + 4 * d):
        coeffs = rng.integers(0, F.p, size=d)
        f = linear_combination(algebra.basis, coeffs, v, v)
        s = _split_from_endo(v, f)
        if s is not None:
            return s
    # exhaustive idempotent search: the certificate of indecomposability
    cands = coefficient_vectors(F.p, d, budget, "End(V)")
    id_c = F.solve(algebra.stack, flatten_morphism(identity_morphism(v)))[:, 0]
    while chunk := list(islice(cands, 4096)):
        e = _idempotent_in_chunk(np.array(chunk, dtype=np.int64), algebra.table, id_c, F.p)
        if e is not None:
            return _split_from_endo(v, linear_combination(algebra.basis, e, v, v))
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
    if v.total_dim == 0:
        return Decomposition(v, [], [], [])
    work = [(v, identity_morphism(v), identity_morphism(v))]
    summands, incs, projs = [], [], []
    counter = 0
    while work:
        m, inc, proj = work.pop()
        if m.total_dim == 0:
            continue
        s = split_once(m, seed=seed + counter, budget=budget)
        counter += 1
        if s is None:
            summands.append(m)
            incs.append(inc)
            projs.append(proj)
            continue
        work.append((s.a, compose(inc, s.inc_a), compose(s.proj_a, proj)))
        work.append((s.b, compose(inc, s.inc_b), compose(s.proj_b, proj)))
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
