"""Independent oracles used by the test suite.

Everything in this file except the last eleven sections is deliberately written
against plain Python lists and ints (no numpy, no imports from the package
under test) so that agreement between the library and these oracles is
meaningful.  The implementations are brute force: exhaustive enumeration and
textbook elimination, feasible only at the tiny sizes the tests use.  The last
eleven sections keep earlier code of the package itself as the reference for
its replacements: the point-by-point restriction, the per-element linear
combination, the per-element decide kernel, the dense Hom solver, the full
factorization with the per-piece decomposition, the restricting endpoint
checks, the composite-building verify and the per-cell triangle check, the
point-by-point Fitting split and isomorphism search, the per-square
commutativity check, the per-edge and per-point naturality check,
composition, sum, submodule and persistent rank, the per-point anchored
morphisms with the witnesses built on them, grid homology on rational
coordinates through Bifiltration.present_at, and the distance bracket that
decides its top candidate first.
"""

from fractions import Fraction
from itertools import product


def oracle_rank_minor(rows, p):
    """Rank via exhaustive minor expansion: the largest k such that some k x k
    submatrix has nonzero determinant mod p."""
    m = len(rows)
    n = len(rows[0]) if m else 0

    def det(sub):
        k = len(sub)
        if k == 0:
            return 1
        if k == 1:
            return sub[0][0] % p
        total = 0
        for j in range(k):
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            term = sub[0][j] * det(minor)
            total += -term if j % 2 else term
        return total % p

    from itertools import combinations
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    return k
    return 0


def oracle_kernel_by_enumeration(rows, p):
    """All vectors v over F_p^cols with A v = 0, found by trying every vector."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    kernel = []
    for vec in product(range(p), repeat=n):
        if all(sum(rows[i][j] * vec[j] for j in range(n)) % p == 0 for i in range(m)):
            kernel.append(vec)
    return kernel


def oracle_rref(rows, p):
    """Plain row reduction over F_p on lists of lists; returns (rref, rank)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivot_row = 0
    for col in range(n):
        pr = None
        for r in range(pivot_row, m):
            if a[r][col] % p != 0:
                pr = r
                break
        if pr is None:
            continue
        a[pivot_row], a[pr] = a[pr], a[pivot_row]
        inv = pow(a[pivot_row][col], p - 2, p)
        a[pivot_row] = [(x * inv) % p for x in a[pivot_row]]
        for r in range(m):
            if r != pivot_row and a[r][col] % p != 0:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[pivot_row])]
        pivot_row += 1
        if pivot_row == m:
            break
    return a, pivot_row


def oracle_matrix_rank(rows, p):
    if not rows or not rows[0]:
        return 0
    return oracle_rref(rows, p)[1]


def oracle_solve(rows, rhs, p):
    """Solve A x = b by enumerating all of F_p^n (tiny systems only)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for vec in product(range(p), repeat=n):
        if all(sum(rows[i][j] * vec[j] for j in range(n)) % p == rhs[i] % p for i in range(m)):
            return list(vec)
    return None


# ---------------------------------------------------------------------------
# Grid-module oracles.  A module is described to these functions in a plain
# dict form so they do not depend on the package's classes:
#   {"p": prime,
#    "shape": (n0, n1, ...),              grid point index ranges
#    "dims": {idx_tuple: int},
#    "steps": {(idx_tuple, axis): rows}}  rows = list of lists, target x source
# ---------------------------------------------------------------------------

def _points(shape):
    return list(product(*[range(s) for s in shape]))


def _succ(idx, axis, shape):
    if idx[axis] + 1 >= shape[axis]:
        return None
    return idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:]


def oracle_edges(shape):
    """[((g, axis), successor)] for every unit step of a grid of this shape,
    points in lexicographic order and axes increasing."""
    return [((g, a), _succ(g, a, shape)) for g in _points(shape) for a in range(len(shape))
            if _succ(g, a, shape) is not None]


def _matmul(a, b, p, cols):
    """a @ b mod p with cols columns: lists lose the column count of an empty
    b, so it is passed in."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) % p for j in range(cols)]
            for i in range(len(a))]


def oracle_hom_count(mod_v, mod_w):
    """Count natural transformations v -> w by enumerating every component
    tuple over F_p.  Returns the count (a power of p); log_p gives dim Hom."""
    p = mod_v["p"]
    shape = mod_v["shape"]
    pts = _points(shape)
    slots = []
    for g in pts:
        slots.append((g, mod_w["dims"][g] * mod_v["dims"][g]))
    total_unknowns = sum(s for _, s in slots)
    count = 0
    for flat in product(range(p), repeat=total_unknowns):
        comps = {}
        pos = 0
        for g, size in slots:
            r, c = mod_w["dims"][g], mod_v["dims"][g]
            comps[g] = [list(flat[pos + i * c: pos + (i + 1) * c]) for i in range(r)]
            pos += size
        ok = True
        for g in pts:
            for axis in range(len(shape)):
                h = _succ(g, axis, shape)
                if h is None:
                    continue
                lhs = _matmul(comps[h], mod_v["steps"][(g, axis)], p, mod_v["dims"][g])
                rhs = _matmul(mod_w["steps"][(g, axis)], comps[g], p, mod_v["dims"][g])
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Simplicial homology oracle: dimension of H_k of a single complex over F_p,
# straight from boundary-matrix ranks with the elimination above.
# ---------------------------------------------------------------------------

def oracle_homology_dim(simplices, k, p):
    """dim H_k of the complex given as a collection of sorted vertex tuples
    (must be closed under faces).  Independent elimination, no numpy."""
    simps = set(tuple(sorted(s)) for s in simplices)
    k_cells = sorted(s for s in simps if len(s) == k + 1)
    k1_cells = sorted(s for s in simps if len(s) == k + 2)
    km1_cells = sorted(s for s in simps if len(s) == k)
    if not k_cells:
        return 0
    index = {s: i for i, s in enumerate(k_cells)}
    # boundary of k-cells into (k-1)-cells
    if km1_cells and k > 0:
        idx_m1 = {s: i for i, s in enumerate(km1_cells)}
        d_k = [[0] * len(k_cells) for _ in range(len(km1_cells))]
        for j, s in enumerate(k_cells):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                d_k[idx_m1[face]][j] = (-1) ** drop % p
        rank_dk = oracle_matrix_rank(d_k, p)
    else:
        rank_dk = 0
    cycles = len(k_cells) - rank_dk
    if k1_cells:
        d_k1 = [[0] * len(k1_cells) for _ in range(len(k_cells))]
        for j, s in enumerate(k1_cells):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                d_k1[index[face]][j] = (-1) ** drop % p
        rank_dk1 = oracle_matrix_rank(d_k1, p)
    else:
        rank_dk1 = 0
    return cycles - rank_dk1


def oracle_component_count(vertices, edges):
    """Connected components of a graph by union-find."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in vertices})


def oracle_degree_rips_presence(dists, radii, degrees, simplex, r, k):
    """Ground truth for 'simplex present at grade (r, -k)': every vertex has at
    least k other points within distance r, and the simplex diameter is <= r.
    dists is a dict (i, j) -> Fraction for i != j."""
    n_ok = True
    verts = list(simplex)
    for v in verts:
        deg = sum(1 for u in range(len_points(dists)) if u != v and dists[min(u, v), max(u, v)] <= r)
        if deg < k:
            n_ok = False
            break
    if not n_ok:
        return False
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            a, b = verts[i], verts[j]
            if dists[min(a, b), max(a, b)] > r:
                return False
    return True


def len_points(dists):
    if not dists:
        return 1
    return max(max(k) for k in dists) + 1


def oracle_tail_sums(eps_list):
    """Exact tail sums delta_k = sum_{m >= k} eps_m as Fractions."""
    out = []
    for k in range(len(eps_list) + 1):
        out.append(sum(eps_list[k:], Fraction(0)))
    return out


# ---------------------------------------------------------------------------
# Point-by-point restriction: the package's earlier path map, restrict_extend
# and eta_on, one Grid.anchor per point and one walk of unit steps per step or
# component, built through the public, validating constructors.  The cached
# path maps and the per-axis anchoring with reused steps must reproduce them
# exactly.
# ---------------------------------------------------------------------------

def oracle_path_map(v, a, b):
    """v's structure map from grid index a to b >= a: the unit steps walked
    with _succ, lowest axis first, one product per step on a fresh
    identity."""
    import numpy as np

    m, cur = np.eye(v.dims[a], dtype=np.int64), tuple(a)
    for axis in range(len(cur)):
        while cur[axis] < b[axis]:
            m = v.steps[(cur, axis)] @ m % v.field.p
            cur = _succ(cur, axis, v.grid.shape)
    return m


def oracle_restrict_extend(v, grid):
    from obspers.stepmodule import StepModule

    anchors = {q: v.grid.anchor(grid.coords(q)) for q in grid.points()}
    dims = {q: 0 if a is None else v.dims[a] for q, a in anchors.items()}
    steps = {}
    for q in grid.points():
        for axis in range(grid.n_axes):
            q2 = _succ(q, axis, grid.shape)
            if q2 is None:
                continue
            a, b = anchors[q], anchors[q2]
            if a is None:
                steps[(q, axis)] = v.field.zeros(dims[q2], 0)
            else:
                steps[(q, axis)] = oracle_path_map(v, a, b)
    return StepModule(v.field, grid, dims, steps)


def oracle_eta_on(v, eps, grid):
    from obspers.stepmodule import Morphism, StepModule

    shifted = StepModule(v.field, v.grid.translate(-eps), v.dims, v.steps)
    source = oracle_restrict_extend(v, grid)
    target = oracle_restrict_extend(shifted, grid)
    comps = {}
    for q in grid.points():
        c = grid.coords(q)
        a = v.grid.anchor(c)
        b = v.grid.anchor(tuple(x + eps for x in c))
        if a is None:
            comps[q] = v.field.zeros(target.dims[q], 0)
        else:
            comps[q] = oracle_path_map(v, a, b)
    return Morphism(source, target, comps)


# ---------------------------------------------------------------------------
# The package's earlier linear_combination: a sum over a list of basis
# Morphisms, one grid point at a time.  The combination of hom_rows
# coordinates, one product for all points, must give the same morphism.
# ---------------------------------------------------------------------------

def oracle_linear_combination(basis, coeffs, source, target):
    import numpy as np

    from obspers.stepmodule import Morphism

    comps = {}
    for g in source.grid.points():
        acc = np.zeros((target.dims[g], source.dims[g]), dtype=np.int64)
        for c, b in zip(coeffs, basis):
            if c:
                acc += int(c) * b.comps[g]
        comps[g] = acc % source.field.p
    return Morphism(source, target, comps)


# ---------------------------------------------------------------------------
# The package's earlier decide kernel: one restrict_morphism per basis element
# and one matmul per grid point per basis pair for the triangle tensors, the
# all-pairs rank scan, and one solve of the full flattened system per
# candidate.  The stacked tensors, the comparable-pairs scan and the once
# reduced system must reproduce them exactly.
# ---------------------------------------------------------------------------

def oracle_triangle(first, second, eps):
    import numpy as np

    from obspers.calculus import eta_on, restrict_morphism, shift_morphism
    from obspers.stepmodule import Morphism, flatten_morphism, hom_basis, union_grids

    F = first.module.field
    u = union_grids(first.grid, second.grid.translate(-eps))
    pts = u.points()
    rx = [restrict_morphism(b, u) for b in hom_basis(first.source, first.target)]
    ry = [restrict_morphism(shift_morphism(b, eps), u)
          for b in hom_basis(second.source, second.target)]
    rhs = flatten_morphism(eta_on(first.module, 2 * eps, u))
    tensor = np.zeros((len(rx), len(ry), rhs.size), dtype=np.int64)
    for i, a in enumerate(rx):
        for j, b in enumerate(ry):
            tensor[i, j] = flatten_morphism(Morphism(
                a.source, b.target, {g: F.matmul(b.comps[g], a.comps[g]) for g in pts}))
    return tensor, rhs


def _oracle_rank_violation(v, w, eps):
    from obspers.stepmodule import union_grids

    grid = union_grids(v.grid, v.grid.translate(-2 * eps), w.grid.translate(-eps))
    pts = grid.points()
    for s in pts:
        a = v.grid.anchor(grid.coords(s))
        if a is None:
            continue
        for t in pts:
            if any(x > y for x, y in zip(s, t)):
                continue
            rv = v.field.rank(oracle_path_map(v, a, v.grid.anchor(
                tuple(c + 2 * eps for c in grid.coords(t)))))
            if rv == 0:
                continue
            b = w.grid.anchor(tuple(c + eps for c in grid.coords(s)))
            if b is None:
                return (grid.coords(s), grid.coords(t))
            e = w.grid.anchor(tuple(c + eps for c in grid.coords(t)))
            if rv > w.field.rank(oracle_path_map(w, b, e)):
                return (grid.coords(s), grid.coords(t))
    return None


def oracle_rank_obstruction_at(v, w, eps):
    hit = _oracle_rank_violation(v, w, eps)
    if hit is not None:
        return f"rank(V_(s -> t+2e)) > rank(W_(s+e -> t+e)) at s={hit[0]}, t={hit[1]}, e={eps}"
    hit = _oracle_rank_violation(w, v, eps)
    if hit is not None:
        return f"rank(W_(s -> t+2e)) > rank(V_(s+e -> t+e)) at s={hit[0]}, t={hit[1]}, e={eps}"
    return None


def oracle_decide(v, w, eps, budget):
    """decide with the oracle tensors and the full system solved for every
    candidate."""
    from itertools import product as iproduct

    import numpy as np

    from obspers.errors import BudgetExceeded
    from obspers.metric import _side, verify
    from obspers.stepmodule import hom_basis

    if oracle_rank_obstruction_at(v, w, eps) is not None:
        return None
    f_side, g_side = _side(v, w, eps), _side(w, v, eps)
    flip = len(g_side.rows) < len(f_side.rows)
    enum, other = (g_side, f_side) if flip else (f_side, g_side)
    F = v.field
    if F.p ** len(enum.rows) > budget:
        raise BudgetExceeded("search budget")
    enum_basis = hom_basis(enum.source, enum.target)
    other_basis = hom_basis(other.source, other.target)
    t1, rhs1 = oracle_triangle(enum, other, eps)
    t2, rhs2 = oracle_triangle(other, enum, eps)
    t2 = t2.transpose(1, 0, 2)
    rhs = np.concatenate([rhs1, rhs2]).reshape(-1, 1)
    for cand in iproduct(range(F.p), repeat=len(enum_basis)):
        c = np.array(cand, dtype=np.int64)
        m1 = np.tensordot(c, t1, axes=(0, 0)) % F.p
        m2 = np.tensordot(c, t2, axes=(0, 0)) % F.p
        sol = F.solve(np.concatenate([m1, m2], axis=1).T, rhs)
        if sol is None:
            continue
        pair = (oracle_linear_combination(enum_basis, c, enum.source, enum.target),
                oracle_linear_combination(other_basis, sol[:, 0], other.source, other.target))
        f, g = pair[::-1] if flip else pair
        result = verify(v, w, eps, f, g)
        if result.verified:
            return result
    return None


# ---------------------------------------------------------------------------
# The package's earlier Hom solver: the dense naturality system, with
# sum_g dim v_g * dim w_g unknowns and two Kronecker blocks per grid edge,
# solved by kernel_basis.  hom_basis, computed from generators, must return
# its basis element by element.
# ---------------------------------------------------------------------------

def oracle_hom_basis(v, w):
    import numpy as np

    from obspers.stepmodule import Morphism

    F = v.field
    pts = v.grid.points()
    offsets, total = {}, 0
    for g in pts:
        offsets[g] = total
        total += w.dims[g] * v.dims[g]
    if total == 0:
        return []
    rows = []
    for g in pts:
        for axis in range(v.grid.n_axes):
            h = _succ(g, axis, v.grid.shape)
            if h is None:
                continue
            A, B = v.steps[(g, axis)], w.steps[(g, axis)]
            n_eq = w.dims[h] * v.dims[g]
            if n_eq == 0:
                continue
            block = F.zeros(n_eq, total)
            # row-major vec: vec(X_h A) = (I kron A^T) vec(X_h)
            block[:, offsets[h]:offsets[h] + w.dims[h] * v.dims[h]] = \
                np.kron(F.identity(w.dims[h]), A.T)
            at_g = slice(offsets[g], offsets[g] + w.dims[g] * v.dims[g])
            block[:, at_g] = (block[:, at_g] - np.kron(B, F.identity(v.dims[g]))) % F.p
            rows.append(block)
    system = np.concatenate(rows, axis=0) % F.p if rows else F.zeros(0, total)
    basis = F.kernel_basis(system)
    out = []
    for j in range(basis.shape[1]):
        comps, pos = {}, 0
        for g in pts:
            r, c = w.dims[g], v.dims[g]
            comps[g] = basis[pos:pos + r * c, j].reshape(r, c)
            pos += r * c
        out.append(Morphism(v, w, comps))
    return out


# ---------------------------------------------------------------------------
# The package's earlier factorization and decomposition.  factor_morphism
# built the kernel, image and cokernel of a morphism with the canonical maps,
# one solve per step and per piece; the package now builds only the image,
# which must equal this one element by element.  The earlier decomposition
# solved hom_basis again on every split piece, took the structure table from
# d^2 compose calls, and read the Fitting split off that factorization of
# f^N.  The derived End bases, the batched table and the kernel-and-image
# split must reproduce them exactly.
# ---------------------------------------------------------------------------

def oracle_factor_morphism(m):
    """Pointwise kernel, image and cokernel of a valid morphism, with
    kernel_inclusion into the source, image_inclusion into the target,
    coimage_projection from the source onto the image and
    cokernel_projection from the target, all through the validating
    constructors."""
    from types import SimpleNamespace

    import numpy as np

    from obspers.errors import ValidationError
    from obspers.stepmodule import Morphism, StepModule

    F = m.field
    v, w = m.source, m.target
    pts = m.grid.points()

    def complement(s, n):
        """Identity columns completing the independent columns of s to a
        basis of F_p^n."""
        if s.shape[1] == 0:
            return F.identity(n)
        _, _, pivots = F.reduce(np.concatenate([s, F.identity(n)], axis=1))
        return F.identity(n)[:, [c - s.shape[1] for c in pivots if c >= s.shape[1]]]

    kbasis, ibasis, qbasis = {}, {}, {}
    for g in pts:
        c = m.comps[g]
        kbasis[g] = F.kernel_basis(c)
        ibasis[g] = F.column_space_basis(c)
        qbasis[g] = complement(ibasis[g], w.dims[g])

    def induced(bases, ambient_steps, g, axis, h):
        x = F.solve(bases[h], F.matmul(ambient_steps[(g, axis)], bases[g]))
        if x is None:
            raise ValidationError("induced step left the subspace; morphism invalid")
        return x

    ksteps, isteps, csteps = {}, {}, {}
    for g in pts:
        for axis in range(m.grid.n_axes):
            h = _succ(g, axis, m.grid.shape)
            if h is None:
                continue
            ksteps[(g, axis)] = induced(kbasis, v.steps, g, axis, h)
            isteps[(g, axis)] = induced(ibasis, w.steps, g, axis, h)
            full = np.concatenate([ibasis[h], qbasis[h]], axis=1)
            x = F.solve(full, F.matmul(w.steps[(g, axis)], qbasis[g]))
            if x is None:
                raise ValidationError("cokernel step unsolvable; morphism invalid")
            csteps[(g, axis)] = x[ibasis[h].shape[1]:, :]
    kernel = StepModule(F, m.grid, {g: kbasis[g].shape[1] for g in pts}, ksteps)
    image = StepModule(F, m.grid, {g: ibasis[g].shape[1] for g in pts}, isteps)
    cokernel = StepModule(F, m.grid, {g: qbasis[g].shape[1] for g in pts}, csteps)
    coim, cproj = {}, {}
    for g in pts:
        x = F.solve(ibasis[g], m.comps[g])
        coim[g] = x if x is not None else F.zeros(ibasis[g].shape[1], v.dims[g])
        full = np.concatenate([ibasis[g], qbasis[g]], axis=1)
        cproj[g] = F.solve(full, F.identity(w.dims[g]))[ibasis[g].shape[1]:, :]
    return SimpleNamespace(
        kernel=kernel, image=image, cokernel=cokernel,
        kernel_inclusion=Morphism(kernel, v, kbasis),
        image_inclusion=Morphism(image, w, ibasis),
        coimage_projection=Morphism(v, image, coim),
        cokernel_projection=Morphism(w, cokernel, cproj))


def oracle_endo_algebra(v):
    import numpy as np

    from obspers.decompose import EndoAlgebra
    from obspers.stepmodule import flatten_morphism

    basis = oracle_hom_basis(v, v)
    d = len(basis)
    F = v.field
    if d == 0:
        return EndoAlgebra(v, [], np.zeros((0, 0, 0), dtype=np.int64),
                           np.zeros((0, 0), dtype=np.int64))
    mat = np.stack([flatten_morphism(b) for b in basis], axis=1)
    prods = [flatten_morphism(oracle_compose(bi, bj)) for bi in basis for bj in basis]
    coeffs = F.solve(mat, np.stack(prods, axis=1))
    if coeffs is None:
        raise RuntimeError("endomorphism composition left the basis span")
    return EndoAlgebra(v, basis, coeffs.T.reshape(d, d, d), mat)


def oracle_split_from_endo(v, f):
    import numpy as np

    from obspers.decompose import Split
    from obspers.stepmodule import Morphism

    F = v.field
    n = max(v.total_dim, 1)
    fn = Morphism(f.source, f.target, {g: oracle_matpow(F, f.comps[g], n)
                                       for g in f.grid.points()})
    fac = oracle_factor_morphism(fn)
    ka = fac.kernel.total_dim
    if ka == 0 or ka == v.total_dim:
        return None
    kernel, image = fac.kernel, fac.image
    inc_a, inc_b = fac.kernel_inclusion, fac.image_inclusion
    proj_a, proj_b = {}, {}
    for g in v.grid.points():
        kb = inc_a.comps[g]
        full = np.concatenate([kb, inc_b.comps[g]], axis=1)
        if full.shape[0] != full.shape[1] or not F.is_invertible(full):
            return None
        inv = F.inverse(full)
        proj_a[g] = inv[:kb.shape[1], :]
        proj_b[g] = inv[kb.shape[1]:, :]
    return Split(kernel, image, inc_a, inc_b,
                 Morphism(v, kernel, proj_a), Morphism(v, image, proj_b))


def oracle_split_once(v, seed=0, budget=1 << 16):
    from itertools import islice

    import numpy as np

    from obspers.decompose import _idempotent_in_chunk
    from obspers.stepmodule import coefficient_vectors, flatten_morphism, identity_morphism

    F = v.field
    algebra = oracle_endo_algebra(v)
    d = algebra.dim
    if d == 1:
        return None
    for b in algebra.basis:
        s = oracle_split_from_endo(v, b)
        if s is not None:
            return s
    rng = np.random.default_rng(seed)
    for _ in range(8 + 4 * d):
        f = oracle_linear_combination(algebra.basis, rng.integers(0, F.p, size=d), v, v)
        s = oracle_split_from_endo(v, f)
        if s is not None:
            return s
    cands = coefficient_vectors(F.p, d, budget, "End(V)")
    id_c = F.solve(algebra.stack, flatten_morphism(identity_morphism(v)))[:, 0]
    while chunk := list(islice(cands, 4096)):
        e = _idempotent_in_chunk(np.array(chunk, dtype=np.int64), algebra.table, id_c, F.p)
        if e is not None:
            return oracle_split_from_endo(v, oracle_linear_combination(algebra.basis, e, v, v))
    return None


def oracle_decompose(v, seed=0, budget=1 << 16):
    from obspers.decompose import Decomposition
    from obspers.stepmodule import identity_morphism

    if v.total_dim == 0:
        return Decomposition(v, [], [], [])
    work = [(v, identity_morphism(v), identity_morphism(v))]
    summands, incs, projs = [], [], []
    counter = 0
    while work:
        m, inc, proj = work.pop()
        if m.total_dim == 0:
            continue
        s = oracle_split_once(m, seed=seed + counter, budget=budget)
        counter += 1
        if s is None:
            summands.append(m)
            incs.append(inc)
            projs.append(proj)
            continue
        work.append((s.a, oracle_compose(inc, s.inc_a), oracle_compose(s.proj_a, proj)))
        work.append((s.b, oracle_compose(inc, s.inc_b), oracle_compose(s.proj_b, proj)))
    order = sorted(range(len(summands)), key=lambda i: (-summands[i].total_dim, i))
    return Decomposition(v, [summands[i] for i in order], [incs[i] for i in order],
                         [projs[i] for i in order])


# ---------------------------------------------------------------------------
# The package's earlier verify: each endpoint compared by restricting both
# modules to the common refinement (oracle_modules_match, here point by point
# on the union of the Fraction coordinates), each triangle composite built
# on the common refinement as compose_matched builds it, eta_2eps built on a
# grid refining it, and the two compared by oracle_morphisms_match (once
# calculus.morphisms_match), which restricts both once more.  The endpoint
# checks without a rebuild and the anchored triangle check must give the
# same verdict and violations.  oracle_triangle_holds is the anchored check
# as it was before it went to generator grades, read point by point: one
# comparison per point of the common refinement of the four grids.
# ---------------------------------------------------------------------------

def oracle_modules_match(a, b):
    """calculus.modules_match as it was: both modules restricted to the
    common refinement and their data compared, entry by entry."""
    import numpy as np

    from obspers.stepmodule import Grid

    if a.field != b.field or a.grid.n_axes != b.grid.n_axes:
        return False
    u = Grid(tuple(tuple(sorted(set(x) | set(y))) for x, y in zip(a.grid.axes, b.grid.axes)))
    ra, rb = oracle_restrict_extend(a, u), oracle_restrict_extend(b, u)
    return (ra.dims == rb.dims and ra.steps.keys() == rb.steps.keys()
            and all(np.array_equal(m, rb.steps[k]) for k, m in ra.steps.items()))


def oracle_morphisms_match(m1, m2):
    """True when the two morphisms agree as morphisms of extensions: both
    restricted to the common refinement and their components compared."""
    from obspers.calculus import restrict_morphism
    from obspers.stepmodule import matrices_equal, union_grids

    if m1.field != m2.field or m1.grid.n_axes != m2.grid.n_axes:
        return False
    u = union_grids(m1.grid, m2.grid)
    r1 = restrict_morphism(m1, u)
    r2 = restrict_morphism(m2, u)
    if r1.source != r2.source or r1.target != r2.target:
        return False
    return matrices_equal(r1.comps, r2.comps, u.points())


def oracle_compose_matched(m2, m1):
    """calculus.compose_matched with the per-point oracle_compose: both
    morphisms restricted to the common refinement, then composed."""
    from obspers.calculus import restrict_morphism
    from obspers.errors import ValidationError
    from obspers.stepmodule import union_grids

    u = union_grids(m1.grid, m2.grid)
    r1, r2 = restrict_morphism(m1, u), restrict_morphism(m2, u)
    if r1.target != r2.source:
        raise ValidationError("composition endpoints differ as extensions")
    return oracle_compose(r2, r1)


def oracle_verify(v, w, eps, f, g):
    from obspers.calculus import eta_on, shift, shift_morphism
    from obspers.errors import ValidationError
    from obspers.metric import Interleaving
    from obspers.stepmodule import _frac, union_grids

    eps = _frac(eps)
    if eps < 0:
        raise ValidationError("interleaving eps must be >= 0")
    out = []
    if not oracle_modules_match(f.source, v):
        out.append("f's source is not V")
    if not oracle_modules_match(f.target, shift(w, eps)):
        out.append("f's target is not W[eps]")
    if not oracle_modules_match(g.source, w):
        out.append("g's source is not W")
    if not oracle_modules_match(g.target, shift(v, eps)):
        out.append("g's target is not V[eps]")
    for name, m in (("f", f), ("g", g)):
        for viol in oracle_validate_morphism(m):
            out.append(f"{name}: {viol}")
    if not out:
        for first, second, x, name in ((f, g, v, "g[eps] o f != eta_2eps on V"),
                                       (g, f, w, "f[eps] o g != eta_2eps on W")):
            t = oracle_compose_matched(shift_morphism(second, eps), first)
            u = union_grids(t.grid, x.grid, x.grid.translate(-2 * eps))
            if not oracle_morphisms_match(t, eta_on(x, 2 * eps, u)):
                out.append(f"triangle {name}")
    return Interleaving(eps, f, g, not out, tuple(out))


def oracle_shift_factor_ok(l, m, first, beta):
    """The earlier shift_factor_morphism check: the composite m o first built
    by compose_matched against eta_beta on l's grid."""
    from obspers.calculus import eta_on

    return oracle_morphisms_match(oracle_compose_matched(m, first), eta_on(l, beta, l.grid))


def oracle_triangle_holds(first, second, x, s, total):
    """calculus._triangle_holds as it was: second's component at b times
    first's at a against x's structure map from c to d, at every point q of
    the common refinement of first's grid, second's grid - s, x's grid and
    x's grid - total, each anchor taken by Grid.anchor at q's coordinates
    (moved by s for b and by total for d)."""
    import numpy as np

    from obspers.stepmodule import union_grids

    grid = union_grids(first.grid, second.grid.translate(-s),
                       x.grid, x.grid.translate(-total))
    for q in grid.points():
        at = grid.coords(q)
        c = x.grid.anchor(at)
        if c is None:
            continue
        a = first.grid.anchor(at)
        b = second.grid.anchor(tuple(t + s for t in at))
        want = x.path_map(c, x.grid.anchor(tuple(t + total for t in at)))
        if a is None or b is None:
            if np.any(want):
                return False
        elif not np.array_equal(x.field.matmul(second.comps[b], first.comps[a]), want):
            return False
    return True


# ---------------------------------------------------------------------------
# The package's earlier point-by-point Fitting split and isomorphism search:
# f^N by square-and-multiply and three eliminations at each grid point, and
# iso_test's candidates tried one at a time, each point in turn from the
# smallest dimension up.  The batched split and the chunked scan must return
# the same split and the same witness.
# ---------------------------------------------------------------------------

def oracle_matpow(F, a, n):
    result = F.identity(a.shape[0])
    base = a.copy()
    while n > 0:
        if n & 1:
            result = F.matmul(result, base)
        base = F.matmul(base, base)
        n >>= 1
    return result


def oracle_split_pointwise(v, f):
    import numpy as np

    from obspers.decompose import Split
    from obspers.stepmodule import Morphism

    F = v.field
    n = max(v.total_dim, 1)
    fn = {g: oracle_matpow(F, f.comps[g], n) for g in v.grid.points()}
    kernel = {g: F.kernel_basis(c) for g, c in fn.items()}
    ka = sum(k.shape[1] for k in kernel.values())
    if ka == 0 or ka == v.total_dim:
        return None
    image, proj_a, proj_b = {}, {}, {}
    for g, c in fn.items():
        image[g] = F.column_space_basis(c)
        inv = F.solve(np.concatenate([kernel[g], image[g]], axis=1), F.identity(v.dims[g]))
        if inv is None:
            return None
        k = kernel[g].shape[1]
        proj_a[g], proj_b[g] = inv[:k], inv[k:]
    a, b = oracle_submodule(v, kernel, proj_a), oracle_submodule(v, image, proj_b)
    return Split(a, b, Morphism(a, v, kernel), Morphism(b, v, image),
                 Morphism(v, a, proj_a), Morphism(v, b, proj_b))


def oracle_invertible_pointwise(v, w, basis, coeffs):
    import numpy as np

    from obspers.stepmodule import Morphism

    F = v.field
    comps = {}
    for g in sorted(v.grid.points(), key=lambda g: v.dims[g]):
        acc = np.zeros((w.dims[g], v.dims[g]), dtype=np.int64)
        for c, b in zip(coeffs, basis):
            if c:
                acc += int(c) * b.comps[g]
        acc %= F.p
        if not F.is_invertible(acc):
            return None
        comps[g] = acc
    return Morphism(v, w, comps)


def oracle_iso_test(v, w, seed=0, budget=1 << 16):
    import numpy as np

    from obspers.calculus import restrict_extend
    from obspers.stepmodule import (coefficient_vectors, hom_basis, identity_morphism,
                                    union_grids)

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
    if gaps and oracle_persistent_rank(rv, min(gaps)) != oracle_persistent_rank(rw, min(gaps)):
        return False, None
    basis = hom_basis(rv, rw)
    h = len(basis)
    if h == 0:
        return False, None
    F = v.field
    rng = np.random.default_rng(seed)
    for _ in range(min(200, F.p ** h)):
        m = oracle_invertible_pointwise(rv, rw, basis, rng.integers(0, F.p, size=h))
        if m is not None:
            return True, m
    for cand in coefficient_vectors(F.p, h, budget, "Hom(V, W)"):
        if not any(cand):
            continue
        m = oracle_invertible_pointwise(rv, rw, basis, cand)
        if m is not None:
            return True, m
    return False, None


# ---------------------------------------------------------------------------
# The package's earlier per-edge and per-point kernels: the commutativity
# check one square at a time, the naturality check, composition, sum and
# submodule steps one grid edge or one grid point at a time, and the
# persistent rank one F.rank per point of the refined grid.
# They walk their own edges and points (oracle_edges, _points) and never read
# a padded stack; the batched kernels must return exactly what they return.
# ---------------------------------------------------------------------------

def oracle_validate(v):
    """The first missing or negative dimension; else dimensions off the grid,
    missing and misshapen steps and steps off the grid; else the first unit
    square (g, i < j), in order of the edge (g, i) and then j, whose two
    paths differ, both multiplied out of the steps dict."""
    import numpy as np

    pts = _points(v.grid.shape)
    for g in pts:
        if g not in v.dims:
            return [f"missing dimension at {g}"]
        if v.dims[g] < 0:
            return [f"negative dimension at {g}"]
    out = [f"dimension at {g} is not at a grid point" for g in v.dims if g not in pts]
    edges = dict(oracle_edges(v.grid.shape))
    for (g, axis), h in edges.items():
        if (g, axis) not in v.steps:
            out.append(f"missing step at {g} axis {axis}")
            continue
        want = (v.dims[h], v.dims[g])
        if v.steps[(g, axis)].shape != want:
            out.append(f"step at {g} axis {axis} has shape {v.steps[(g, axis)].shape}, "
                       f"expected {want}")
    out += [f"step at {g} axis {axis} does not match any grid edge"
            for g, axis in v.steps if (g, axis) not in edges]
    if out:
        return out
    p = v.field.p
    for (g, i), gi in edges.items():
        for j in range(i + 1, len(v.grid.shape)):
            gj = edges.get((g, j))
            if gj is None:
                continue
            via_i = v.steps[(gi, j)] @ v.steps[(g, i)] % p
            via_j = v.steps[(gj, i)] @ v.steps[(g, j)] % p
            if not np.array_equal(via_i, via_j):
                return [f"square at {g} axes ({i},{j}) does not commute"]
    return []


def oracle_validate_morphism(m):
    """Missing components, wrong shapes and components off the grid, then
    the first edge in lexicographic order where naturality fails."""
    import numpy as np

    pts = _points(m.grid.shape)
    out = []
    for g in pts:
        if g not in m.comps:
            out.append(f"missing component at {g}")
            return out
        want = (m.target.dims[g], m.source.dims[g])
        if m.comps[g].shape != want:
            out.append(f"component at {g} has shape {m.comps[g].shape}, expected {want}")
    out += [f"component at {g} is not at a grid point" for g in m.comps if g not in pts]
    if out:
        return out
    p = m.field.p
    for (g, axis), h in oracle_edges(m.grid.shape):
        lhs = m.comps[h] @ m.source.steps[(g, axis)] % p
        rhs = m.target.steps[(g, axis)] @ m.comps[g] % p
        if not np.array_equal(lhs, rhs):
            return [f"naturality fails at {g} axis {axis}"]
    return []


def oracle_compose(m2, m1):
    """m2 after m1, one product per grid point."""
    from obspers.errors import ValidationError
    from obspers.stepmodule import Morphism

    if m1.target != m2.source:
        raise ValidationError("composition endpoints do not match")
    p = m1.field.p
    return Morphism(m1.source, m2.target, {
        g: m2.comps[g] @ m1.comps[g] % p for g in _points(m1.grid.shape)})


def oracle_add_morphisms(m1, m2):
    """m1 + m2, one sum per grid point."""
    from obspers.stepmodule import Morphism

    p = m1.field.p
    return Morphism(m1.source, m1.target, {
        g: (m1.comps[g] + m2.comps[g]) % p for g in _points(m1.grid.shape)})


def oracle_submodule(v, basis, coords):
    """The submodule of v spanned by the columns of basis[g] at each point,
    coords[h] @ step @ basis[g] on each edge g -> h; basis and coords are
    dicts of unpadded matrices."""
    from obspers.stepmodule import StepModule

    p = v.field.p
    steps = {(g, axis): coords[h] @ (v.steps[(g, axis)] @ basis[g] % p) % p
             for (g, axis), h in oracle_edges(v.grid.shape)}
    return StepModule(v.field, v.grid, {g: basis[g].shape[1]
                                        for g in _points(v.grid.shape)}, steps)


def oracle_persistent_rank(v, eps):
    """The largest rank of an anchored structure map over the points of the
    refined grid, one F.rank per point."""
    from obspers.stepmodule import _frac, union_grids

    eps = _frac(eps)
    grid = union_grids(v.grid, v.grid.translate(-eps)) if eps > 0 else v.grid
    ends = v.grid.anchors_on(grid, eps)
    return max((v.field.rank(oracle_path_map(v, a, ends[q]))
                for q, a in v.grid.anchors_on(grid).items() if a is not None), default=0)


# ---------------------------------------------------------------------------
# The package's earlier anchored morphisms: anchored_morphism with one comp
# call per point of the grid, comp(q, a, b) given the point, a fresh zero
# block at every point without both anchors, and the witnesses of smooth,
# restriction_pair and the cell-summand sampler built on it as they were.
# The per-cell anchored_morphism must give the same components.
# ---------------------------------------------------------------------------

def oracle_anchored_morphism(x, y, eps, grid, comp):
    from obspers.calculus import restrict_extend, shift
    from obspers.stepmodule import Morphism, _frac

    eps = _frac(eps)
    source = restrict_extend(x, grid)
    target = restrict_extend(shift(y, eps), grid)
    ends = y.grid.anchors_on(grid, eps)
    comps = {}
    for q, a in x.grid.anchors_on(grid).items():
        b = ends[q]
        m = None if a is None or b is None else comp(q, a, b)
        if m is None:
            m = x.field.zeros(target.dims[q], source.dims[q])
        comps[q] = m
    return Morphism(source, target, comps)


def oracle_smooth_f(v, res):
    """smooth's f for the SmoothResult res of v, from the module and g of res."""
    from obspers.errors import ValidationError
    from obspers.stepmodule import union_grids

    s, g, eps = res.module, res.g, res.eps
    ambient = v.grid.anchors_on(s.grid, eps)

    def comp(q, av, tg):
        if s.dims[tg] == 0:
            return None
        x = v.field.solve(g.comps[tg], v.path_map(av, ambient[tg]))
        if x is None:
            raise ValidationError("smoothing component left the image subspace")
        return x

    return oracle_anchored_morphism(v, s, eps, union_grids(v.grid, s.grid.translate(-eps)), comp)


def oracle_restriction_pair(v, q_grid, eps):
    """restriction_pair's (f, g) onto q_grid."""
    from obspers.calculus import restrict_extend
    from obspers.errors import ValidationError
    from obspers.stepmodule import union_grids

    vq = restrict_extend(v, q_grid)
    on_v = v.grid.anchors_on(q_grid)

    def f_comp(qi, av, aq):
        tv = on_v[aq]
        if tv is None or any(x > y for x, y in zip(av, tv)):
            raise ValidationError("q_grid is not eps-dense over the module; no density morphism")
        return v.path_map(av, tv)

    def g_comp(qi, aq, bv):
        sv = on_v[aq]
        return None if sv is None else v.path_map(sv, bv)

    return (oracle_anchored_morphism(v, vq, eps, union_grids(v.grid, q_grid.translate(-eps)),
                                     f_comp),
            oracle_anchored_morphism(vq, v, eps, union_grids(q_grid, v.grid.translate(-eps)),
                                     g_comp))


def oracle_cell_summand_pair(v, w, e0):
    """The cell-summand sampler's (f, g) between v and w = v (+) T at e0,
    reading v's anchors per point of each morphism's grid."""
    from obspers.stepmodule import union_grids

    F = v.field
    f_grid = union_grids(v.grid, w.grid.translate(-e0))
    v_ends = v.grid.anchors_on(f_grid, e0)

    def f_comp(q, av, aw):
        av2 = v_ends[q]
        if av2 is None:
            return None
        block = F.zeros(w.dims[aw], v.dims[av])
        block[: v.dims[av2], :] = v.path_map(av, av2)
        return block

    g_grid = union_grids(w.grid, v.grid.translate(-e0))
    v_starts = v.grid.anchors_on(g_grid)

    def g_comp(q, aw, av2):
        av = v_starts[q]
        if av is None:
            return None
        block = F.zeros(v.dims[av2], w.dims[aw])
        block[:, : v.dims[av]] = v.path_map(av, av2)
        return block

    return (oracle_anchored_morphism(v, w, e0, f_grid, f_comp),
            oracle_anchored_morphism(w, v, e0, g_grid, g_comp))


# ---------------------------------------------------------------------------
# The package's earlier grid homology: presence decided by
# Bifiltration.present_at at each point's rational coordinates, a cache keyed
# by those coordinates, the public StepModule constructor, and a
# vertex_perturbation_pair that builds each filtration's homology twice.
# homology_module and vertex_perturbation_pair must give the same bytes.
# ---------------------------------------------------------------------------

class OracleGradeHomology:
    """Per-grade cycle representatives in global chain coordinates, plus the
    boundary-spanning basis used to express incoming cycles."""

    def __init__(self, b, k, p):
        from obspers.fields import PrimeField
        from obspers.pipelines import _boundary_matrix

        self.b = b
        self.k = k
        self.F = PrimeField(p)
        self.simp_k = b.complex.of_dim(k)
        self.simp_lo = b.complex.of_dim(k - 1) if k > 0 else []
        self.simp_hi = b.complex.of_dim(k + 1)
        self.full_lo = _boundary_matrix(self.F, self.simp_lo, self.simp_k)
        self.full_hi = _boundary_matrix(self.F, self.simp_k, self.simp_hi)
        self.cache = {}

    def at(self, coords):
        """(reps, span) at the given coordinates: reps columns generate H_k,
        span = [boundary basis | reps] spans the cycle space."""
        import numpy as np

        key = tuple(coords)
        if key in self.cache:
            return self.cache[key]
        F = self.F
        nk = len(self.simp_k)
        idx_k = [i for i, s in enumerate(self.simp_k)
                 if self.b.present_at(s, coords)]
        if not idx_k:
            out = (F.zeros(nk, 0), F.zeros(nk, 0))
            self.cache[key] = out
            return out
        if self.k == 0:
            kern_local = F.identity(len(idx_k))
        else:
            idx_lo = [i for i, s in enumerate(self.simp_lo)
                      if self.b.present_at(s, coords)]
            local = (self.full_lo[np.ix_(idx_lo, idx_k)] if idx_lo
                     else F.zeros(0, len(idx_k)))
            kern_local = F.kernel_basis(local)
        kern = F.zeros(nk, kern_local.shape[1])
        kern[idx_k, :] = kern_local
        idx_hi = [i for i, s in enumerate(self.simp_hi)
                  if self.b.present_at(s, coords)]
        if idx_hi:
            bd = F.zeros(nk, len(idx_hi))
            bd[idx_k, :] = self.full_hi[np.ix_(idx_k, idx_hi)]
            bd = F.column_space_basis(bd)
        else:
            bd = F.zeros(nk, 0)
        stacked = np.concatenate([bd, kern], axis=1)
        _, _, pivots = F.reduce(stacked)
        chosen = [j - bd.shape[1] for j in pivots if j >= bd.shape[1]]
        rep = kern[:, chosen] if chosen else F.zeros(nk, 0)
        out = (rep, np.concatenate([bd, rep], axis=1))
        self.cache[key] = out
        return out

    def express(self, coords, cycles):
        """Coordinates of the given global cycle columns in the homology
        basis at coords; None when some column is not a cycle there."""
        import numpy as np

        rep, span = self.at(coords)
        d = rep.shape[1]
        if cycles.shape[1] == 0 or span.shape[1] == 0:
            if span.shape[1] == 0 and cycles.size and np.any(cycles):
                return None
            return self.F.zeros(d, cycles.shape[1])
        sol = self.F.solve(span, cycles)
        if sol is None:
            return None
        return sol[span.shape[1] - d:, :] % self.F.p


def oracle_homology_module(b, k, grid, p):
    import warnings

    from obspers.errors import ValidationError
    from obspers.stepmodule import StepModule

    top = grid.max_corner()
    for s, chain in b.grades.items():
        if not any(all(x <= t for x, t in zip(g, top)) for g in chain):
            warnings.warn(
                f"grade of {s} lies beyond the grid; module truncated")
            break
    hom = OracleGradeHomology(b, k, p)
    F = hom.F
    dims = {}
    for g in grid.points():
        rep, _ = hom.at(grid.coords(g))
        dims[g] = rep.shape[1]
    steps = {}
    for (g, axis), h in grid.edges.items():
        rep_g, _ = hom.at(grid.coords(g))
        comp = hom.express(grid.coords(h), rep_g)
        if comp is None:
            raise ValidationError(
                "induced map solve failed; bifiltration is not monotone")
        steps[(g, axis)] = comp
    return StepModule(F, grid, dims, steps)


def oracle_vertex_perturbation_pair(cx, f_values, g_values, k, grid, p, eta):
    from obspers.calculus import anchored_morphism, union_grids
    from obspers.errors import ValidationError
    from obspers.metric import verify
    from obspers.pipelines import sublevel_bifiltration
    from obspers.stepmodule import _frac

    eta = _frac(eta)
    bf = sublevel_bifiltration(cx, f_values)
    bg = sublevel_bifiltration(cx, g_values)
    gap = max(abs(_frac(f_values[v][i]) - _frac(g_values[v][i]))
              for v in cx.vertices for i in range(bf.n_axes))
    if gap > eta:
        raise ValidationError(f"vertex values differ by {gap} > eta = {eta}")
    hom_f = OracleGradeHomology(bf, k, p)
    hom_g = OracleGradeHomology(bg, k, p)
    vmod = oracle_homology_module(bf, k, grid, p)
    wmod = oracle_homology_module(bg, k, grid, p)

    def induced(src_hom, src_mod, dst_hom, dst_mod):
        def comp(a_src, a_dst):
            if src_mod.dims[a_src] == 0:
                return None
            rep, _ = src_hom.at(src_mod.grid.coords(a_src))
            out = dst_hom.express(dst_mod.grid.coords(a_dst), rep)
            if out is None:
                raise ValidationError(
                    "perturbed cycle not representable at the anchored grade; "
                    "the grid must resolve eta (eta-spaced ticks), otherwise "
                    "anchoring rounds the eta-shift away")
            return out

        m_grid = union_grids(src_mod.grid, dst_mod.grid.translate(-eta))
        return anchored_morphism(src_mod, dst_mod, eta, m_grid, comp)

    fmor = induced(hom_f, vmod, hom_g, wmod)
    gmor = induced(hom_g, wmod, hom_f, vmod)
    wit = verify(vmod, wmod, eta, fmor, gmor)
    return vmod, wmod, wit


# ---------------------------------------------------------------------------
# The package's earlier distance bracket: the rank bound from a full scan of
# the candidates from the top, and the top candidate decided before the
# bisection.  distance_bracket must give the same bracket wherever this one
# has a finite upper bound or no candidate succeeds in either.
# ---------------------------------------------------------------------------

def oracle_distance_bracket(v, w, budget):
    from obspers import metric
    from obspers.errors import BudgetExceeded
    from obspers.metric import INF, DistanceBracket, candidate_set, decide

    metric._check_pair(v, w)
    if metric._eventual_dim(v) != metric._eventual_dim(w):
        return DistanceBracket(INF, INF, None, True,
                               {"reason": "eventual dimensions differ",
                                "rank_lower_bound": INF})
    cands = candidate_set(v, w)
    verdicts, rlb = {}, Fraction(0)
    for i in reversed(range(len(cands))):
        verdicts[i] = metric.rank_obstruction_at(v, w, cands[i])
        if verdicts[i] is not None:
            rlb = cands[i]
            break
    results = {}

    def dec(i):
        if i not in results:
            try:
                results[i] = decide(v, w, cands[i], budget=budget,
                                    _obstruction=verdicts.get(i, metric._UNKNOWN))
            except BudgetExceeded:
                results[i] = "budget"
        return results[i]

    lo, hi = 0, len(cands) - 1
    budget_gap = False
    top = dec(hi)
    if top == "budget" or top is None:
        largest_none = max((cands[i] for i, r in results.items() if r is None), default=None)
        lower = max([x for x in (rlb, largest_none) if x is not None] or [Fraction(0)])
        return DistanceBracket(lower, INF, None, False,
                               {"rank_lower_bound": rlb,
                                "largest_none_candidate": largest_none,
                                "smallest_success_candidate": None})
    while lo < hi:
        mid = (lo + hi) // 2
        r = dec(mid)
        if r == "budget":
            budget_gap = True
            lo = mid + 1
        elif r is None:
            lo = mid + 1
        else:
            hi = mid
    k = lo
    if k > 0 and (k - 1) not in results:
        dec(k - 1)
    witness = results[k]
    largest_none = max((cands[i] for i, r in results.items() if r is None), default=None)
    smallest_success = cands[k]
    pieces = [rlb]
    if largest_none is not None and largest_none == (cands[k - 1] if k else None) and not budget_gap:
        pieces.append(smallest_success)
    elif largest_none is not None:
        pieces.append(largest_none)
    if k == 0:
        pieces.append(Fraction(0))
    lower = max(pieces)
    exact = (lower == smallest_success) and not budget_gap
    return DistanceBracket(lower, smallest_success, witness, exact,
                           {"rank_lower_bound": rlb,
                            "largest_none_candidate": largest_none,
                            "smallest_success_candidate": smallest_success})
