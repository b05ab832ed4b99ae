"""Bifiltration ingestion: simplicial complexes, lower-star sublevel and
Degree-Rips constructions, and grid homology over a prime field.

Grades are antichains of minimal entry points, one or more per simplex; a
simplex is present at s when some grade is componentwise at most s.  The
Degree-Rips degree axis is stored negated so both axes increase.  Every
grade coordinate is read through stepmodule._frac and n_axes through
_integer, so a float or a bool grade is a ValidationError.

Homology on grid indices.  homology_module never compares a grade with a
grid coordinate at a grid point.  Each grade is bisected once onto the
grid's integer keys (Grid._scaled): on an axis with denominator den and
keys k_0 < k_1 < ..., a grade coordinate x lies at or below k_i / den
exactly when x * den <= k_i, and as k_i is an integer, exactly when
ceil(x * den) <= k_i.  So the grade is present at index i on that axis
exactly when i >= c, its corner bisect_left(keys, ceil(x * den)), and at a
grid index q exactly when q is componentwise at least its corner tuple; a
corner equal to the axis length lies beyond the grid.  One boolean table
per chain dimension, (grid shape) x simplices, holds every simplex's
presence, and np.flatnonzero reads a point's simplices off it.  Each
point's cycle representatives are built once, keyed by grid index.

H_k for k >= 1 is an elimination per grid index (_GradeHomology): the
representatives are the columns of a kernel basis kern that are pivots of
[bd | kern], bd a basis of the boundaries of the present (k+1)-simplices
restricted to the present k-simplices, and a cycle's coordinates are the
last entries of the solution of [bd | reps] x = cycle.  For H_0, kern is
the identity on the present vertices in increasing order, and that
elimination's output is read off connected components instead
(_Components), byte for byte.  Link the present vertices by the present
edges with both ends present, and call a component dead when a present edge
has exactly one end present, and that end in it.  span(bd) is spanned by
e_b - e_a for each linking edge and by e_v for each such end v, so modulo
span(bd) the vertices of a component are all equal, those of a dead one
are 0, and the classes of the live components are a basis of the vectors
on the present vertices.
- e_v is a pivot of [bd | kern] exactly when it is not in span(bd) plus the
  span of the e_u with u < v present, that is, exactly when no smaller
  present vertex shares v's component and that component is live.  The
  pivots depend only on span(bd), not on the basis bd is.  So the
  representatives are e_m for m the smallest vertex of each live
  component, in increasing m.
- [bd | reps] has independent columns and spans the vectors on the present
  vertices, so the solve has a solution exactly when the cycle is zero at
  every absent vertex, and it is unique: the coordinate at e_m is the sum
  of the cycle's entries over m's component, mod p.  For the step g -> h,
  e_m minus e of the smallest vertex of m's component at h is a boundary
  at h, so the coordinates are that unit vector, or 0 when the component is
  dead; when m is absent at h there is no solution, and the bifiltration is
  not monotone.
"""

import bisect
import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, check
from .fields import PrimeField
from .stepmodule import (StepModule, _at_least, _find, _frac, _freeze, _integer, _ratio,
                         _zero)


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    simplices: tuple  # sorted vertex tuples, closed under faces

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "simplices",
                           tuple(tuple(s) for s in self.simplices))

    def of_dim(self, d):
        return [s for s in self.simplices if len(s) == d + 1]

    @property
    def top_dim(self):
        return max((len(s) - 1 for s in self.simplices), default=-1)


def validate_complex(k):
    out = []
    seen = set()
    vset = set(k.vertices)
    for s in k.simplices:
        if tuple(sorted(s)) != s:
            out.append(f"simplex {s} is not sorted")
        if s in seen:
            out.append(f"duplicate simplex {s}")
        seen.add(s)
        for v in s:
            if v not in vset:
                out.append(f"simplex {s} uses unknown vertex {v}")
    for s in k.simplices:
        if len(s) > 1:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face not in seen:
                    out.append(f"face {face} of {s} is missing")
    return out


def complex_from_simplices(simplices):
    """Close the given simplices under faces and collect the vertex set."""
    closed = set()
    stack = [tuple(sorted(s)) for s in simplices]
    while stack:
        s = stack.pop()
        if s in closed or not s:
            continue
        closed.add(s)
        if len(s) > 1:
            for i in range(len(s)):
                stack.append(s[:i] + s[i + 1:])
    vertices = sorted({v for s in closed for v in s})
    return SimplicialComplex(tuple(vertices),
                             tuple(sorted(closed, key=lambda s: (len(s), s))))


@dataclass(frozen=True)
class Bifiltration:
    """grades[simplex] is a nonempty antichain of minimal entry vectors; the
    simplex is present at s when some entry vector is <= s componentwise."""

    complex: SimplicialComplex
    grades: dict
    n_axes: int = 2

    def __post_init__(self):
        object.__setattr__(self, "n_axes", _integer(self.n_axes, "n_axes"))
        object.__setattr__(self, "grades", {
            s: tuple(tuple(_frac(x) for x in g) for g in chain)
            for s, chain in self.grades.items()})

    def present_at(self, simplex, s):
        return any(all(x <= y for x, y in zip(g, s))
                   for g in self.grades[simplex])


def validate_bifiltration(b):
    out = validate_complex(b.complex)
    for s in b.complex.simplices:
        if s not in b.grades or not b.grades[s]:
            out.append(f"simplex {s} has no grades")
            continue
        for g in b.grades[s]:
            if len(g) != b.n_axes:
                out.append(f"grade {g} of {s} has wrong arity")
    if out:
        return out
    for s in b.complex.simplices:
        if len(s) == 1:
            continue
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            for g in b.grades[s]:
                if not b.present_at(face, g):
                    out.append(
                        f"monotonicity: face {face} absent at grade {g} of {s}")
    return out


@dataclass(frozen=True)
class FiniteMetricSpace:
    points: tuple
    distances: tuple  # square matrix of Fractions, rows as tuples

    def d(self, i, j):
        return self.distances[i][j]

    @property
    def n(self):
        return len(self.points)


def validate_metric_space(m):
    """Hard violations only; triangle-inequality failures are warnings
    because pseudometrics are admissible inputs."""
    out = []
    n = m.n
    if len(m.distances) != n or any(len(r) != n for r in m.distances):
        out.append("distance matrix shape mismatch")
        return out
    for i in range(n):
        if m.distances[i][i] != 0:
            out.append(f"nonzero diagonal at {i}")
        for j in range(n):
            if m.distances[i][j] != m.distances[j][i]:
                out.append(f"asymmetry at ({i},{j})")
            if m.distances[i][j] < 0:
                out.append(f"negative distance at ({i},{j})")
    if not out:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if m.d(i, j) > m.d(i, k) + m.d(k, j):
                        warnings.warn(
                            f"triangle inequality fails at ({i},{j},{k}); "
                            "treating input as a pseudometric")
                        return out
    return out


def metric_space(points, distances):
    m = FiniteMetricSpace(tuple(points),
                          tuple(tuple(_frac(x) for x in row) for row in distances))
    check(validate_metric_space(m))
    return m


# ---------------------------------------------------------------------------
# Bifiltration constructions
# ---------------------------------------------------------------------------

def sublevel_bifiltration(k, values):
    """Lower-star: the grade of a simplex is the componentwise max of its
    vertex values."""
    missing = [v for v in k.vertices if v not in values]
    if missing:
        raise ValidationError(f"vertices without values: {missing}")
    vals = {v: tuple(_frac(x) for x in values[v]) for v in k.vertices}
    arities = {len(v) for v in vals.values()}
    if len(arities) != 1:
        raise ValidationError("vertex values must share one arity")
    n_axes = arities.pop()
    grades = {}
    for s in k.simplices:
        grade = tuple(max(vals[v][i] for v in s) for i in range(n_axes))
        grades[s] = (grade,)
    return Bifiltration(k, grades, n_axes)


def degree_rips(m, radii, degrees, max_dim=2):
    """Degree-Rips: a vertex is present at (r, -k) once it has at least k
    neighbors (other points) within distance r, i.e. its degree in the
    r-Rips graph; a higher simplex needs all vertices present and diameter
    at most r.  Grades are antichains because the admissible degree grows
    with r."""
    if not radii or not degrees:
        raise ValidationError("radii and degrees must be nonempty")
    max_dim = _at_least(max_dim, 0, "max_dim")
    radii = sorted({_frac(r) for r in radii})
    degrees = sorted({_integer(k, "degree") for k in degrees})
    n = m.n
    deg = {(i, r): sum(1 for j in range(n) if j != i and m.d(i, j) <= r)
           for i in range(n) for r in radii}

    def best_threshold(limit):
        ok = [k for k in degrees if k <= limit]
        return max(ok) if ok else None

    simplices = []
    grades = {}
    for size in range(1, max_dim + 2):
        for combo in itertools.combinations(range(n), size):
            diam = max((m.d(i, j) for i in combo for j in combo),
                       default=Fraction(0))
            chain = []
            prev = None
            for r in radii:
                if diam > r:
                    continue
                k_star = best_threshold(min(deg[(i, r)] for i in combo))
                if k_star is None or (prev is not None and k_star <= prev):
                    continue
                chain.append((r, Fraction(-k_star)))
                prev = k_star
            if chain:
                simplices.append(combo)
                grades[combo] = tuple(chain)
    cx = SimplicialComplex(tuple(range(n)),
                           tuple(sorted(simplices, key=lambda s: (len(s), s))))
    return Bifiltration(cx, grades, 2)


# ---------------------------------------------------------------------------
# Homology of a bifiltration on a grid
# ---------------------------------------------------------------------------

def _boundary_matrix(F, rows_simplices, cols_simplices):
    row_index = {s: i for i, s in enumerate(rows_simplices)}
    mat = F.zeros(len(rows_simplices), len(cols_simplices))
    for c, s in enumerate(cols_simplices):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            r = row_index.get(face)
            if r is not None:
                mat[r, c] = 1 if i % 2 == 0 else F.p - 1
    return mat


def _corners(b, grid):
    """{simplex: the corners on grid of its grades}, in b.grades order.  Per
    axis a grade's corner is the first grid index whose coordinate is at
    least the grade's, the axis length when there is none (the argument is
    in the module docstring).  A simplex without grades gets the corner of
    the grid's shape, which no grid index reaches.  A grade with another
    number of coordinates than the grid has axes is a ValidationError, and
    a simplex none of whose corners lies on the grid is warned of."""
    scaled, shape = grid._scaled, grid.shape
    out = {}
    for s, chain in b.grades.items():
        corners = []
        for g in chain:
            if len(g) != len(scaled):
                raise ValidationError(f"grade {g} of {s} has {len(g)} coordinates "
                                      f"on a {len(scaled)}-axis grid")
            corner = []
            for (den, keys), x in zip(scaled, g):
                n, d = _ratio(x)
                corner.append(bisect.bisect_left(keys, -(-n * den // d)))
            corners.append(tuple(corner))
        out[s] = tuple(corners) or (shape,)
    for s, cs in out.items():
        if not any(all(c < n for c, n in zip(corner, shape)) for corner in cs):
            warnings.warn(f"grade of {s} lies beyond the grid; module truncated")
            break
    return out


def _presence(grid, corners):
    """The boolean table (grid shape) x simplices, True where the simplex is
    present: corners holds, per simplex, the corners of its grades."""
    shape = grid.shape
    counts = [len(c) for c in corners]
    flat = np.array([c for cs in corners for c in cs], dtype=np.intp).reshape(-1, len(shape))
    hit = np.ones(shape + (len(flat),), dtype=bool)
    for a, n in enumerate(shape):
        axis = np.arange(n).reshape((1,) * a + (n,) + (1,) * (len(shape) - a))
        hit &= axis >= flat[:, a]
    if len(flat) == len(corners):
        return hit
    starts = np.cumsum([0] + counts[:-1])
    return np.logical_or.reduceat(hit, starts, axis=-1)


def _labels(present, edges):
    """(mins, cls) at one grid index, from present, whether each vertex is
    present, and edges, the (a, c) ends of the present edges, None for an end
    that is no vertex of the complex: the components are those of the
    present vertices linked by the edges with both ends present, a component
    is dead when an edge has one end present and that end in it, mins lists
    the smallest vertex of each live component in increasing order, and
    cls[v] is the position in mins of v's component, -1 when it is dead, None
    when v is absent.  The union-find keeps the smallest vertex as a root."""
    parent = list(range(len(present)))
    killed = []
    for a, c in edges:
        on_a = a is not None and present[a]
        on_c = c is not None and present[c]
        if on_a and on_c:
            ra, rc = _find(parent, a), _find(parent, c)
            parent[max(ra, rc)] = min(ra, rc)
        elif on_a or on_c:
            killed.append(a if on_a else c)
    dead = {_find(parent, v) for v in killed}
    mins, cls = [], []
    for v, on in enumerate(present):
        root = _find(parent, v) if on else None
        if root is None:
            cls.append(None)
        elif root in dead:
            cls.append(-1)
        elif root == v:
            cls.append(len(mins))
            mins.append(v)
        else:
            cls.append(cls[root])
    return mins, cls


class _Components:
    """H_0 on the grid from the connected components at each grid index (the
    argument is in the module docstring): labels[g] is _labels' (mins, cls)
    at g, and the basis at g is e_m for m in mins.  Building it warns when
    some simplex has no grade on the grid."""

    def __init__(self, b, grid, p):
        self.F = PrimeField(p)
        self.grid = grid
        corners = _corners(b, grid)
        vertices, edges = b.complex.of_dim(0), b.complex.of_dim(1)
        index = {s: i for i, s in enumerate(vertices)}
        # an edge's boundary is nonzero at those of its faces that are
        # vertices; the boundary of an edge (v, v) is -e_v, one face only
        ends = []
        for s in edges:
            a, c = index.get(s[:1]), index.get(s[1:])
            ends.append((a, None if c == a else c))
        points = grid.points()
        present, linked = (
            _presence(grid, [corners[s] for s in simp]).reshape(len(points), len(simp))
            for simp in (vertices, edges))
        self.labels = {g: _labels(on, [e for e, live in zip(ends, row) if live])
                       for g, on, row in zip(points, present.tolist(), linked.tolist())}

    def reps(self, q):
        """The basis at the grid index q as global chain columns."""
        mins, cls = self.labels[q]
        out = self.F.zeros(len(cls), len(mins))
        out[mins, range(len(mins))] = 1
        return out

    def express(self, q, cycles):
        """Coordinates of the given global cycle columns in the basis at the
        grid index q, as a read-only matrix: each column's entries summed
        over each live component, mod p.  None when some column is nonzero
        at a vertex absent at q."""
        mins, cls = self.labels[q]
        cls = np.array([-2 if c is None else c for c in cls], dtype=np.intp)
        if np.any(cycles[cls == -2]):
            return None
        member = (np.arange(len(mins))[:, None] == cls).astype(np.int64)
        return _freeze(member @ cycles % self.F.p)

    def module(self):
        """The StepModule of H_0 on the grid, built as one stack: the step g
        -> h sends e_m to the class of m's component at h, and to 0 when that
        component is dead."""
        grid, labels = self.grid, self.labels
        dims = {g: len(labels[g][0]) for g in grid.points()}
        hits = []
        for i, ((g, _), h) in enumerate(grid.edges.items()):
            cls = labels[h][1]
            for j, m in enumerate(labels[g][0]):
                if cls[m] is None:
                    raise ValidationError(
                        "induced map solve failed; bifiltration is not monotone")
                if cls[m] >= 0:
                    hits.append((i, cls[m], j))
        width = max(dims.values(), default=0)
        stack = np.zeros((len(grid.edges), width, width), dtype=np.int64)
        if hits:
            stack[tuple(np.array(hits).T)] = 1
        return StepModule._from_stack(self.F, grid, dims, _freeze(stack))


class _GradeHomology:
    """Per grid index, cycle representatives of H_k, k >= 1, in global chain
    coordinates, plus the boundary-spanning basis used to express incoming
    cycles.  Building it warns when some simplex has no grade on the grid."""

    def __init__(self, b, k, grid, p):
        self.F = PrimeField(p)
        self.grid = grid
        corners = _corners(b, grid)
        self.simp_k = b.complex.of_dim(k)
        self.simp_lo = b.complex.of_dim(k - 1)
        self.simp_hi = b.complex.of_dim(k + 1)
        self.full_lo = _boundary_matrix(self.F, self.simp_lo, self.simp_k)
        self.full_hi = _boundary_matrix(self.F, self.simp_k, self.simp_hi)
        self.lo, self.mid, self.hi = (
            _presence(grid, [corners[s] for s in simp])
            for simp in (self.simp_lo, self.simp_k, self.simp_hi))
        self.cache = {}

    def at(self, q):
        """(reps, span) at the grid index q: reps columns generate H_k,
        span = [boundary basis | reps] spans the cycle space."""
        out = self.cache.get(q)
        if out is not None:
            return out
        F = self.F
        nk = len(self.simp_k)
        idx_k = np.flatnonzero(self.mid[q])
        if not len(idx_k):
            out = self.cache[q] = (F.zeros(nk, 0), F.zeros(nk, 0))
            return out
        idx_lo = np.flatnonzero(self.lo[q])
        local = (self.full_lo[np.ix_(idx_lo, idx_k)] if len(idx_lo)
                 else F.zeros(0, len(idx_k)))
        kern_local = F.kernel_basis(local)
        kern = F.zeros(nk, kern_local.shape[1])
        kern[idx_k, :] = kern_local
        idx_hi = np.flatnonzero(self.hi[q])
        if len(idx_hi):
            bd = F.zeros(nk, len(idx_hi))
            bd[idx_k, :] = self.full_hi[np.ix_(idx_k, idx_hi)]
            bd = F.column_space_basis(bd)
        else:
            bd = F.zeros(nk, 0)
        stacked = np.concatenate([bd, kern], axis=1)
        _, _, pivots = F.reduce(stacked)
        chosen = [j - bd.shape[1] for j in pivots if j >= bd.shape[1]]
        rep = kern[:, chosen] if chosen else F.zeros(nk, 0)
        out = self.cache[q] = (rep, np.concatenate([bd, rep], axis=1))
        return out

    def reps(self, q):
        return self.at(q)[0]

    def express(self, q, cycles):
        """Coordinates of the given global cycle columns in the homology
        basis at the grid index q, as a read-only matrix; None when some
        column is not a cycle there."""
        rep, span = self.at(q)
        d = rep.shape[1]
        if cycles.shape[1] == 0 or span.shape[1] == 0:
            if span.shape[1] == 0 and cycles.size and np.any(cycles):
                return None
            return _zero((d, cycles.shape[1]))
        sol = self.F.solve(span, cycles)
        if sol is None:
            return None
        return _freeze(sol[span.shape[1] - d:, :] % self.F.p)

    def module(self):
        """The StepModule of H_k on the grid, built as one stack: dims from
        the representatives, steps by expressing each point's
        representatives at its successor."""
        grid = self.grid
        dims = {g: self.reps(g).shape[1] for g in grid.points()}
        width = max(dims.values())
        stack = np.zeros((len(grid.edges), width, width), dtype=np.int64)
        for block, ((g, _), h) in zip(stack, grid.edges.items()):
            comp = self.express(h, self.reps(g))
            if comp is None:
                raise ValidationError(
                    "induced map solve failed; bifiltration is not monotone")
            block[:dims[h], :dims[g]] = comp
        return StepModule._from_stack(self.F, grid, dims, _freeze(stack))


def _homology(b, k, grid, p):
    """H_k of b on grid, from components for k = 0 and by elimination above;
    a degree that is not an integer of at least 0 is a ValidationError."""
    k = _at_least(k, 0, "homology degree")
    return _GradeHomology(b, k, grid, p) if k else _Components(b, grid, p)


def homology_module(b, k, grid, p):
    """dims(g) = dim H_k of the subcomplex present at g over F_p; steps are
    the inclusion-induced maps: for k = 0 read off connected components, for
    k >= 1 computed by expressing image cycles in a boundary-plus-
    representative basis.  Warns when some simplex has no grade on the
    grid."""
    return _homology(b, k, grid, p).module()


def vertex_perturbation_pair(cx, f_values, g_values, k, grid, p, eta):
    """Homology modules of two sublevel filtrations whose vertex values differ
    by at most eta in sup norm, with the explicit inclusion-induced
    eta-interleaving between them (returned as a verified Interleaving).
    Each filtration's homology is computed once, on grid, and the
    interleaving reads its representatives by grid index."""
    from .calculus import anchored_morphism, union_grids
    from .metric import verify
    eta = _frac(eta)
    bf = sublevel_bifiltration(cx, f_values)
    bg = sublevel_bifiltration(cx, g_values)
    gap = max(abs(_frac(f_values[v][i]) - _frac(g_values[v][i]))
              for v in cx.vertices for i in range(bf.n_axes))
    if gap > eta:
        raise ValidationError(f"vertex values differ by {gap} > eta = {eta}")
    hom_f, hom_g = _homology(bf, k, grid, p), _homology(bg, k, grid, p)
    vmod, wmod = hom_f.module(), hom_g.module()
    m_grid = union_grids(grid, grid.translate(-eta))

    def induced(src_hom, src_mod, dst_hom, dst_mod):
        def comp(a_src, a_dst):
            if src_mod.dims[a_src] == 0:
                return None
            out = dst_hom.express(a_dst, src_hom.reps(a_src))
            if out is None:
                raise ValidationError(
                    "perturbed cycle not representable at the anchored grade; "
                    "the grid must resolve eta (eta-spaced ticks), otherwise "
                    "anchoring rounds the eta-shift away")
            return out

        return anchored_morphism(src_mod, dst_mod, eta, m_grid, comp)

    fmor = induced(hom_f, vmod, hom_g, wmod)
    gmor = induced(hom_g, wmod, hom_f, vmod)
    wit = verify(vmod, wmod, eta, fmor, gmor)
    return vmod, wmod, wit
