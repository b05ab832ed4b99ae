"""Bifiltration ingestion: simplicial complexes, lower-star sublevel and
Degree-Rips constructions, and grid homology over a prime field.

Grades are antichains of minimal entry points, one or more per simplex; a
simplex is present at s when some grade is componentwise at most s.  The
Degree-Rips degree axis is stored negated so both axes increase.
"""

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .fields import PrimeField
from .stepmodule import StepModule, _frac, _integer


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
    bad = validate_metric_space(m)
    if bad:
        raise ValidationError("; ".join(bad))
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


class _GradeHomology:
    """Per-grade cycle representatives in global chain coordinates, plus the
    boundary-spanning basis used to express incoming cycles."""

    def __init__(self, b, k, p):
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


def homology_module(b, k, grid, p):
    """dims(g) = dim H_k of the subcomplex present at g over F_p; steps are
    the inclusion-induced maps, computed by expressing image cycles in a
    boundary-plus-representative basis."""
    top = grid.max_corner()
    for s, chain in b.grades.items():
        if not any(all(x <= t for x, t in zip(g, top)) for g in chain):
            warnings.warn(
                f"grade of {s} lies beyond the grid; module truncated")
            break
    hom = _GradeHomology(b, k, p)
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


def vertex_perturbation_pair(cx, f_values, g_values, k, grid, p, eta):
    """Homology modules of two sublevel filtrations whose vertex values differ
    by at most eta in sup norm, with the explicit inclusion-induced
    eta-interleaving between them (returned as a verified Interleaving)."""
    from .calculus import anchored_morphism, union_grids
    from .metric import verify
    eta = _frac(eta)
    bf = sublevel_bifiltration(cx, f_values)
    bg = sublevel_bifiltration(cx, g_values)
    gap = max(abs(_frac(f_values[v][i]) - _frac(g_values[v][i]))
              for v in cx.vertices for i in range(bf.n_axes))
    if gap > eta:
        raise ValidationError(f"vertex values differ by {gap} > eta = {eta}")
    hom_f = _GradeHomology(bf, k, p)
    hom_g = _GradeHomology(bg, k, p)
    vmod = homology_module(bf, k, grid, p)
    wmod = homology_module(bg, k, grid, p)

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
