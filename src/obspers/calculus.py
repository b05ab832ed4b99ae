"""Module calculus: shifts, refinement, restriction-extension, smoothing,
image-pair modules and their diagonal, and the persistent rank.

Several operations return their result together with explicit witness
morphisms (the smoothing pair, the discretization pair); those witnesses are
exactly the maps used in the corresponding existence proofs and they verify as
honest interleavings, which is what the tests check.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import ValidationError
from .stepmodule import (Grid, Morphism, StepModule, _exact, _frac, _freeze, _nonnegative,
                         _padded, _same_data, _source, _width, compose, ensure_valid,
                         factor_morphism, restrict_extend, same_axes, union_grids)

# restrict_extend is re-exported from here because refinement and
# discretization conceptually belong to the calculus layer.
__all__ = [
    "refine", "restrict_extend", "shift", "eta", "eta_on", "smooth",
    "image_pairs", "diagonal", "persistent_rank", "PairGridModule",
    "SmoothResult", "DiscretizationPair", "restrict_morphism",
    "shift_morphism", "modules_match", "compose_matched",
    "lattice_grid", "discretize", "restriction_pair", "mono_epi_report",
    "anchored_morphism",
]


def refine(v, grid):
    """Restriction-extension onto a refinement of v's grid.

    Every coordinate of v.grid must appear in grid; the result then evaluates
    identically to v at every rational point, and steps inside old cells are
    identities.
    """
    same_axes(v.grid, grid)
    for a in range(v.grid.n_axes):
        if not set(v.grid.axes[a]) <= set(grid.axes[a]):
            raise ValidationError(f"axis {a}: grid does not refine the module's grid")
    return restrict_extend(v, grid)


def shift(v, eps):
    """The shifted module V[eps]: same data on the grid translated by -eps,
    so the extension satisfies shift(v, eps)(s) = v(s + eps).

    eps may be negative (translation is a group action); the metric layer only
    ever asks for eps >= 0.  V[0] is v itself.  The copy shares v's dims,
    stack and path maps, which are keyed by grid indices, as its own; a v
    with bad shapes has no stack, and raises validate's message.
    """
    eps = _frac(eps)
    if not eps:
        return v
    out = StepModule._from_stack(v.field, v.grid.translate(-eps), v.dims, v._stack)
    out.__dict__.update(_paths=v._paths, _valid_if=v)  # see StepModule._violations
    return out


def anchored_morphism(x, y, eps, grid, comp):
    """The morphism restrict_extend(x, grid) -> restrict_extend(shift(y, eps),
    grid) whose component at q is comp(a, b), where a is the anchor of q in
    x's grid and b the anchor of q + eps in y's grid.  comp is called once
    per point where both anchors exist, in grid.points() order, its result
    written into the stack, which stays zero where a or b is None or comp
    returns None; a result of the wrong shape is a ValidationError."""
    eps = _frac(eps)
    source = restrict_extend(x, grid)
    target = restrict_extend(shift(y, eps), grid)
    s, t = source.dims, target.dims
    out = np.zeros((math.prod(grid.shape), _width(target), _width(source)), dtype=np.int64)
    for i, ((q, a), b) in enumerate(zip(x.grid.anchors_on(grid).items(),
                                        y.grid.anchors_on(grid, eps).values())):
        m = None if a is None or b is None else comp(a, b)
        if m is not None:
            out[i, :t[q], :s[q]] = _exact(m, (t[q], s[q]), "component at {}", q)
    return Morphism._from_stack(source, target, _freeze(out))


def _generator_anchors(first, second, x, s, total):
    """(q, a, b, d) for each generator grade q of x (StepModule._generators):
    a the anchor of q in first's grid, b that of q + s in second's grid and
    d that of q + total in x's grid, each None below its grid."""
    ends = [other.grid.anchor_indices(x.grid, delta)
            for other, delta in ((first, 0), (second, s), (x, total))]
    for q in x._generators:
        anchors = (tuple(axis[i] for axis, i in zip(end, q)) for end in ends)
        yield q, *(None if None in t else t for t in anchors)


def _triangle_holds(first, second, x, s, total):
    """True when second[s] o first and eta_total on x agree, for x a module
    (it passes validate), first and second natural, first's source equal to
    x and its target to second[s]'s source as extensions, and total >= 0.
    Builds no module or morphism.

    The generator argument.  Both sides are then natural maps ext(x) ->
    ext(x)[total].  At a grid index of x that is not a generator grade
    (StepModule._generators), x's space is spanned by the images of its
    predecessors' spaces under the unit steps into it, and two natural maps
    that agree at the predecessors agree on those images.  By induction in
    lexicographic order they agree at every grid index once they agree at
    the generator grades.  Off the grid a point's space is its anchor's
    under an identity structure map, or 0 below the grid, so naturality
    carries the agreement to all of R^n.

    At a generator grade q (_generator_anchors) the left side is second's
    component at b times first's at a, and the right side is x's structure
    map from q to d.  Where a or b is None the left side is zero, so eta
    must be zero too."""
    for q, a, b, d in _generator_anchors(first, second, x, s, total):
        want = x.path_map(q, d)
        if a is None or b is None:
            if np.any(want):
                return False
        elif not np.array_equal(x.field.matmul(second._component(b), first._component(a)), want):
            return False
    return True


def eta_on(v, eps, grid):
    """The shift morphism eta_eps: V -> V[eps] restricted-extended to the
    given grid: the component at q is the internal structure map of v from
    the anchor of q to the anchor of q + eps."""
    eps = _nonnegative(eps, "eta needs eps >= 0")
    return anchored_morphism(v, v, eps, grid, v.path_map)


def eta(v, eps):
    """eta_eps: V -> V[eps] on the common refinement of the two grids.
    eta(v, 0) is the identity."""
    eps = _frac(eps)
    grid = union_grids(v.grid, v.grid.translate(-eps)) if eps > 0 else v.grid
    return eta_on(v, eps, grid)


def restrict_morphism(m, grid):
    """Restriction-extension of a morphism: components are sampled at
    anchors, endpoints are the restricted-extended modules.  m itself when
    grid is m's grid, which by idempotence is the same data."""
    if grid == m.grid:
        return m
    return anchored_morphism(m.source, m.target, 0, grid, lambda a, b: m._component(a))


def shift_morphism(m, eps):
    """m[eps]: m's stack between the shifted endpoints."""
    return Morphism._from_stack(shift(m.source, eps), shift(m.target, eps), m._stack)


def modules_match(a, b):
    """True when the two modules have the same extension to R^n (exact data
    equality after restriction to the common refinement u).

    Decided with no restriction and no matrix compared, O(1) past the union
    of the grids' keys, when one of them is on u and restricted from a module
    with the other's data (or has that data itself, as shift copies do):
    restricting it to u leaves it as it is, and restricting the other to u
    rebuilds it, as restrict_extend is deterministic and modules never
    change.  Every other pair is restricted and compared."""
    if a.field != b.field or a.grid.n_axes != b.grid.n_axes:
        return False
    u = union_grids(a.grid, b.grid)
    if any(x.grid == u and _same_data(_source(x), y) for x, y in ((a, b), (b, a))):
        return True
    return restrict_extend(a, u) == restrict_extend(b, u)


def compose_matched(m2, m1):
    """m2 after m1 where the endpoints agree only up to extension: both are
    restricted to the common refinement first."""
    u = union_grids(m1.grid, m2.grid)
    r1 = restrict_morphism(m1, u)
    r2 = restrict_morphism(m2, u)
    if r1.target != r2.source:
        raise ValidationError("composition endpoints differ as extensions")
    return compose(r2, r1)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothResult:
    """S_eps V = im(eta_eps) together with the explicit interleaving pair:
    g includes S into V[eps], f corestricts the 2eps structure map of V onto
    S[eps].  (module, f, g) verify as an eps-interleaving of (V, S)."""

    module: StepModule
    f: Morphism
    g: Morphism
    eps: Fraction


def _smoothed(v, eps):
    """smooth's first step, for a rational eps >= 0: the smoothing S =
    im(eta_eps) of v and the inclusion g: S -> V[eps] as extensions, without
    the witness f that smooth builds on them."""
    return factor_morphism(eta(ensure_valid(v), eps))


def smooth(v, eps):
    """The eps-smoothing S = im(eta_eps) of v with its interleaving witnesses
    (SmoothResult).  v must pass validate: eta is natural only on a
    commuting module, so anything else raises ValidationError."""
    eps = _nonnegative(eps, "smooth needs eps >= 0")
    s, g = _smoothed(v, eps)
    big = s.grid
    # ambient anchor of S's value at each index tg, the image of the step from tg
    ambient = v.grid.anchors_on(big, eps)

    def comp(av, tg):
        if s.dims[tg] == 0:
            return None
        vec = v.path_map(av, ambient[tg])
        x = v.field.solve(g._component(tg), vec)
        if x is None:
            raise ValidationError("smoothing component left the image subspace")
        return x

    # f: V -> S[eps] on the refinement v.grid u (S.grid - eps)
    f = anchored_morphism(v, s, eps, union_grids(v.grid, big.translate(-eps)), comp)
    return SmoothResult(s, f, g, eps)


# ---------------------------------------------------------------------------
# Image pairs and the diagonal
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairGridModule:
    """A module over the poset of comparable grid point pairs {(p, q): p <= q}.

    Steps exist toward (p + e_i, q) whenever p + e_i <= q (kind 0) and toward
    (p, q + e_i) always (kind 1).  For image modules, kind-0 steps are
    injective and kind-1 steps are surjective.
    """

    field: object
    grid: Grid
    dims: dict
    steps: dict  # ((p, q), kind, axis) -> matrix


def _pairs(grid):
    pts = grid.points()
    return [(p, q) for p in pts for q in pts if all(x <= y for x, y in zip(p, q))]


def image_pairs(v):
    """The image functor applied to v: value at (p, q) is im(V_{p -> q}), with
    inclusion steps in p and corestricted structure maps in q.  v must pass
    validate, as V_{p -> q} is a path product, well defined only when v
    commutes; anything else raises ValidationError."""
    F = ensure_valid(v).field
    bases = {pq: F.column_space_basis(v.path_map(*pq)) for pq in _pairs(v.grid)}
    dims = {pq: b.shape[1] for pq, b in bases.items()}
    steps, edges = {}, v.grid.edges
    for (p, q), b in bases.items():
        for axis in range(v.grid.n_axes):
            p2 = edges.get((p, axis))
            if p2 is not None and all(x <= y for x, y in zip(p2, q)):
                x = F.solve(bases[(p2, q)], b)
                steps[((p, q), 0, axis)] = x
            q2 = edges.get((q, axis))
            if q2 is not None:
                x = F.solve(bases[(p, q2)], F.matmul(v.path_map(q, q2), b))
                steps[((p, q), 1, axis)] = x
    return PairGridModule(F, v.grid, dims, steps)


def _pair_move(grid, pq, kind, axis):
    p, q = pq
    if kind == 0:
        p2 = grid.edges.get((p, axis))
        if p2 is None or any(x > y for x, y in zip(p2, q)):
            return None
        return (p2, q)
    q2 = grid.edges.get((q, axis))
    return None if q2 is None else (p, q2)


def mono_epi_report(pm):
    """Violations of the structural law of image modules: kind-0 steps must be
    injective, kind-1 steps surjective, and all elementary squares commute."""
    F = pm.field
    out = []
    for ((p, q), kind, axis), m in pm.steps.items():
        r = F.rank(m)
        if kind == 0 and r != m.shape[1]:
            out.append(f"step at ({p},{q}) raising p on axis {axis} is not injective")
        if kind == 1 and r != m.shape[0]:
            out.append(f"step at ({p},{q}) raising q on axis {axis} is not surjective")
    moves = [(k, a) for k in (0, 1) for a in range(pm.grid.n_axes)]
    for pq in _pairs(pm.grid):
        for i, m1 in enumerate(moves):
            for m2 in moves[i + 1:]:
                a = _pair_move(pm.grid, pq, *m1)
                b = _pair_move(pm.grid, pq, *m2)
                if a is None or b is None:
                    continue
                ab = _pair_move(pm.grid, a, *m2)
                ba = _pair_move(pm.grid, b, *m1)
                if ab is None or ba is None or ab != ba:
                    continue
                one = F.matmul(pm.steps[(a, *m2)], pm.steps[(pq, *m1)])
                two = F.matmul(pm.steps[(b, *m1)], pm.steps[(pq, *m2)])
                if not np.array_equal(one, two):
                    out.append(f"pair square at {pq} moves {m1},{m2} does not commute")
    return out


def diagonal(pm):
    """Restriction of a pair module to the diagonal (p, p); for image modules
    this recovers the original module on the nose."""
    grid = pm.grid
    dims = {g: pm.dims[(g, g)] for g in grid.points()}
    steps = {(g, axis): pm.field.matmul(pm.steps[((g, h), 0, axis)], pm.steps[((g, g), 1, axis)])
             for (g, axis), h in grid.edges.items()}
    return StepModule(pm.field, grid, dims, steps)


def persistent_rank(v, eps):
    """sup over s of rank(V_s -> V_{s+eps}), a finite max over the points of
    the refinement grid u of v's grid and v's grid - eps: the anchors of s
    and of s + eps are constant on each cell of u, and V_s is 0 below u.
    The anchors of u's points, at 0 and at eps, are read point by point off
    the per-axis anchors of Grid.anchor_indices (which Grid.anchors_on pairs
    with the points); where the first is not None neither is the second, as
    eps >= 0.  The maps are zero-padded to one stack, which leaves their
    ranks as they are, and ranked by one reduce_stack.  v must pass
    validate, or ValidationError is raised: a rank read off anchored paths
    of a non-commuting module depends on the path."""
    eps = _nonnegative(eps, "persistent_rank needs eps >= 0")
    ensure_valid(v)
    grid = union_grids(v.grid, v.grid.translate(-eps)) if eps > 0 else v.grid
    ends = (product(*v.grid.anchor_indices(grid, delta)) for delta in (0, eps))
    maps = [v.path_map(a, b) for a, b in zip(*ends) if None not in a]
    if not maps:
        return 0
    d = _width(v)
    return int(v.field.reduce_stack(_padded(maps, d, d))[1].max())


# ---------------------------------------------------------------------------
# Discretization onto a lattice, with the explicit interleaving pair
# ---------------------------------------------------------------------------

def lattice_grid(eps, lo_corner, hi_corner):
    """The grid eps*Z^n clipped to the smallest lattice box containing
    [lo_corner, hi_corner]."""
    eps = _frac(eps)
    if eps <= 0:
        raise ValidationError("lattice spacing must be positive")
    axes = []
    for lo, hi in zip(lo_corner, hi_corner):
        lo, hi = _frac(lo), _frac(hi)
        start = eps * (lo / eps).__floor__()
        stop = eps * -((-hi / eps).__floor__())
        count = int((stop - start) / eps) + 1
        axes.append(tuple(start + k * eps for k in range(count)))
    return Grid(tuple(axes))


@dataclass(frozen=True)
class DiscretizationPair:
    """V_Q = restrict_extend(v, Q) with the density-proof interleaving:
    f_s = V_{s -> a_Q(s+eps)} and g_s = V_{a_Q(s) -> s+eps}, both realized on
    common refinements."""

    module: StepModule
    f: Morphism
    g: Morphism
    eps: Fraction
    grid: Grid


def restriction_pair(v, q_grid, eps):
    """The interleaving pair between v and its restriction-extension to
    q_grid, valid whenever q_grid is eps-dense over v's grid hull."""
    eps = _frac(eps)
    vq = restrict_extend(v, q_grid)
    on_v = v.grid.anchors_on(q_grid)  # anchor in v's grid of each q_grid index

    def f_comp(av, aq):
        tv = on_v[aq]
        if tv is None or any(x > y for x, y in zip(av, tv)):
            raise ValidationError("q_grid is not eps-dense over the module; no density morphism")
        return v.path_map(av, tv)

    def g_comp(aq, bv):
        sv = on_v[aq]
        return None if sv is None else v.path_map(sv, bv)

    # f: V -> V_Q[eps] and g: V_Q -> V[eps]
    f = anchored_morphism(v, vq, eps, union_grids(v.grid, q_grid.translate(-eps)), f_comp)
    g = anchored_morphism(vq, v, eps, union_grids(q_grid, v.grid.translate(-eps)), g_comp)
    return DiscretizationPair(vq, f, g, eps, q_grid)


def discretize(v, eps):
    """Snap v to the lattice eps*Z^n over its bounding box and return the
    restricted module with its eps-interleaving witness."""
    grid = lattice_grid(eps, v.grid.min_corner(), v.grid.max_corner())
    return restriction_pair(v, grid, eps)
