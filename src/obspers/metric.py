"""Interleaving verification, exact epsilon-interleaving decision, and
two-sided interleaving-distance bracketing.

decide enumerates one morphism's coefficient space exhaustively (whichever
Hom space is smaller) and solves the triangle identities, which are linear in
the other morphism, exactly.  Certified absence therefore requires completing
the enumeration; running out of budget raises instead of reporting "none".

All epsilons are rational.  Infinite distance (detectable from the eventual
dimensions) is reported with an infinity marker used only for comparisons.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from itertools import islice, product
from numbers import Rational

import numpy as np

from .calculus import (_generator_anchors, _triangle_holds, modules_match,
                       restrict_extend, shift)
from .errors import BudgetExceeded, ValidationError
from .stepmodule import (_CHUNK_CELLS, DEFAULT_BUDGET, Morphism, _blocks, _frac,
                         coefficient_vectors, hom_rows, linear_combination, union_grids,
                         validate_morphism)


@total_ordering
class _Infinity:
    """The infinite distance: above every rational and equal only to itself.
    It is only ever compared, never computed with, and serializes as "inf"."""

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        return "INF"  # copies and pickles are the one instance

    def __hash__(self):
        return hash("inf")

    def __eq__(self, other):
        return other is self

    def __lt__(self, other):
        return False if isinstance(other, (Rational, _Infinity)) else NotImplemented


INF = _Infinity()

def _check_comparable(v, w):
    """Raise ValidationError unless v and w share their field and their
    number of axes, which every comparison of the two needs."""
    if v.field != w.field:
        raise ValidationError(f"field mismatch: p={v.field.p} vs p={w.field.p}")
    if v.grid.n_axes != w.grid.n_axes:
        raise ValidationError(f"axis count mismatch: {v.grid.n_axes} vs {w.grid.n_axes}")


@dataclass(frozen=True)
class Interleaving:
    """An eps-interleaving candidate (f: V -> W[eps], g: W -> V[eps]); when
    verified, both triangle identities hold exactly."""

    eps: Fraction
    f: Morphism
    g: Morphism
    verified: bool
    violations: tuple = ()


def _not_modules(v, w):
    """"V is not a module" and "W is not a module", each with the first
    violation validate finds, for those of v and w that fail it."""
    return [f"{name} is not a module: {x._violations[0]}"
            for name, x in (("V", v), ("W", w)) if x._violations]


def verify(v, w, eps, f, g):
    """Check that V and W are modules, then shapes, naturality and both
    triangle identities exactly.

    Returns an Interleaving whose verified flag is the outcome; violations
    name the first failing constraint of each kind.  A module that fails
    validate is named first ("V is not a module: square at ... does not
    commute"), and no triangle is checked then: eta is natural only on a
    module, and the triangle check below needs it.

    The endpoint checks are O(1) where an endpoint is a restriction of the
    module it should match (or of a shift copy of it) onto a grid that
    refines that module's grid, as the witnesses of discretize, smooth,
    restriction_pair and decide are built: restricting again would rebuild
    the same data (see calculus.modules_match).  Other endpoints are
    restricted and compared.

    The triangles are checked once V and W are modules, the four endpoints
    match and f and g are natural, and without building a composite.  Take
    g[eps] o f = eta_2eps on V; the other triangle swaps the roles.  Both
    sides are then natural maps ext(V) -> ext(V)[2eps], and two natural maps
    out of V agree as soon as they agree at its generator grades, the grid
    indices where V is not spanned by the images of its predecessors
    (StepModule._generators).  So calculus._triangle_holds compares g's
    component at the anchor of q + eps times f's at the anchor of q with V's
    structure map from q to the anchor of q + 2eps at those grades q only,
    which is exact (its docstring holds the argument).
    """
    eps = _frac(eps)
    if eps < 0:
        raise ValidationError("interleaving eps must be >= 0")
    out = _not_modules(v, w)
    if not modules_match(f.source, v):
        out.append("f's source is not V")
    if not modules_match(f.target, shift(w, eps)):
        out.append("f's target is not W[eps]")
    if not modules_match(g.source, w):
        out.append("g's source is not W")
    if not modules_match(g.target, shift(v, eps)):
        out.append("g's target is not V[eps]")
    for name, m in (("f", f), ("g", g)):
        for viol in validate_morphism(m):
            out.append(f"{name}: {viol}")
    if not out:
        for first, second, x, name in ((f, g, v, "g[eps] o f != eta_2eps on V"),
                                       (g, f, w, "f[eps] o g != eta_2eps on W")):
            if not _triangle_holds(first, second, x, eps, 2 * eps):
                out.append(f"triangle {name}")
    return Interleaving(eps, f, g, not out, tuple(out))


# One direction x -> y[eps] of an interleaving: its Hom space between the
# restrictions of x and y[eps] to grid, with a basis flattened in rows.
_Side = namedtuple("_Side", "module grid source target rows")


def _side(x, y, eps):
    grid = union_grids(x.grid, y.grid.translate(-eps))
    source = restrict_extend(x, grid)
    target = restrict_extend(shift(y, eps), grid)
    return _Side(x, grid, source, target, hom_rows(source, target))


def _triangle(first, second, eps):
    """The triangle second[eps] o first = eta_2eps on x = first.module, in
    coordinates: tensor[i, j] flattens second_j[eps] o first_i over the two
    bases, and rhs flattens eta_2eps, one block per generator grade q of x
    with its anchors a, b and d (calculus._generator_anchors), as in
    calculus._triangle_holds.  The left block is the product of the basis
    components at a and b, each stacked as one (h, r, c) view of the side's
    rows, so one product serves all basis pairs; the right block is x's
    structure map from q to d.  a and b are never None, as the sides' grids
    refine x's grid and its translate by -eps.

    The blocks at the other points of the common grid are left out, and the
    system keeps its row space.  For any coefficients (z, z0), sum_ij z_ij
    second_j[eps] o first_i - z0 eta_2eps is natural out of x (the basis
    elements are natural and x is a module), so it vanishes everywhere as
    soon as it vanishes at the generator grades.  A row of the full system
    is a linear functional of (z, z0) that vanishes wherever the generator
    rows all do, so it lies in their span."""
    x, h1, h2 = first.module, len(first.rows), len(second.rows)
    first_stack = _blocks(first.source, first.target, first.rows)
    second_stack = _blocks(second.source, second.target, second.rows)
    tensor, rhs = [np.zeros((h1, h2, 0), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for q, a, b, d in _generator_anchors(first, second, x, eps, 2 * eps):
        prod = second_stack[b][None] @ first_stack[a][:, None]  # (h1, h2, r, c)
        tensor.append(prod.reshape(h1, h2, prod.shape[2] * prod.shape[3]) % x.field.p)
        rhs.append(x.path_map(q, d).reshape(-1))
    return np.concatenate(tensor, axis=2), np.concatenate(rhs)


# decide's default for a rank-obstruction verdict it has not been given.
_UNKNOWN = object()


def decide(v, w, eps, budget=DEFAULT_BUDGET, *, _obstruction=_UNKNOWN):
    """A verified eps-interleaving of (v, w), or None when none exists at this
    exact eps.  Both Hom spaces are computed once; the coefficient space of
    the smaller one (f's on ties) is enumerated, and for each candidate the
    triangle identities, which are linear in the other morphism, are solved
    exactly.  Certified absence therefore means the enumeration completed;
    BudgetExceeded is raised when it would be larger than budget, before any
    triangle is built, so an exhausted budget costs only the two Hom bases.
    v and w must share their field and their number of axes, and both must
    be modules (pass validate): anything else raises ValidationError.

    The triangles (_triangle) hold one block of equations per generator
    grade of the module each starts from, not one per point.  The rows left
    out lie in the span of the others (_triangle holds the argument), so the
    stacked system has the full system's row space and so its unique reduced
    form: every candidate, solution and witness is the one the full system
    gives.  For the enumerated coefficients c (length h) and the other
    side's x (length k) there is one equation per row e:
    sum_ij c_i T[e, i, j] x_j = rhs_e.  The rows [T[e] | rhs_e] of the stacked
    system B (equations x (h*k + 1)) are reduced once; a candidate's
    augmented system [sum_i c_i T[:, i, :] | rhs] is B @ L(c) for a fixed
    linear map L(c), so its row space is that of R @ L(c), R the nonzero rows
    of B's reduced form.  F.solve reads only the reduced row echelon form,
    which is determined by the row space, so solving the at most h*k + 1 rows
    of R @ L(c) gives the same particular solution, and None exactly when the
    full system has none.

    Candidates are read in lexicographic order, in chunks of at most
    _CHUNK_CELLS matrix entries, and F.reduce_stack reduces a whole chunk's
    augmented systems at once.  The answer is the same as solving every
    candidate in turn: a system is consistent exactly when its reduced row
    echelon form, which is unique, has no pivot in the augmented column, the
    test F.solve makes on the same form.  So the candidates kept are
    precisely those for which F.solve returns a solution; they are taken in
    the same order and given to the same F.solve on the same matrix, and the
    first whose pair verifies is returned.  The candidates dropped are those
    F.solve would reject, which never reach verify.

    _obstruction is private: distance_bracket passes the verdict of
    rank_obstruction_at(v, w, eps) when its rank scan already has it."""
    _check_comparable(v, w)
    if bad := _not_modules(v, w):
        raise ValidationError("; ".join(bad))
    eps = _frac(eps)
    if eps < 0:
        raise ValidationError("decide needs eps >= 0")
    if _obstruction is _UNKNOWN:
        _obstruction = rank_obstruction_at(v, w, eps)
    if _obstruction is not None:
        return None  # a rank inequality proves impossibility outright
    f_side, g_side = _side(v, w, eps), _side(w, v, eps)
    flip = len(g_side.rows) < len(f_side.rows)
    enum, other = (g_side, f_side) if flip else (f_side, g_side)
    F = v.field
    h, k = len(enum.rows), len(other.rows)
    cands = coefficient_vectors(F.p, h, budget,
                                "Hom(W, V[eps])" if flip else "Hom(V, W[eps])")
    # the triangle on enum's module first, then the one on other's
    t1, rhs1 = _triangle(enum, other, eps)
    t2, rhs2 = _triangle(other, enum, eps)
    t = np.concatenate([t1, t2.transpose(1, 0, 2)], axis=2)
    system = np.concatenate([t.reshape(h * k, t.shape[2]),
                             np.concatenate([rhs1, rhs2])[None]]).T
    rref, rank, _ = F.reduce(system)
    coeffs, rhs = rref[:rank, :-1].reshape(rank, h, k), rref[:rank, -1:]
    size = max(1, _CHUNK_CELLS // max(1, rank * (k + 1)))
    while chunk := list(islice(cands, size)):
        c = np.array(chunk, dtype=np.int64)
        systems = np.concatenate([np.tensordot(c, coeffs, axes=(1, 1)) % F.p,
                                  np.broadcast_to(rhs, (len(chunk), rank, 1))], axis=2)
        for i in np.flatnonzero(~F.reduce_stack(systems)[2][:, -1]):
            sol = F.solve(systems[i, :, :-1], rhs)
            pair = (linear_combination(enum.source, enum.target, enum.rows, c[i]),
                    linear_combination(other.source, other.target, other.rows, sol[:, 0]))
            f, g = pair[::-1] if flip else pair
            result = verify(v, w, eps, f, g)
            if result.verified:
                return result
    return None


# ---------------------------------------------------------------------------
# Rank obstructions and distance brackets
# ---------------------------------------------------------------------------

def _eventual_dim(v):
    top = tuple(n - 1 for n in v.grid.shape)
    return v.dims[top]


def _one_sided_rank_violation(v, w, eps):
    """First (s, t) with rk V_{s -> t+2eps} > rk W_{s+eps -> t+eps}, scanning
    cell representatives s <= t of the joint refinement in lexicographic
    order, or None."""
    F = v.field
    grid = union_grids(v.grid, v.grid.translate(-2 * eps), w.grid.translate(-eps))
    pts = grid.points()
    av = v.grid.anchors_on(grid)
    av2 = v.grid.anchors_on(grid, 2 * eps)
    aw1 = w.grid.anchors_on(grid, eps)
    rank_v, rank_w = {}, {}
    for s in pts:
        if av[s] is None:
            continue
        for t in product(*(range(i, n) for i, n in zip(s, grid.shape))):
            key = (av[s], av2[t])
            if key not in rank_v:
                rank_v[key] = F.rank(v.path_map(*key))
            rv = rank_v[key]
            if rv == 0:
                continue
            if aw1[s] is None:
                return (grid.coords(s), grid.coords(t))
            wkey = (aw1[s], aw1[t])
            if wkey not in rank_w:
                rank_w[wkey] = w.field.rank(w.path_map(*wkey))
            if rv > rank_w[wkey]:
                return (grid.coords(s), grid.coords(t))
    return None


def rank_obstruction_at(v, w, eps):
    """A human-readable witness that no eps-interleaving can exist, from the
    functorial rank inequalities; None when no inequality is violated."""
    _check_comparable(v, w)
    eps = _frac(eps)
    hit = _one_sided_rank_violation(v, w, eps)
    if hit is not None:
        return f"rank(V_(s -> t+2e)) > rank(W_(s+e -> t+e)) at s={hit[0]}, t={hit[1]}, e={eps}"
    hit = _one_sided_rank_violation(w, v, eps)
    if hit is not None:
        return f"rank(W_(s -> t+2e)) > rank(V_(s+e -> t+e)) at s={hit[0]}, t={hit[1]}, e={eps}"
    return None


def candidate_set(v, w):
    """Critical shift candidates: all axiswise coordinate differences between
    the grids, same-grid differences and their halves, and 0."""
    cands = {Fraction(0)}
    for axis in range(v.grid.n_axes):
        cv = v.grid.axes[axis]
        cw = w.grid.axes[axis]
        for a in cv:
            for b in cw:
                cands.add(abs(a - b))
        for cs in (cv, cw):
            for i, a in enumerate(cs):
                for b in cs[i + 1:]:
                    cands.add(b - a)
                    cands.add((b - a) / 2)
    return sorted(cands)


def rank_lower_bound(v, w):
    """The largest candidate eps at which a rank inequality is violated (so
    d_I > eps there), 0 when none is, or INF when the eventual dimensions
    differ (no interleaving at any shift)."""
    _check_comparable(v, w)
    if _eventual_dim(v) != _eventual_dim(w):
        return INF
    return _rank_scan(v, w, candidate_set(v, w))[0]


def _rank_scan(v, w, cands):
    """rank_lower_bound's scan of the sorted candidates cands from the top:
    the bound, and {index: rank_obstruction_at verdict} for every candidate
    the scan evaluated (the bound alone cannot tell an obstruction at 0
    from none at all)."""
    verdicts = {}
    for i in reversed(range(len(cands))):
        verdicts[i] = rank_obstruction_at(v, w, cands[i])
        if verdicts[i] is not None:
            return cands[i], verdicts
    return Fraction(0), verdicts


@dataclass(frozen=True)
class DistanceBracket:
    """Two-sided bracket on the interleaving distance.  upper always carries a
    verified witness (unless infinite); lower's certificate is a rank
    violation or a certified negative decision just below.  exact means the
    bracket collapsed under the critical-candidate conjecture."""

    lower: object
    upper: object
    witness: object
    exact: bool
    certificates: dict = field(default_factory=dict)


def distance_bracket(v, w, budget=DEFAULT_BUDGET):
    """Monotone search over the candidate set: upper is the smallest candidate
    where decide succeeds, lower combines the rank bound with the largest
    certified-none candidate.  Budget failures widen the bracket and clear the
    exact flag instead of guessing."""
    _check_comparable(v, w)
    if _eventual_dim(v) != _eventual_dim(w):
        return DistanceBracket(INF, INF, None, True,
                               {"reason": "eventual dimensions differ",
                                "rank_lower_bound": INF})
    cands = candidate_set(v, w)
    rlb, verdicts = _rank_scan(v, w, cands)
    results = {}

    def dec(i):
        if i not in results:
            try:
                results[i] = decide(v, w, cands[i], budget=budget,
                                    _obstruction=verdicts.get(i, _UNKNOWN))
            except BudgetExceeded:
                results[i] = "budget"
        return results[i]

    lo, hi = 0, len(cands) - 1
    budget_gap = False
    top = dec(hi)
    if top == "budget" or top is None:
        # cannot certify any upper bound inside the candidate range
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
            lo = mid + 1  # cannot use mid for either bound
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
        # certified none immediately below the success: under the candidate
        # conjecture and attainment the distance is the success value itself
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
