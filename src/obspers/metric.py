"""Interleaving verification, exact epsilon-interleaving decision, and
two-sided interleaving-distance bracketing.

decide enumerates one morphism's coefficient space exhaustively (whichever
Hom space is smaller) and solves the triangle identities, which are linear in
the other morphism, exactly.  Certified absence therefore requires completing
the enumeration; running out of budget raises instead of reporting "none".

All epsilons are rational.  Infinite distance (detectable from the eventual
dimensions) is reported with an infinity marker used only for comparisons.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .calculus import (compose_matched, eta, eta_on, modules_match,
                       restrict_extend, restrict_morphism, shift,
                       shift_morphism)
from .errors import BudgetExceeded, ValidationError
from .stepmodule import (Morphism, _frac, anchor_map, hom_basis, union_grids,
                         validate_morphism)

INF = float("inf")  # comparison sentinel only; never enters any arithmetic

DEFAULT_BUDGET = 1 << 16


@dataclass(frozen=True)
class Interleaving:
    """An eps-interleaving candidate (f: V -> W[eps], g: W -> V[eps]); when
    verified, both triangle identities hold exactly."""

    eps: Fraction
    f: Morphism
    g: Morphism
    verified: bool
    violations: tuple = ()


def verify(v, w, eps, f, g):
    """Check shapes, naturality and both triangle identities exactly.

    Returns an Interleaving whose verified flag is the outcome; violations
    name the first failing constraint of each kind.
    """
    eps = _frac(eps)
    if eps < 0:
        raise ValidationError("interleaving eps must be >= 0")
    out = []
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
        t1 = compose_matched(shift_morphism(g, eps), f)
        if not _matches_eta(t1, v, 2 * eps):
            out.append("triangle g[eps] o f != eta_2eps on V")
        t2 = compose_matched(shift_morphism(f, eps), g)
        if not _matches_eta(t2, w, 2 * eps):
            out.append("triangle f[eps] o g != eta_2eps on W")
    return Interleaving(eps, f, g, not out, tuple(out))


def _matches_eta(m, v, two_eps):
    u = union_grids(m.grid, v.grid, v.grid.translate(-two_eps))
    r = restrict_morphism(m, u)
    e = eta_on(v, two_eps, u)
    if r.source != e.source or r.target != e.target:
        return False
    return all(np.array_equal(r.comps[g], e.comps[g]) for g in u.points())


def _flatten_comps(comps, points):
    parts = [comps[g].reshape(-1) for g in points]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def decide(v, w, eps, budget=DEFAULT_BUDGET, threads=1):
    """A verified eps-interleaving of (v, w), or None when none exists at this
    exact eps (certified by exhausting the coefficient space of the smaller
    Hom space).  Raises BudgetExceeded when the enumeration would be larger
    than budget.  threads is accepted for compatibility and has no effect:
    candidates are tried one at a time, stopping at the first verified hit."""
    eps = _frac(eps)
    if eps < 0:
        raise ValidationError("decide needs eps >= 0")
    if rank_obstruction_at(v, w, eps) is not None:
        return None  # a rank inequality proves impossibility outright
    return _decide_directed(v, w, eps, budget)


def _decide_directed(v, w, eps, budget, swapped=False):
    F = v.field
    f_grid = union_grids(v.grid, w.grid.translate(-eps))
    fv = restrict_extend(v, f_grid)
    fw = restrict_extend(shift(w, eps), f_grid)
    basis_f = hom_basis(fv, fw)
    g_grid = union_grids(w.grid, v.grid.translate(-eps))
    gw = restrict_extend(w, g_grid)
    gv = restrict_extend(shift(v, eps), g_grid)
    basis_g = hom_basis(gw, gv)
    if len(basis_g) < len(basis_f) and not swapped:
        flipped = _decide_directed(w, v, eps, budget, swapped=True)
        if flipped is None:
            return None
        return Interleaving(eps, flipped.g, flipped.f, flipped.verified, flipped.violations)
    hf, hg = len(basis_f), len(basis_g)
    if F.p ** hf > budget:
        raise BudgetExceeded(
            f"f-side Hom dimension {hf} over F_{F.p} exceeds the decide budget {budget}")
    # triangle 1 lives on u1: composites g[eps] o f versus eta_2eps on V
    u1 = union_grids(f_grid, g_grid.translate(-eps))
    pts1 = u1.points()
    rf = [restrict_morphism(b, u1) for b in basis_f]
    rg1 = [restrict_morphism(shift_morphism(b, eps), u1) for b in basis_g]
    b1 = _flatten_comps(eta_on(v, 2 * eps, u1).comps, pts1)
    p_tensor = np.zeros((hf, hg, b1.size), dtype=np.int64)
    for i, fi in enumerate(rf):
        for j, gj in enumerate(rg1):
            comps = {g: F.matmul(gj.comps[g], fi.comps[g]) for g in pts1}
            p_tensor[i, j] = _flatten_comps(comps, pts1)
    # triangle 2 lives on u2: composites f[eps] o g versus eta_2eps on W
    u2 = union_grids(g_grid, f_grid.translate(-eps))
    pts2 = u2.points()
    rg = [restrict_morphism(b, u2) for b in basis_g]
    rf2 = [restrict_morphism(shift_morphism(b, eps), u2) for b in basis_f]
    b2 = _flatten_comps(eta_on(w, 2 * eps, u2).comps, pts2)
    q_tensor = np.zeros((hf, hg, b2.size), dtype=np.int64)
    for i, fi in enumerate(rf2):
        for j, gj in enumerate(rg):
            comps = {g: F.matmul(fi.comps[g], gj.comps[g]) for g in pts2}
            q_tensor[i, j] = _flatten_comps(comps, pts2)
    rhs = np.concatenate([b1, b2]).reshape(-1, 1)

    def attempt(cand):
        c = np.array(cand, dtype=np.int64)
        m1 = np.tensordot(c, p_tensor, axes=(0, 0)) % F.p  # (hg, L1)
        m2 = np.tensordot(c, q_tensor, axes=(0, 0)) % F.p
        system = np.concatenate([m1, m2], axis=1).T  # rows equations, cols hg
        sol = F.solve(system, rhs)
        return None if sol is None else (c, sol[:, 0])

    for cand in product(range(F.p), repeat=hf):
        hit = attempt(cand)
        if hit is None:
            continue
        c, d = hit
        f = _linear_combination(basis_f, c, fv, fw)
        g = _linear_combination(basis_g, d, gw, gv)
        result = verify(v, w, eps, f, g)
        if result.verified:
            return result
    return None


def _linear_combination(basis, coeffs, source, target):
    F = source.field
    comps = {}
    for g in source.grid.points():
        acc = F.zeros(target.dims[g], source.dims[g])
        for c, b in zip(coeffs, basis):
            if int(c):
                acc = F.matadd(acc, F.matscale(int(c), b.comps[g]))
        comps[g] = acc
    return Morphism(source, target, comps)


# ---------------------------------------------------------------------------
# Rank obstructions and distance brackets
# ---------------------------------------------------------------------------

def _eventual_dim(v):
    top = tuple(n - 1 for n in v.grid.shape)
    return v.dims[top]


def _one_sided_rank_violation(v, w, eps):
    """First (s, t) with rk V_{s -> t+2eps} > rk W_{s+eps -> t+eps}, scanning
    cell representatives of the joint refinement, or None."""
    F = v.field
    grid = union_grids(v.grid, v.grid.translate(-2 * eps), w.grid.translate(-eps))
    pts = grid.points()
    av = v.grid.anchors_on(grid)
    av2 = v.grid.anchors_on(grid, 2 * eps)
    aw1 = w.grid.anchors_on(grid, eps)
    rank_v, rank_w, memo_v, memo_w = {}, {}, {}, {}
    for s in pts:
        if av[s] is None:
            continue
        for t in pts:
            if any(x > y for x, y in zip(s, t)):
                continue
            key = (av[s], av2[t])
            if key not in rank_v:
                rank_v[key] = F.rank(anchor_map(v, *key, memo_v))
            rv = rank_v[key]
            if rv == 0:
                continue
            if aw1[s] is None:
                return (grid.coords(s), grid.coords(t))
            wkey = (aw1[s], aw1[t])
            if wkey not in rank_w:
                rank_w[wkey] = w.field.rank(anchor_map(w, *wkey, memo_w))
            if rv > rank_w[wkey]:
                return (grid.coords(s), grid.coords(t))
    return None


def rank_obstruction_at(v, w, eps):
    """A human-readable witness that no eps-interleaving can exist, from the
    functorial rank inequalities; None when no inequality is violated."""
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
    if _eventual_dim(v) != _eventual_dim(w):
        return INF
    for eps in reversed(candidate_set(v, w)):
        if rank_obstruction_at(v, w, eps) is not None:
            return eps
    return Fraction(0)


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


def distance_bracket(v, w, budget=DEFAULT_BUDGET, threads=1):
    """Monotone search over the candidate set: upper is the smallest candidate
    where decide succeeds, lower combines the rank bound with the largest
    certified-none candidate.  Budget failures widen the bracket and clear the
    exact flag instead of guessing.  threads has no effect, as in decide."""
    if _eventual_dim(v) != _eventual_dim(w):
        return DistanceBracket(INF, INF, None, True,
                               {"reason": "eventual dimensions differ",
                                "rank_lower_bound": INF})
    cands = candidate_set(v, w)
    rlb = rank_lower_bound(v, w)
    results = {}

    def dec(i):
        if i not in results:
            try:
                results[i] = decide(v, w, cands[i], budget=budget)
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
