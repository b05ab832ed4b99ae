"""Strict triviality, the grid-shift factorization, near-indecomposability,
and the genericity perturbation experiment.

The experiment perturbs a certified-indecomposable module, keeps only samples
with a verified interleaving witness strictly inside the mu-ball, and checks
that each accepted sample has at most one non-trivial indecomposable summand
at tau = c*mu.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import (_triangle_holds, anchored_morphism, discretize, eta,
                       restrict_extend, restrict_morphism, shift, union_grids)
from .decompose import decompose, split_once
from .errors import ValidationError
from .metric import distance_bracket, rank_lower_bound, verify
from .library import constant_module, single_cell_module
from .stepmodule import (DEFAULT_BUDGET, Morphism, StepModule, _frac, check_budget,
                         direct_sum, identity_morphism, validate, validate_morphism)


@dataclass(frozen=True)
class TrivialityReport:
    sigma: Fraction
    strict: bool
    witness: str


def strictly_trivial(v, sigma):
    """strict iff every component of eta(v, sigma) is the zero matrix."""
    sigma = _frac(sigma)
    m = eta(v, sigma)
    nonzero = m._stack.any(axis=(1, 2))  # a stack is zero past its blocks
    if nonzero.any():
        g = m.grid.points()[int(nonzero.argmax())]
        return TrivialityReport(sigma, False, f"nonzero eta component at index {g}")
    return TrivialityReport(sigma, True, "eta_sigma = 0 verified")


@dataclass(frozen=True)
class ShiftFactorResult:
    """m factors eta_beta on the grid through the r-shifted restriction:
    eta_beta = m o first, verified with l a module, m natural and the two
    sides equal at l's generator grades, which is exact
    (calculus._triangle_holds).  m is presented with source
    restrict_extend(shift(l, r), Q) and target restrict_extend(shift(l, beta), Q),
    the r-shift of the factorization through the coarser grid."""

    m: Morphism
    first: Morphism
    triangle_verified: bool


def shift_factor_morphism(l, r, beta):
    """Factor the beta-shift structure morphism of a grid module through its
    r-shifted restriction (r at most the minimum grid gap, beta at least the
    maximum), via anchor-to-anchor path maps.  triangle_verified needs l to
    be a module and m to be natural, as calculus._triangle_holds compares
    m o first with eta_beta at l's generator grades only."""
    r = _frac(r)
    beta = _frac(beta)
    gaps = l.grid.gaps()
    if not gaps:
        raise ValidationError("shift factorization needs at least two grid points per axis")
    alpha = min(gaps)
    if not (0 < r <= alpha):
        raise ValidationError(f"need 0 < r <= minimum grid gap {alpha}, got {r}")
    if beta < max(gaps):
        raise ValidationError(f"need beta >= maximum grid gap {max(gaps)}, got {beta}")
    q_grid = l.grid
    m = anchored_morphism(shift(l, r), l, beta, q_grid, l.path_map)
    first = restrict_morphism(eta(l, r), q_grid)
    if first.target != m.source:
        raise ValidationError("composition endpoints differ as extensions")
    ok = (first.source == l and m.target == restrict_extend(shift(l, beta), q_grid)
          and not validate(l) and not validate_morphism(m)
          and _triangle_holds(first, m, l, 0, beta))
    return ShiftFactorResult(m, first, ok)


def tau_indecomposable(w, tau, seed=0, budget=DEFAULT_BUDGET):
    """True when at most one indecomposable summand of w fails strict
    triviality at tau; returns the offending summands alongside."""
    budget = check_budget(budget)
    tau = _frac(tau)
    dec = decompose(w, seed=seed, budget=budget)
    offenders = [s for s in dec.summands if not strictly_trivial(s, tau).strict]
    return len(offenders) <= 1, offenders


# ---------------------------------------------------------------------------
# Genericity experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trial:
    index: int
    sampler: str
    accepted: bool
    reason: str
    witness_eps: object = None
    tau_pass: object = None


@dataclass(frozen=True)
class PerturbationReport:
    eps: Fraction
    mu: Fraction
    tau: Fraction
    trials: tuple
    accepted: int
    passes: int

    @property
    def pass_rate(self):
        return None if self.accepted == 0 else Fraction(self.passes, self.accepted)


def _regular_gap(v):
    gaps = set(v.grid.gaps())
    if len(gaps) != 1:
        raise ValidationError("perturbation experiment needs a regular grid")
    return gaps.pop()


def _sample_identity(v, rng, eps):
    ident = identity_morphism(v)
    wit = verify(v, v, Fraction(0), ident, ident)
    return v, wit, "unperturbed copy"


def _sample_refine(v, rng, eps):
    pair = discretize(v, eps / 4)
    wit = verify(v, pair.module, eps / 4, pair.f, pair.g)
    return pair.module, wit, "restricted to the eps/4 lattice"


def _sample_cell_summand(v, rng, eps):
    """v (+) T for a strictly (eps/2)-trivial cell T, with the witness pair
    (eta followed by inclusion, projection followed by eta) at eps/4; the
    second triangle closes because eta_{eps/2} vanishes on T."""
    lo = v.grid.min_corner()
    hi = v.grid.max_corner()
    corner = tuple(lo[i] + (eps / 4) * int(rng.integers(0, max(1, int((hi[i] - lo[i]) / (eps / 4)))))
                   for i in range(v.grid.n_axes))
    t = single_cell_module(v.field, corner, eps / 2, v.grid.n_axes)
    w = direct_sum(v, t)
    F = v.field
    e0 = eps / 4
    # v's summand comes first in w, so v's eta_e0 is the top-left block; w's
    # grid refines v's, so v's anchor of a point is v's anchor of w's anchor
    on_v = v.grid.anchors_on(w.grid)

    def f_comp(av, aw):
        av2 = on_v[aw]
        if av2 is None:
            return None
        block = F.zeros(w.dims[aw], v.dims[av])
        block[: v.dims[av2], :] = v.path_map(av, av2)
        return block

    def g_comp(aw, av2):
        av = on_v[aw]
        if av is None:
            return None
        block = F.zeros(v.dims[av2], w.dims[aw])
        block[:, : v.dims[av]] = v.path_map(av, av2)
        return block

    f = anchored_morphism(v, w, e0, union_grids(v.grid, w.grid.translate(-e0)), f_comp)
    gm = anchored_morphism(w, v, e0, union_grids(w.grid, v.grid.translate(-e0)), g_comp)
    wit = verify(v, w, e0, f, gm)
    return w, wit, "added a strictly (eps/2)-trivial cell summand"


def _sample_shift(v, rng, eps):
    delta = eps / 4
    w = shift(v, delta)
    f = eta(v, 2 * delta)  # target matches w[delta] = v[2 delta]
    wit = verify(v, w, delta, f, identity_morphism(w))  # g: w -> v[delta] = w
    return w, wit, "shifted by eps/4"


def _sample_step_twist(v, rng, eps):
    """Rank-one correction to one step, commutation repaired by absorbing the
    correction as a basis change at the step's target vertex."""
    cands = [(g, ax) for (g, ax), m in v.steps.items() if min(m.shape) > 0]
    if not cands:
        return None, None, "no step large enough to twist"
    g, ax = cands[int(rng.integers(0, len(cands)))]
    F = v.field
    h = v.grid.edges[(g, ax)]
    d = v.dims[h]
    u = np.array([int(rng.integers(0, F.p)) for _ in range(d)], dtype=np.int64)
    if not np.any(u):
        u[int(rng.integers(0, d))] = 1
    wvec = np.array([int(rng.integers(0, F.p)) for _ in range(d)], dtype=np.int64)
    change = (F.identity(d) + np.outer(u, wvec)) % F.p
    if not F.is_invertible(change):
        return None, None, "rank-one correction not absorbable"
    inv = F.inverse(change)
    steps = dict(v.steps)
    steps[(g, ax)] = F.matmul(change, steps[(g, ax)])
    for (q, axis), r in v.grid.edges.items():
        if q == h:
            steps[(q, axis)] = F.matmul(steps[(q, axis)], inv)
        elif r == h and (q, axis) != (g, ax):
            steps[(q, axis)] = F.matmul(change, steps[(q, axis)])
    w = StepModule(F, v.grid, dict(v.dims), steps)
    if validate(w):
        return None, None, "twist broke commutativity"
    return w, None, "rank-one step twist"


def _sample_far_summand(v, rng, eps):
    """Direct sum with a constant line over the whole box; the distance
    filter must reject this (the eventual dimension jumps)."""
    c = constant_module(v.field, v.grid)
    return direct_sum(v, c), None, "added a constant summand"


# (name, sampler): each sampler takes (v, rng, eps) and returns (w, verified
# witness or None, description), or (None, None, reason) when it cannot apply.
_SAMPLERS = (("identity", _sample_identity), ("refine", _sample_refine),
            ("cell-summand", _sample_cell_summand), ("shift", _sample_shift),
            ("step-twist", _sample_step_twist), ("far-summand", _sample_far_summand))


def perturbation_experiment(v, trials=20, seed=0, c=6, budget=DEFAULT_BUDGET):
    """Sample perturbations of a certified-indecomposable module on a regular
    grid, keep those with a verified interleaving witness strictly inside the
    mu-ball (mu = eps/2), and check c*mu-indecomposability of each."""
    budget = check_budget(budget)
    eps = _regular_gap(v)
    mu = eps / 2
    tau = c * mu
    if split_once(v, seed=seed, budget=budget) is not None:
        raise ValidationError("perturbation experiment needs an indecomposable module")
    rng = np.random.default_rng(seed)
    entries = []
    accepted = passes = 0
    for t in range(trials):
        name, sampler = _SAMPLERS[int(rng.integers(0, len(_SAMPLERS)))]
        w, wit, how = sampler(v, rng, eps)
        if w is None:
            entries.append(Trial(t, name, False, how))
            continue
        if wit is not None and wit.verified and wit.eps < mu:
            witness_eps = wit.eps
        else:
            # no constructed witness: fall back on the bracket
            lb = rank_lower_bound(v, w)
            if lb < mu:
                br = distance_bracket(v, w, budget=budget)
                upper_ok = br.witness is not None and br.upper < mu
            else:
                br = None
                upper_ok = False
            if not upper_ok:
                entries.append(Trial(t, name, False,
                                     f"{how}: no verified witness inside the mu-ball"))
                continue
            witness_eps = br.upper
        ok, offenders = tau_indecomposable(w, tau, seed=seed, budget=budget)
        accepted += 1
        passes += int(ok)
        entries.append(Trial(t, name, True,
                             how if ok else f"{how}: {len(offenders)} nontrivial summands",
                             witness_eps, ok))
    return PerturbationReport(eps, mu, tau, tuple(entries), accepted, passes)
