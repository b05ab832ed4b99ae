"""Finite Cauchy chains with certified limits, the precompactness probe, and
uniform-bound reports.

A finite chain's limit is its final term; the value added here is assembling
the explicit stacked interleaving certificates between the limit and every
earlier term, at the exact rational tail sums, and verifying each one.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import (compose_matched, lattice_grid, restrict_extend,
                       shift_morphism, smooth)
from .decompose import iso_test
from .errors import BudgetExceeded, ValidationError
from .metric import verify
from .stepmodule import DEFAULT_BUDGET, _frac, identity_morphism


@dataclass(frozen=True)
class CauchyChain:
    """terms V_0..V_{K-1} with links[k] a verified Interleaving between
    terms[k] and terms[k+1] at links[k].eps."""

    terms: tuple
    links: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "links", tuple(self.links))

    @property
    def epsilons(self):
        return tuple(link.eps for link in self.links)

    @property
    def tails(self):
        """tails[k] = sum of epsilons from k on; tails[-1] = 0."""
        out = [Fraction(0)]
        for eps in reversed(self.epsilons):
            out.append(out[-1] + eps)
        return tuple(reversed(out))


def validate_chain(c):
    out = []
    if not c.terms:
        out.append("chain has no terms")
        return out
    if len(c.links) != len(c.terms) - 1:
        out.append(f"expected {len(c.terms) - 1} links, got {len(c.links)}")
        return out
    for k, link in enumerate(c.links):
        if link.eps < 0:
            out.append(f"link {k} has negative eps")
            continue
        checked = verify(c.terms[k], c.terms[k + 1], link.eps, link.f, link.g)
        if not checked.verified:
            out.append(f"link {k} does not verify: {checked.violations[0]}")
    return out


@dataclass(frozen=True)
class LimitResult:
    limit: object
    certificates: tuple  # certificates[k] interleaves limit with terms[k] at tails[k]


def cauchy_limit(c):
    """The chain's limit (its final term) together with one verified
    interleaving certificate per term at the exact tail sums."""
    bad = validate_chain(c)
    if bad:
        raise ValidationError("; ".join(bad))
    terms = c.terms
    tails = c.tails
    last = len(terms) - 1
    limit = terms[last]
    certs = []
    for k in range(len(terms)):
        if k == last:
            ident = identity_morphism(limit)
            certs.append(verify(limit, limit, Fraction(0), ident, ident))
            continue
        # phi: limit -> terms[k][tails[k]], stacking the g's right to left
        phi = c.links[last - 1].g
        for m in range(last - 2, k - 1, -1):
            phi = compose_matched(shift_morphism(c.links[m].g, tails[m + 1]), phi)
        # psi: terms[k] -> limit[tails[k]], stacking the f's left to right
        psi = c.links[k].f
        shift_so_far = c.links[k].eps
        for m in range(k + 1, last):
            psi = compose_matched(shift_morphism(c.links[m].f, shift_so_far), psi)
            shift_so_far += c.links[m].eps
        cert = verify(limit, terms[k], tails[k], phi, psi)
        if not cert.verified:
            raise ValidationError(
                f"stacked certificate for term {k} failed: {cert.violations[0]}")
        certs.append(cert)
    return LimitResult(limit, tuple(certs))


# ---------------------------------------------------------------------------
# Precompactness probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    """Isomorphism-class count of the delta-smoothed, delta-grid restricted
    family.  When iso tests run out of budget the count is a bracket and
    exact is False."""

    count_lower: int
    count_upper: int
    exact: bool
    labels: tuple  # class label per family member, under the upper partition
    representatives: tuple  # (member index, probed module) per class
    unresolved: tuple = ()

    @property
    def class_count(self):
        return self.count_upper if self.exact else None


def _family_box(family):
    lo = None
    hi = None
    for v in family:
        mn = v.grid.min_corner()
        mx = v.grid.max_corner()
        if lo is None:
            lo, hi = list(mn), list(mx)
        else:
            lo = [min(a, b) for a, b in zip(lo, mn)]
            hi = [max(a, b) for a, b in zip(hi, mx)]
    return tuple(lo), tuple(hi)


def precompact_probe(family, delta, seed=0, budget=DEFAULT_BUDGET):
    """Smooth each member at delta, restrict to the delta-lattice over the
    common bounding box padded by delta, and partition by exact isomorphism."""
    delta = _frac(delta)
    if delta <= 0:
        raise ValidationError("probe needs delta > 0")
    if not family:
        raise ValidationError("probe needs a nonempty family")
    fields = {v.field.p for v in family}
    axes = {v.grid.n_axes for v in family}
    if len(fields) > 1 or len(axes) > 1:
        raise ValidationError("probe family must share the field and the number of axes")
    lo, hi = _family_box(family)
    grid = lattice_grid(delta,
                        tuple(x - delta for x in lo),
                        tuple(x + delta for x in hi))
    probed = [restrict_extend(smooth(v, delta).module, grid) for v in family]
    n = len(probed)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    unresolved = []
    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            try:
                same, _ = iso_test(probed[i], probed[j], seed=seed, budget=budget)
            except BudgetExceeded:
                unresolved.append((i, j))
                continue
            if same:
                parent[find(j)] = find(i)
    roots = sorted({find(i) for i in range(n)})
    label_of_root = {r: c for c, r in enumerate(roots)}
    labels = tuple(label_of_root[find(i)] for i in range(n))
    upper = len(roots)
    # pessimistic merge: treat every unresolved pair as isomorphic
    merged = list(parent)

    def mfind(i):
        while merged[i] != i:
            merged[i] = merged[merged[i]]
            i = merged[i]
        return i

    for i, j in unresolved:
        merged[mfind(j)] = mfind(i)
    lower = len({mfind(i) for i in range(n)})
    reps = []
    seen = set()
    for i in range(n):
        r = find(i)
        if r not in seen:
            seen.add(r)
            reps.append((i, probed[i]))
    return ProbeResult(lower, upper, not unresolved, labels, tuple(reps),
                       tuple(unresolved))


@dataclass(frozen=True)
class UniformBoundsReport:
    box: object  # (min corner, max corner) of the union of supports, or None
    max_ranks: dict = field(default_factory=dict)  # eps -> max persistent rank


def uniform_bounds_report(family, eps_list):
    """Smallest box containing every member's support, and for each eps the
    family-wide maximum persistent rank."""
    from .calculus import persistent_rank
    lo = None
    hi = None
    for v in family:
        for g in v.grid.points():
            if v.dims[g] == 0:
                continue
            c = v.grid.coords(g)
            if lo is None:
                lo, hi = list(c), list(c)
            else:
                lo = [min(a, b) for a, b in zip(lo, c)]
                hi = [max(a, b) for a, b in zip(hi, c)]
    box = None if lo is None else (tuple(lo), tuple(hi))
    ranks = {}
    for eps in eps_list:
        eps = _frac(eps)
        ranks[eps] = max((persistent_rank(v, eps) for v in family), default=0)
    return UniformBoundsReport(box, ranks)
