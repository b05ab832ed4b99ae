"""The three benchmark workloads: input generators, jobs and their checks.

A job takes one generated input through its workload's pipeline, re-verifies
every certificate the pipeline returns, and returns a dict of answer-level
invariants (dimensions, booleans, bracket bounds, class counts).  Witness
matrices stay out of that dict, so a different but valid basis gives the same
digest.  Any failed check raises CheckFailed.

Every call into obspers goes through a module attribute looked up at call
time (``L["decompose"].decompose(...)``), so the traced run's wrappers, which
replace those attributes, see every call.  ``library`` only builds inputs.
"""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
from fractions import Fraction

import numpy as np

LAYERS = ("fields", "stepmodule", "calculus", "decompose", "metric", "limits",
          "stability", "pipelines", "serialize", "cli", "library")
L = {name: importlib.import_module(f"obspers.{name}") for name in LAYERS}
WARMUP_SEED = 0
TWIN_TRIES = 64  # jitters tried per cloud before another cloud is drawn
TICK_PAIRS = [(x, y) for x in range(2, 5) for y in range(2, 5)]


class CheckFailed(Exception):
    """A job's answer or certificate did not re-verify."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dims(v):
    return [v.dims[g] for g in v.grid.points()]


def _grid(v):
    return [[str(c) for c in axis] for axis in v.grid.axes]


def _check_invertible(m, what):
    check(L["stepmodule"].validate_morphism(m) == [], f"{what} is not natural")
    F = m.field
    for g in m.grid.points():
        c = m.comps[g]
        check(c.shape[0] == c.shape[1] and F.is_invertible(c),
              f"{what} is not invertible at {g}")


# ---------------------------------------------------------------------------
# decompose: Hom and elimination on one integer grid
# ---------------------------------------------------------------------------

def decompose_input(rng, params, index):
    """A twisted direct sum of box intervals, its dims-vector multiset known
    by construction, and an independently twisted isomorphic copy."""
    p = params["primes"][index % len(params["primes"])]
    F = L["fields"].PrimeField(p)
    lib = L["library"]
    n = params["grid_n"]
    grid = lib.integer_grid(n)
    boxes = []
    for _ in range(params["summands"]):
        w, h = (int(rng.integers(params["side_min"], params["side_max"] + 1))
                for _ in range(2))
        x, y = int(rng.integers(0, n - w + 1)), int(rng.integers(0, n - h + 1))
        boxes.append(((x, y), (x + w - 1, y + h - 1)))
    parts = [lib.box_interval(F, grid, lo, hi) for lo, hi in boxes]
    v = lib.twist_module(functools.reduce(L["stepmodule"].direct_sum, parts), rng)
    expected = sorted(_dims(b) for b in parts)
    return {"v": v, "twin": lib.twist_module(v, rng), "expected": expected}


def decompose_job(inp, ctx):
    sm = L["stepmodule"]
    v = inp["v"]
    dec = L["decompose"].decompose(v)
    summand_dims = sorted(_dims(s) for s in dec.summands)
    check(summand_dims == inp["expected"],
          "summand dims differ from the boxes the module was built from")
    total = sm.zero_morphism(v, v)
    for s, inc, proj in zip(dec.summands, dec.inclusions, dec.projections):
        check(sm.validate_morphism(inc) == [] and sm.validate_morphism(proj) == [],
              "summand witness is not natural")
        check(sm.compose(proj, inc) == sm.identity_morphism(s), "proj o inc != id")
        total = sm.add_morphisms(total, sm.compose(inc, proj))
    check(total == sm.identity_morphism(v), "sum of inc o proj != id")
    iso, wit = L["decompose"].iso_test(v, inp["twin"])
    check(iso, "iso_test missed an isomorphism")
    check(wit.source == v and wit.target == inp["twin"], "iso witness endpoints differ")
    _check_invertible(wit, "iso witness")
    return {"p": v.field.p, "summand_dims": summand_dims, "iso": iso}


# ---------------------------------------------------------------------------
# certify: anchoring and restriction on rational grids
# ---------------------------------------------------------------------------

def certify_input(rng, params, index):
    """A random module on a random rational grid in [0, hi]^2 (the corpus
    shape of acceptance criteria 02 and 03), and a smaller one whose dyadic
    restrictions form the Cauchy chain.

    The grid's tick counts per axis, 2 to 4 as library.random_grid draws
    them, cycle through their nine pairs with the pool index instead of
    being drawn.  The number of grid points explains two thirds of the
    variance of a job's cost, so this keeps the mix of costs the same for
    every seed without changing how often each pair occurs.
    """
    F = L["fields"].PrimeField(2)
    lib = L["library"]
    ticks = TICK_PAIRS[index % len(TICK_PAIRS)]
    grid = L["stepmodule"].Grid(tuple(
        lib.random_grid(rng, n_axes=1, lo=0, hi=params["hi"], min_points=k,
                        max_points=k).axes[0] for k in ticks))
    return {"v": lib.random_module(F, rng, grid=grid),
            "chain_base": lib.random_module(F, rng, lo=0, hi=params["chain_hi"])}


def _verified(v, w, eps, f, g, what):
    cert = L["metric"].verify(v, w, eps, f, g)
    check(cert.verified, f"{what} does not verify: {cert.violations[:1]}")
    return cert


def certify_job(inp, ctx):
    calc = L["calculus"]
    v = inp["v"]
    out = {"discretize": [], "smooth": []}
    for eps in ctx["epsilons"]:
        res = calc.discretize(v, eps)
        _verified(v, res.module, eps, res.f, res.g, f"discretize at {eps}")
        out["discretize"].append([_grid(res.module), _dims(res.module)])
        res = calc.smooth(v, eps)
        _verified(v, res.module, eps, res.f, res.g, f"smooth at {eps}")
        out["smooth"].append([_grid(res.module), _dims(res.module)])
    gaps = [b - a for axis in v.grid.axes for a, b in zip(axis, axis[1:])]
    fac = L["stability"].shift_factor_morphism(v, min(gaps), max(gaps))
    check(fac.triangle_verified, "shift factorization triangle fails")
    check(L["stepmodule"].validate_morphism(fac.m) == [], "shift factor is not natural")
    out["strict"] = L["stability"].strictly_trivial(v, ctx["sigma"]).strict
    out["chain"] = _cauchy_chain(inp["chain_base"], ctx["chain_depth"])
    return out


def _cauchy_chain(c, depth):
    """Dyadic restrictions of c with verified links, then cauchy_limit with
    every stacked certificate re-verified."""
    calc, limits = L["calculus"], L["limits"]
    lo, hi = c.grid.min_corner(), c.grid.max_corner()
    grids = [calc.lattice_grid(Fraction(1, 2 ** k), lo, hi) for k in range(depth)]
    terms = [calc.restrict_extend(c, g) for g in grids]
    links = []
    for k in range(depth - 1):
        eps = Fraction(1, 2 ** k)
        pair = calc.restriction_pair(terms[k + 1], grids[k], eps)
        links.append(_verified(terms[k], terms[k + 1], eps, pair.g, pair.f, f"link {k}"))
    chain = limits.CauchyChain(tuple(terms), tuple(links))
    res = limits.cauchy_limit(chain)
    check(len(res.certificates) == depth, "cauchy_limit dropped a certificate")
    for k, cert in enumerate(res.certificates):
        check(cert.eps == chain.tails[k], f"certificate {k} is not at the tail sum")
        _verified(res.limit, terms[k], cert.eps, cert.f, cert.g, f"limit certificate {k}")
    return {"tails": [str(t) for t in chain.tails], "limit": _dims(res.limit)}


# ---------------------------------------------------------------------------
# compare: geometry pipelines, interleaving search, probe and CLI
# ---------------------------------------------------------------------------

def compare_input(rng, params, index):
    """Two integer point clouds and a family of sublevel filtrations.

    The twin is a +-1 jitter of the cloud with the same component count at
    the largest radius: another count gives an infinite distance, decided
    without any search.  Every `same_profile_every`-th twin has the cloud's
    component count at every radius, and the others differ at some radius.
    Pairs of the first kind are mostly isomorphic and cost about twice as
    much to compare, so fixing their share near its natural one (about a
    third) keeps the mix of costs the same for every seed.
    """
    side, radii = params["side"], range(params["radii"])
    want_same = index % params["same_profile_every"] == 0
    twin = None
    while twin is None:
        pts = set()
        while len(pts) < params["points"]:
            pts.add((int(rng.integers(0, side + 1)), int(rng.integers(0, side + 1))))
        cloud = sorted(pts)
        for _ in range(TWIN_TRIES):
            jittered = [(x + int(rng.integers(-1, 2)), y + int(rng.integers(-1, 2)))
                        for x, y in cloud]
            diff = [_components(jittered, r) - _components(cloud, r) for r in radii]
            if diff[-1] == 0 and (not any(diff)) == want_same:
                twin = jittered
                break
    base = {0: (Fraction(0), Fraction(0)), 1: (Fraction(1, 2), Fraction(1, 4)),
            2: (Fraction(1), Fraction(1, 2))}
    family = [{u: tuple(c + Fraction(int(rng.integers(-1, 2)), 4) for c in base[u])
               for u in base} for _ in range(params["family"])]
    return {"clouds": (cloud, twin), "family": family}


def _chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _components(points, r):
    label = list(range(len(points)))
    for i, a in enumerate(points):
        for j, b in enumerate(points[:i]):
            if _chebyshev(a, b) <= r and label[i] != label[j]:
                old = label[i]
                label = [label[j] if x == old else x for x in label]
    return len(set(label))


def _chebyshev_space(points):
    d = [[_chebyshev(a, b) for b in points] for a in points]
    return L["pipelines"].metric_space(list(range(len(points))), d)


def compare_job(inp, ctx):
    pipe, ser = L["pipelines"], L["serialize"]
    out = {"homology": []}
    h0 = []
    for points in inp["clouds"]:
        bf = pipe.degree_rips(_chebyshev_space(points), ctx["radii"], ctx["degrees"])
        mods = [pipe.homology_module(bf, k, ctx["grid"], ctx["prime"]) for k in (0, 1)]
        out["homology"].append([_dims(m) for m in mods])
        h0.append(mods[0])
    paths = []
    for name, m in zip(("a", "b"), h0):
        path = os.path.join(ctx["workdir"], f"h0_{name}.json")
        with open(path, "w") as fh:
            fh.write(ser.dumps(ser.module_to_json(m)))
        paths.append(path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = L["cli"].main(["distance", *paths])
    check(rc == 0, f"obspers distance exited {rc}")
    doc = json.loads(buf.getvalue())
    out["bracket"] = [doc["lower"], doc["upper"], doc["exact"]]
    check(doc["upper"] != "inf", "infinite distance between equal eventual dims")
    check(doc["exact"], "bracket is not exact: the decide budget ran out")
    check(Fraction(doc["lower"]) <= Fraction(doc["upper"]), "bracket is inverted")
    wit = ser.interleaving_from_json(doc.pop("witness"))
    check(wit.eps == Fraction(doc["upper"]), "witness is not at the upper bound")
    _verified(h0[0], h0[1], wit.eps, wit.f, wit.g, "distance witness")
    out["cli_stdout"] = digest(doc)
    out["probe"] = _probe(inp["family"], ctx)
    return out


def _probe(family, ctx):
    """Criterion-08 shape: sublevel H_0 of eta-perturbed vertex values on a
    triangle, partitioned into isomorphism classes after delta-smoothing."""
    pipe = L["pipelines"]
    cx = pipe.complex_from_simplices([(0, 1), (0, 2), (1, 2)])
    members = []
    for values in family:
        b = pipe.sublevel_bifiltration(cx, values)
        axes = [sorted({g[i] for chain in b.grades.values() for g in chain})
                for i in range(b.n_axes)]
        grid = L["stepmodule"].Grid(tuple(tuple(a) for a in axes))
        members.append(pipe.homology_module(b, 0, grid, 2))
    res = L["limits"].precompact_probe(members, ctx["delta"])
    check(res.exact, "probe left pairs unresolved")
    check(len(res.labels) == len(members) and len(res.representatives) == res.class_count,
          "probe classes and representatives disagree")
    return [res.class_count, list(res.labels)]


# ---------------------------------------------------------------------------

def _compare_context(params):
    radii = list(range(params["radii"]))
    degrees = list(range(params["degrees"]))
    grid = L["stepmodule"].Grid((tuple(radii), tuple(-k for k in reversed(degrees))))
    return {"radii": radii, "degrees": degrees, "grid": grid, "prime": params["prime"],
            "delta": Fraction(params["family_delta"])}


def _certify_context(params):
    return {"epsilons": [Fraction(e) for e in params["epsilons"]],
            "sigma": Fraction(params["sigma"]), "chain_depth": params["chain_depth"]}


WORKLOADS = {
    "decompose": (decompose_input, decompose_job, lambda params: {}),
    "certify": (certify_input, certify_job, _certify_context),
    "compare": (compare_input, compare_job, _compare_context),
}


def generate(name, params, seed, count):
    """The seeded input pool, and a warm-up input that is the same for every
    seed, so that set-up time does not depend on the seed."""
    make = WORKLOADS[name][0]
    rng = np.random.default_rng(seed)
    pool = [make(rng, params, i) for i in range(count)]
    return pool, make(np.random.default_rng(WARMUP_SEED), params, 0)


def context(name, params, workdir):
    ctx = WORKLOADS[name][2](params)
    ctx["workdir"] = workdir
    return ctx


def run_job(name, inp, ctx):
    """The job's answer digest; raises on any failed check."""
    return digest(WORKLOADS[name][1](inp, ctx))
