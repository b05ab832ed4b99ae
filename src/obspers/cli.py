"""Command line front end.

Exit codes: 0 success, 1 parse or validation error, 2 negative decision
(iso/interleave found none), 3 budget exceeded.  Diagnostics go to stderr;
results are canonical JSON on stdout.  Identical inputs and flags produce
byte-identical outputs.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import calculus, limits, metric, pipelines, serialize, stability
from .decompose import decompose as run_decompose, iso_test
from .errors import BudgetExceeded, ValidationError, check
from .limits import CauchyChain, cauchy_limit
from .serialize import (FORMAT, dumps, fr_from_str, fr_to_str, load_any,
                        write_json)
from .stepmodule import (DEFAULT_BUDGET, Grid, direct_sum, ensure_valid,
                         validate_morphism)

DEFAULTS = {"seed": 0, "budget": DEFAULT_BUDGET}


def _cfg(ns, key):
    return getattr(ns, key, DEFAULTS[key])


def _emit(doc):
    sys.stdout.write(dumps(doc))


def _emit_saved(ns, name, doc, **morphisms):
    """Print doc; with --out, also write it there as name.json, and each
    morphism m given as key=m as name_key.json."""
    _emit(doc)
    if getattr(ns, "out", None) is not None:
        _write_out(ns, f"{name}.json", doc)
        for key, m in morphisms.items():
            _write_out(ns, f"{name}_{key}.json", serialize.morphism_to_json(m))


# How an error names each kind of document that a command expects.
_EXPECTED = {"module": "a module", "chain": "a chain manifest",
             "interleaving": "an interleaving", "complex": "a complex",
             "metric-space": "a metric space", "bifiltration": "a bifiltration"}


def _load(path, kind, base=""):
    """The value of the document at path, read relative to base, which must
    be of the given kind; any other kind is a ValidationError naming path."""
    found, value = load_any(os.path.join(base, path))
    if found != kind:
        raise ValidationError(f"{path}: expected {_EXPECTED[kind]}, found {found}")
    return value


def _load_module(path):
    return ensure_valid(_load(path, "module"))


def _out_dir(ns):
    out = getattr(ns, "out", None)
    if out is None:
        return "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_out(ns, name, payload):
    path = os.path.join(_out_dir(ns), name)
    write_json(path, payload)
    return path


def _frac_arg(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from exc


def _frac_list(s):
    return [_frac_arg(part) for part in s.split(",") if part]


def _int_list(s):
    return [int(part) for part in s.split(",") if part]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_validate(ns):
    kind, value = load_any(ns.file)
    if kind == "module":
        ensure_valid(value)
    elif kind == "morphism":
        # validate_morphism checks naturality only, and raises first on an
        # endpoint step of the wrong shape; endpoints that are not modules
        # are named before its violations, as verify names them
        natural = validate_morphism(value)
        violations = [f"{name} is not a module: {x._violations[0]}"
                      for name, x in (("source", value.source), ("target", value.target))
                      if x._violations] + natural
        check(violations)
    elif kind == "interleaving":
        w = metric.verify(value.f.source, value.g.source, value.eps, value.f, value.g)
        if not w.verified:
            raise ValidationError("interleaving does not verify: "
                                  + "; ".join(w.violations))
    elif kind == "complex":
        check(pipelines.validate_complex(value[0]))
    elif kind == "bifiltration":
        check(pipelines.validate_bifiltration(value))
    # a metric space is checked as it is decoded, and a chain's structure by
    # `limit`, which resolves the paths
    _emit({"format": FORMAT, "kind": "validation", "file": ns.file,
           "input_kind": kind, "valid": True})
    return 0


def cmd_sum(ns):
    s = direct_sum(_load_module(ns.a), _load_module(ns.b))
    _emit_saved(ns, "sum", serialize.module_to_json(s))
    return 0


def cmd_smooth(ns):
    res = calculus.smooth(_load_module(ns.file), ns.epsilon)
    _emit_saved(ns, "smooth", serialize.module_to_json(res.module), f=res.f, g=res.g)
    return 0


def cmd_discretize(ns):
    res = calculus.discretize(_load_module(ns.file), ns.epsilon)
    _emit_saved(ns, "discretize", serialize.module_to_json(res.module), f=res.f, g=res.g)
    return 0


def cmd_rank(ns):
    v = _load_module(ns.file)
    _emit({"format": FORMAT, "kind": "rank", "epsilon": fr_to_str(ns.epsilon),
           "rank": calculus.persistent_rank(v, ns.epsilon)})
    return 0


def _summand_signature(s, eps_list):
    dims = sorted([list(g), d] for g, d in s.dims.items() if d)
    ranks = [[fr_to_str(e), calculus.persistent_rank(s, e)] for e in eps_list]
    return {"total_dim": s.total_dim, "dims": dims, "ranks": ranks}


def cmd_decompose(ns):
    v = _load_module(ns.file)
    dec = run_decompose(v, seed=_cfg(ns, "seed"), budget=_cfg(ns, "budget"))
    eps_list = sorted(set(v.grid.gaps()))[:2]
    files = []
    for i, s in enumerate(dec.summands):
        files.append(_write_out(ns, f"summand_{i:02d}.json",
                                serialize.module_to_json(s)))
    signature = sorted((_summand_signature(s, eps_list) for s in dec.summands),
                       key=lambda item: json.dumps(item, sort_keys=True))
    _emit({"format": FORMAT, "kind": "decomposition", "count": len(dec.summands),
           "summands": files, "signature": signature})
    return 0


def cmd_iso(ns):
    ok, witness = iso_test(_load_module(ns.a), _load_module(ns.b),
                                     seed=_cfg(ns, "seed"), budget=_cfg(ns, "budget"))
    doc = {"format": FORMAT, "kind": "iso-result", "isomorphic": ok}
    if ok:
        doc["witness"] = _write_out(ns, "iso_witness.json",
                                    serialize.morphism_to_json(witness))
    _emit(doc)
    if not ok:
        print("not isomorphic", file=sys.stderr)
        return 2
    return 0


def cmd_interleave(ns):
    w = metric.decide(_load_module(ns.a), _load_module(ns.b), ns.epsilon,
                      budget=_cfg(ns, "budget"))
    if w is None:
        print(f"no {ns.epsilon}-interleaving exists", file=sys.stderr)
        _emit({"format": FORMAT, "kind": "interleave-result",
               "epsilon": fr_to_str(ns.epsilon), "exists": False})
        return 2
    path = _write_out(ns, "interleave_witness.json",
                      serialize.interleaving_to_json(w))
    _emit({"format": FORMAT, "kind": "interleave-result",
           "epsilon": fr_to_str(ns.epsilon), "exists": True, "witness": path})
    return 0


def cmd_distance(ns):
    b = metric.distance_bracket(_load_module(ns.a), _load_module(ns.b),
                                budget=_cfg(ns, "budget"))
    _emit(serialize.bracket_to_json(b))
    return 0


def cmd_limit(ns):
    doc = _load(ns.chain, "chain")
    base = os.path.dirname(os.path.abspath(ns.chain))
    terms = tuple(_load_module(os.path.join(base, p)) for p in doc["terms"])
    links = tuple(_load(p, "interleaving", base) for p in doc["links"])
    res = cauchy_limit(CauchyChain(terms, links))
    limit_path = _write_out(ns, "limit.json", serialize.module_to_json(res.limit))
    cert_paths = []
    for k, cert in enumerate(res.certificates):
        cert_paths.append(_write_out(ns, f"limit_cert_{k:02d}.json",
                                     serialize.interleaving_to_json(cert)))
    _emit({"format": FORMAT, "kind": "limit-result", "limit": limit_path,
           "certificates": cert_paths,
           "tails": [fr_to_str(cert.eps) for cert in res.certificates]})
    return 0


def cmd_probe(ns):
    names = sorted(n for n in os.listdir(ns.dir) if n.endswith(".json"))
    if not names:
        raise ValidationError(f"{ns.dir}: no .json module files")
    family = [_load_module(os.path.join(ns.dir, n)) for n in names]
    res = limits.precompact_probe(family, ns.delta, seed=_cfg(ns, "seed"),
                                  budget=_cfg(ns, "budget"))
    reps = []
    for i, (member, mod) in enumerate(res.representatives):
        path = _write_out(ns, f"probe_rep_{i:02d}.json",
                          serialize.module_to_json(mod))
        reps.append({"member": names[member], "file": path})
    _emit({"format": FORMAT, "kind": "probe-result", "delta": fr_to_str(ns.delta),
           "class_count": res.class_count, "count_lower": res.count_lower,
           "count_upper": res.count_upper, "exact": res.exact,
           "labels": {names[i]: lab for i, lab in enumerate(res.labels)},
           "representatives": reps,
           "unresolved": [[names[i], names[j]] for i, j in res.unresolved]})
    return 0


def cmd_trivial(ns):
    rep = stability.strictly_trivial(_load_module(ns.file), ns.sigma)
    _emit({"format": FORMAT, "kind": "triviality-report",
           "sigma": fr_to_str(rep.sigma), "strict": rep.strict,
           "witness": rep.witness})
    return 0


def cmd_near_indec(ns):
    ok, offenders = stability.tau_indecomposable(
        _load_module(ns.file), ns.tau, seed=_cfg(ns, "seed"),
        budget=_cfg(ns, "budget"))
    _emit({"format": FORMAT, "kind": "near-indecomposable-report",
           "tau": fr_to_str(ns.tau), "tau_indecomposable": ok,
           "offender_count": len(offenders),
           "offender_dims": [s.total_dim for s in offenders]})
    return 0


def cmd_genericity(ns):
    rep = stability.perturbation_experiment(
        _load_module(ns.file), trials=ns.trials, seed=_cfg(ns, "seed"),
        budget=_cfg(ns, "budget"))
    trials = [{"index": t.index, "sampler": t.sampler, "accepted": t.accepted,
               "reason": t.reason,
               "witness_eps": None if t.witness_eps is None else fr_to_str(t.witness_eps),
               "tau_pass": t.tau_pass}
              for t in rep.trials]
    _emit({"format": FORMAT, "kind": "genericity-report",
           "eps": fr_to_str(rep.eps), "mu": fr_to_str(rep.mu),
           "tau": fr_to_str(rep.tau), "trials": trials,
           "accepted": rep.accepted, "passes": rep.passes,
           "pass_rate": None if rep.pass_rate is None else fr_to_str(rep.pass_rate)})
    return 0


def cmd_sublevel(ns):
    cx, values = _load(ns.file, "complex")
    if values is None:
        raise ValidationError(f"{ns.file}: complex carries no vertex values")
    b = pipelines.sublevel_bifiltration(cx, values)
    _emit_saved(ns, "sublevel", serialize.bifiltration_to_json(b))
    return 0


def cmd_degree_rips(ns):
    b = pipelines.degree_rips(_load(ns.file, "metric-space"), ns.radii, ns.degrees,
                              max_dim=ns.max_dim)
    _emit_saved(ns, "degree_rips", serialize.bifiltration_to_json(b))
    return 0


def _grid_from_spec(spec, b):
    if spec == "auto":
        axes = [set() for _ in range(b.n_axes)]
        for grades in b.grades.values():
            for g in grades:
                for a, c in enumerate(g):
                    axes[a].add(c)
        if any(not axis for axis in axes):
            raise ValidationError("cannot infer a grid from an empty bifiltration")
        return Grid(tuple(tuple(sorted(axis)) for axis in axes))
    return Grid(tuple(tuple(fr_from_str(c) for c in axis.split(","))
                      for axis in spec.split(";")))


def cmd_homology(ns):
    b = _load(ns.file, "bifiltration")
    check(pipelines.validate_bifiltration(b))
    v = pipelines.homology_module(b, ns.dim, _grid_from_spec(ns.grid, b), ns.prime)
    _emit_saved(ns, "homology", serialize.module_to_json(v))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="RNG seed for randomized searches")
    p.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                   help="search budget; exceeding it exits 3, never a silent 'no'")
    p.add_argument("--out", default=argparse.SUPPRESS,
                   help="directory for emitted artifact files")


@cache
def build_parser():
    """The obspers argument parser, built once per process.  main shares it
    between calls: parsing reads it and fills a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="obspers",
        description="Exact computations with finite-grid persistence modules")
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help):
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "check a JSON artifact")
    p.add_argument("file")

    p = add("sum", cmd_sum, "direct sum of two modules")
    p.add_argument("a")
    p.add_argument("b")

    p = add("smooth", cmd_smooth, "epsilon-smoothing with interleaving witness")
    p.add_argument("--epsilon", type=_frac_arg, required=True)
    p.add_argument("file")

    p = add("discretize", cmd_discretize, "snap to the epsilon-lattice")
    p.add_argument("--epsilon", type=_frac_arg, required=True)
    p.add_argument("file")

    p = add("rank", cmd_rank, "persistent rank at shift epsilon")
    p.add_argument("--epsilon", type=_frac_arg, required=True)
    p.add_argument("file")

    p = add("decompose", cmd_decompose, "indecomposable summands + signature")
    p.add_argument("file")

    p = add("iso", cmd_iso, "isomorphism test (exit 2 when not isomorphic)")
    p.add_argument("a")
    p.add_argument("b")

    p = add("interleave", cmd_interleave,
            "decide an epsilon-interleaving (exit 2 when none exists)")
    p.add_argument("--epsilon", type=_frac_arg, required=True)
    p.add_argument("a")
    p.add_argument("b")

    p = add("distance", cmd_distance, "certified interleaving distance bracket")
    p.add_argument("a")
    p.add_argument("b")

    p = add("limit", cmd_limit, "limit of a Cauchy chain manifest")
    p.add_argument("chain")

    p = add("probe", cmd_probe, "isomorphism classes of a smoothed family")
    p.add_argument("--delta", type=_frac_arg, required=True)
    p.add_argument("dir")

    p = add("trivial", cmd_trivial, "strict sigma-triviality check")
    p.add_argument("--sigma", type=_frac_arg, required=True)
    p.add_argument("file")

    p = add("near-indec", cmd_near_indec,
            "at most one summand survives tau-smoothing")
    p.add_argument("--tau", type=_frac_arg, required=True)
    p.add_argument("file")

    p = add("genericity", cmd_genericity, "random perturbation experiment")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("file")

    p = add("sublevel", cmd_sublevel, "sublevel bifiltration of vertex values")
    p.add_argument("file")

    p = add("degree-rips", cmd_degree_rips, "degree-Rips bifiltration")
    p.add_argument("--radii", type=_frac_list, required=True)
    p.add_argument("--degrees", type=_int_list, required=True)
    p.add_argument("--max-dim", type=int, default=2, dest="max_dim")
    p.add_argument("file")

    p = add("homology", cmd_homology, "homology module of a bifiltration")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--grid", default="auto",
                   help="semicolon-separated axes of comma-separated rationals, or 'auto'")
    p.add_argument("file")

    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(ns)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
