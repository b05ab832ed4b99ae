"""Per-layer tracing from outside the program.

Tracer.install() replaces each traced function of obspers with a wrapper that
records a span (name, start, end, parent span, job id) and the counts named in
COUNTERS.  Functions are replaced under every name that binds them in any
obspers module, so ``from .stepmodule import hom_basis`` in decompose and
metric, and the package ``__init__`` re-exports, are traced too.  Methods are
replaced on their class.  Spans stay in memory until the run ends.
"""

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, function name, owner, attribute); owner is a module name, or
# "module:Class" for a method.
TRACED = [
    ("fields", "reduce", "obspers.fields:PrimeField", "reduce"),
    ("fields", "matmul", "obspers.fields:PrimeField", "matmul"),
    ("stepmodule", "anchor", "obspers.stepmodule:Grid", "anchor"),
    ("stepmodule", "restrict_extend", "obspers.stepmodule", "restrict_extend"),
    ("stepmodule", "path_map", "obspers.stepmodule:StepModule", "path_map"),
    ("stepmodule", "hom_basis", "obspers.stepmodule", "hom_basis"),
    ("stepmodule", "factor_morphism", "obspers.stepmodule", "factor_morphism"),
    ("stepmodule", "construct", "obspers.stepmodule:StepModule", "__post_init__"),
    ("stepmodule", "construct", "obspers.stepmodule:Morphism", "__post_init__"),
    ("calculus", "eta_on", "obspers.calculus", "eta_on"),
    ("calculus", "restrict_morphism", "obspers.calculus", "restrict_morphism"),
    ("calculus", "compose_matched", "obspers.calculus", "compose_matched"),
    ("calculus", "smooth", "obspers.calculus", "smooth"),
    ("calculus", "restriction_pair", "obspers.calculus", "restriction_pair"),
    ("decompose", "endo_algebra", "obspers.decompose", "endo_algebra"),
    ("decompose", "split_once", "obspers.decompose", "split_once"),
    ("decompose", "decompose", "obspers.decompose", "decompose"),
    ("decompose", "iso_test", "obspers.decompose", "iso_test"),
    ("metric", "verify", "obspers.metric", "verify"),
    ("metric", "decide", "obspers.metric", "decide"),
    ("metric", "rank_obstruction_at", "obspers.metric", "rank_obstruction_at"),
    ("metric", "distance_bracket", "obspers.metric", "distance_bracket"),
    ("limits", "cauchy_limit", "obspers.limits", "cauchy_limit"),
    ("limits", "precompact_probe", "obspers.limits", "precompact_probe"),
    ("stability", "strictly_trivial", "obspers.stability", "strictly_trivial"),
    ("stability", "shift_factor_morphism", "obspers.stability", "shift_factor_morphism"),
    ("pipelines", "degree_rips", "obspers.pipelines", "degree_rips"),
    ("pipelines", "homology_module", "obspers.pipelines", "homology_module"),
    ("serialize", "module_to_json", "obspers.serialize", "module_to_json"),
    ("serialize", "module_from_json", "obspers.serialize", "module_from_json"),
    ("cli", "main", "obspers.cli", "main"),
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _points(grid):
    return int(np.prod(grid.shape))


def _unknowns(args, kwargs):
    v, w = _arg(args, kwargs, 0, "v"), _arg(args, kwargs, 1, "w")
    return sum(v.dims[g] * w.dims[g] for g in v.dims)


# span name -> [(counter, value of (args, kwargs, result))]; booleans count
# the calls whose answer was useful, the base of each ratio.
COUNTERS = {
    "fields.reduce": [("cells", lambda a, k, r: int(np.prod(np.shape(_arg(a, k, 1, "m")))))],
    "stepmodule.restrict_extend": [("points", lambda a, k, r: _points(_arg(a, k, 1, "grid")))],
    "stepmodule.hom_basis": [("unknowns", lambda a, k, r: _unknowns(a, k)),
                             ("dim", lambda a, k, r: len(r))],
    "decompose.split_once": [("splits", lambda a, k, r: r is not None)],
    "decompose.iso_test": [("true", lambda a, k, r: bool(r[0]))],
    "metric.verify": [("verified", lambda a, k, r: bool(r.verified))],
    "metric.decide": [("found", lambda a, k, r: r is not None)],
    "metric.rank_obstruction_at": [("hits", lambda a, k, r: r is not None)],
    "metric.distance_bracket": [("exact", lambda a, k, r: bool(r.exact))],
    "pipelines.homology_module": [("points", lambda a, k, r: _points(_arg(a, k, 2, "grid")))],
}

# ratio metric -> (counter, span name whose calls are the base)
RATIOS = {
    "decompose.split_once.split_ratio": ("decompose.split_once.splits", "decompose.split_once"),
    "decompose.iso_test.true_ratio": ("decompose.iso_test.true", "decompose.iso_test"),
    "metric.verify.verified_ratio": ("metric.verify.verified", "metric.verify"),
    "metric.decide.found_ratio": ("metric.decide.found", "metric.decide"),
    "metric.rank_obstruction_at.hit_ratio": ("metric.rank_obstruction_at.hits",
                                             "metric.rank_obstruction_at"),
    "metric.distance_bracket.exact_ratio": ("metric.distance_bracket.exact",
                                            "metric.distance_bracket"),
}
COUNTS = ["fields.reduce.cells", "stepmodule.restrict_extend.points",
          "stepmodule.hom_basis.unknowns", "stepmodule.hom_basis.dim",
          "metric.decide.budget_exceeded", "pipelines.homology_module.points"]
SPAN_NAMES = list(dict.fromkeys(f"{layer}.{fn}" for layer, fn, _, _ in TRACED))


def _owner(spec):
    mod, _, cls = spec.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.counters = dict.fromkeys([f"{s}.{c}" for s, cs in COUNTERS.items()
                                       for c, _ in cs] + ["metric.decide.budget_exceeded"], 0)
        self._restore = []

    def _wrap(self, span, fn):
        nid = SPAN_NAMES.index(span)
        counters = [(f"{span}.{c}", f) for c, f in COUNTERS.get(span, ())]
        budget = span == "metric.decide"
        BudgetExceeded = sys.modules["obspers.errors"].BudgetExceeded
        t = self

        def traced(*args, **kwargs):
            idx = len(t.start)
            t.name.append(nid)
            t.parent.append(t.stack[-1])
            t.job.append(t.job_id)
            t.start.append(0.0)
            t.end.append(0.0)
            t.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                if budget:
                    t.counters["metric.decide.budget_exceeded"] += 1
                raise
            finally:
                t.end[idx] = perf_counter()
                t.start[idx] = t0
                t.stack.pop()
            for key, f in counters:
                t.counters[key] += f(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "obspers" or name.startswith("obspers.")]
        for layer, fn, owner, attr in TRACED:
            obj = _owner(owner)
            orig = vars(obj)[attr]
            wrapper = self._wrap(f"{layer}.{fn}", orig)
            if isinstance(obj, type):
                self._patch(obj, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, attr, value):
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore = []

    def spans(self):
        return {"names": np.array(SPAN_NAMES),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def metrics(self):
        """Per span name: calls and self seconds (duration minus the time its
        child spans cover), then the counts and ratios."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(s["name"], minlength=len(SPAN_NAMES))
        self_sum = np.bincount(s["name"], weights=self_s, minlength=len(SPAN_NAMES))
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (int(calls[i]), "count")
            out[f"{span}.self_s"] = (float(self_sum[i]), "s")
        for name in COUNTS:
            out[name] = (int(self.counters[name]), "count")
        for name, (num, base) in RATIOS.items():
            n = out[f"{base}.calls"][0]
            out[name] = (self.counters[num] / n if n else 0.0, "ratio")
        return out
