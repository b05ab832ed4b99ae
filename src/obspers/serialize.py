"""Versioned JSON formats with exact rationals as strings.

Every document carries {"format": "obspers/1", "kind": ...}.  Serialization
is canonical (sorted keys, two-space indent, trailing newline), so identical
values produce byte-identical files.
"""

import json
from fractions import Fraction

from .calculus import Grid
from .errors import ValidationError
from .fields import PrimeField
from .metric import INF, Interleaving
from .pipelines import Bifiltration, SimplicialComplex, metric_space
from .stepmodule import Morphism, StepModule, _frac, _index, _integer

FORMAT = "obspers/1"


def fr_to_str(q):
    if q is INF:
        return "inf"
    return str(Fraction(q))


def fr_from_str(s):
    """INF for "inf", else _frac's exact rational: a JSON float raises."""
    return INF if s == "inf" else _frac(s)


def _point_key(g):
    return ",".join(str(i) for i in g)


def _point_from_key(s):
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValidationError(f"point key {s!r} is not a list of integers") from None


def dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(dumps(payload))


def read_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValidationError(f"{path}: not an {FORMAT} document")
    return doc


def _expect_kind(doc, kind):
    if doc.get("kind") != kind:
        raise ValidationError(f"expected kind {kind}, found {doc.get('kind')}")


# ---------------------------------------------------------------------------
# Modules and morphisms
# ---------------------------------------------------------------------------

def module_to_json(v):
    steps = []
    for (g, axis) in sorted(v.steps):
        steps.append({"at": list(g), "axis": axis,
                      "matrix": v.steps[(g, axis)].tolist()})
    return {
        "format": FORMAT,
        "kind": "module",
        "field": {"p": v.field.p},
        "grid": [[fr_to_str(c) for c in axis] for axis in v.grid.axes],
        "dims": {_point_key(g): d for g, d in v.dims.items()},
        "steps": steps,
    }


def module_from_json(doc):
    _expect_kind(doc, "module")
    F = PrimeField(_integer(doc["field"]["p"], "field p"))
    grid = Grid(tuple(tuple(fr_from_str(c) for c in axis) for axis in doc["grid"]))
    dims = {_point_from_key(k): d for k, d in doc["dims"].items()}
    steps = {}
    for entry in doc["steps"]:
        g = _index(entry["at"])
        axis = _integer(entry["axis"], "axis of the step at {}", g)
        if not 0 <= axis < grid.n_axes:
            raise ValidationError(f"step at {g} names axis {axis} of a "
                                  f"{grid.n_axes}-axis grid")
        if (g, axis) not in grid.edges:
            raise ValidationError(f"step at {g} axis {axis} leaves the grid")
        steps[(g, axis)] = entry["matrix"]
    return StepModule(F, grid, dims, steps)


def morphism_to_json(m):
    return {
        "format": FORMAT,
        "kind": "morphism",
        "source": module_to_json(m.source),
        "target": module_to_json(m.target),
        "comps": {_point_key(g): c.tolist() for g, c in m.comps.items()},
    }


def morphism_from_json(doc):
    _expect_kind(doc, "morphism")
    source = module_from_json(doc["source"])
    target = module_from_json(doc["target"])
    comps = {_point_from_key(k): rows for k, rows in doc["comps"].items()}
    return Morphism(source, target, comps)


def interleaving_to_json(w):
    return {
        "format": FORMAT,
        "kind": "interleaving",
        "eps": fr_to_str(w.eps),
        "f": morphism_to_json(w.f),
        "g": morphism_to_json(w.g),
        "verified": w.verified,
        "violations": list(w.violations),
    }


def interleaving_from_json(doc):
    _expect_kind(doc, "interleaving")
    return Interleaving(fr_from_str(doc["eps"]),
                        morphism_from_json(doc["f"]),
                        morphism_from_json(doc["g"]),
                        bool(doc["verified"]),
                        tuple(doc.get("violations", ())))


def bracket_to_json(b):
    return {
        "format": FORMAT,
        "kind": "distance-bracket",
        "lower": fr_to_str(b.lower),
        "upper": fr_to_str(b.upper),
        "exact": b.exact,
        "witness": None if b.witness is None else interleaving_to_json(b.witness),
        "certificates": {k: fr_to_str(v) if v is INF or isinstance(v, Fraction) else v
                         for k, v in b.certificates.items()
                         if v is not None},
    }


# ---------------------------------------------------------------------------
# Complexes, metric spaces, bifiltrations
# ---------------------------------------------------------------------------

def complex_to_json(k, values=None):
    doc = {
        "format": FORMAT,
        "kind": "complex",
        "vertices": list(k.vertices),
        "simplices": [list(s) for s in k.simplices],
    }
    if values is not None:
        doc["values"] = {str(v): [fr_to_str(x) for x in values[v]]
                         for v in k.vertices}
    return doc


def complex_from_json(doc):
    _expect_kind(doc, "complex")
    cx = SimplicialComplex(tuple(doc["vertices"]),
                           tuple(tuple(s) for s in doc["simplices"]))
    values = None
    if "values" in doc:
        by_name = {str(v): v for v in cx.vertices}
        values = {by_name[name]: tuple(fr_from_str(x) for x in vec)
                  for name, vec in doc["values"].items()}
    return cx, values


def metric_to_json(m):
    return {
        "format": FORMAT,
        "kind": "metric-space",
        "points": list(m.points),
        "distances": [[fr_to_str(x) for x in row] for row in m.distances],
    }


def metric_from_json(doc):
    _expect_kind(doc, "metric-space")
    return metric_space(doc["points"],
                        [[fr_from_str(x) for x in row] for row in doc["distances"]])


def bifiltration_to_json(b):
    return {
        "format": FORMAT,
        "kind": "bifiltration",
        "n_axes": b.n_axes,
        "complex": complex_to_json(b.complex),
        "grades": [[list(s), [[fr_to_str(x) for x in g] for g in b.grades[s]]]
                   for s in b.complex.simplices],
    }


def bifiltration_from_json(doc):
    _expect_kind(doc, "bifiltration")
    cx, _ = complex_from_json(doc["complex"])
    grades = {tuple(s): tuple(tuple(fr_from_str(x) for x in g) for g in gs)
              for s, gs in doc["grades"]}
    return Bifiltration(cx, grades, _integer(doc["n_axes"], "n_axes"))


def chain_manifest_to_json(term_paths, link_paths):
    return {
        "format": FORMAT,
        "kind": "chain",
        "terms": list(term_paths),
        "links": list(link_paths),
    }


def chain_from_json(doc):
    """A chain manifest: the document itself, once its terms and links are
    checked to be lists of relative paths."""
    _expect_kind(doc, "chain")
    for key in ("terms", "links"):
        if not isinstance(doc[key], list) or not all(isinstance(p, str) for p in doc[key]):
            raise ValidationError(f"chain {key} must be a list of paths")
    return doc


_DECODERS = {
    "module": module_from_json,
    "morphism": morphism_from_json,
    "interleaving": interleaving_from_json,
    "complex": complex_from_json,
    "metric-space": metric_from_json,
    "bifiltration": bifiltration_from_json,
    "chain": chain_from_json,
}


def load_any(path):
    """Load a document by its kind tag; returns (kind, value).  A document
    that does not decode raises ValidationError naming the path."""
    doc = read_json(path)
    kind = doc.get("kind")
    decode = _DECODERS.get(kind) if isinstance(kind, str) else None
    if decode is None:
        raise ValidationError(f"{path}: unknown kind {kind!r}")
    try:
        return kind, decode(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed {kind} document "
                              f"({type(exc).__name__}: {exc})") from exc
