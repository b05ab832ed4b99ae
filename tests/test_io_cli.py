"""JSON round trips and the command line interface (in process; one test
also runs it in a process of its own)."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import obspers
from obspers import library, serialize
from obspers.calculus import discretize, shift
from obspers.cli import build_parser, main as cli_main
from obspers.errors import ValidationError
from obspers.fields import PrimeField
from obspers.metric import INF, distance_bracket, verify
from obspers.pipelines import (Bifiltration, SimplicialComplex, degree_rips, metric_space,
                               sublevel_bifiltration)
from obspers.stepmodule import Grid, direct_sum, identity_morphism, validate_morphism

from conftest import non_module

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def write_module(path, v):
    serialize.write_json(path, serialize.module_to_json(v))
    return path


# -- serialization round trips ---------------------------------------------------

def round_trip_bytes(doc, from_json, to_json):
    first = serialize.dumps(doc)
    again = serialize.dumps(to_json(from_json(json.loads(first))))
    assert first == again
    return from_json(json.loads(first))


def test_module_round_trip():
    rng = np.random.default_rng(2)
    v = library.random_module(F5, rng)
    got = round_trip_bytes(serialize.module_to_json(v),
                           serialize.module_from_json,
                           serialize.module_to_json)
    assert got == v


def test_morphism_and_interleaving_round_trip():
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    ident = identity_morphism(v)
    m = round_trip_bytes(serialize.morphism_to_json(ident),
                         serialize.morphism_from_json,
                         serialize.morphism_to_json)
    assert validate_morphism(m) == []
    pair = discretize(v, Fraction(1, 2))
    wit = verify(v, pair.module, Fraction(1, 2), pair.f, pair.g)
    assert wit.verified
    w = round_trip_bytes(serialize.interleaving_to_json(wit),
                         serialize.interleaving_from_json,
                         serialize.interleaving_to_json)
    assert w.eps == Fraction(1, 2) and w.verified


def test_complex_metric_bifiltration_round_trip():
    from obspers.pipelines import complex_from_simplices
    cx = complex_from_simplices([(0, 1), (1, 2), (0, 2)])
    values = {v: (Fraction(v, 4), Fraction(1, 3)) for v in cx.vertices}
    doc = serialize.complex_to_json(cx, values)
    got_cx, got_values = round_trip_bytes(
        doc, serialize.complex_from_json,
        lambda pair: serialize.complex_to_json(pair[0], pair[1]))
    assert got_cx == cx and got_values == values

    m = metric_space(["a", "b"], [[0, Fraction(3, 2)], [Fraction(3, 2), 0]])
    got_m = round_trip_bytes(serialize.metric_to_json(m),
                             serialize.metric_from_json,
                             serialize.metric_to_json)
    assert got_m == m

    pts = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    b = degree_rips(metric_space(list(range(3)), pts), [1, 2], [1, 2])
    got_b = round_trip_bytes(serialize.bifiltration_to_json(b),
                             serialize.bifiltration_from_json,
                             serialize.bifiltration_to_json)
    assert got_b == b


def test_bracket_json_markers():
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    same = distance_bracket(v, v)
    doc = serialize.bracket_to_json(same)
    assert doc["lower"] == "0" and doc["upper"] == "0" and doc["exact"]
    far = distance_bracket(v, library.single_cell_module(F2, (0, 0), 1, 2))
    doc = serialize.bracket_to_json(far)
    assert doc["upper"] == "inf" and doc["witness"] is None


def test_fraction_markers():
    assert serialize.fr_to_str(Fraction(3, 4)) == "3/4"
    assert serialize.fr_to_str(Fraction(2)) == "2"
    assert serialize.fr_from_str("3/4") == Fraction(3, 4)
    assert serialize.fr_from_str("inf") is INF
    assert serialize.fr_to_str(INF) == "inf"


def test_inf_is_an_ordered_singleton():
    import copy
    import pickle

    q = Fraction(10 ** 9, 7)
    assert not isinstance(INF, float)
    assert q < INF and INF > q and q <= INF and INF >= q and 0 < INF
    assert not (INF < q or q > INF or INF <= q or q >= INF or INF < INF)
    assert INF <= INF and INF >= INF and INF == INF and INF != q and q != INF
    assert max(Fraction(1), INF, q) is INF and sorted([INF, q]) == [q, INF]
    assert {INF: 1}[copy.deepcopy(INF)] == 1 and pickle.loads(pickle.dumps(INF)) is INF
    with pytest.raises(TypeError):
        INF < "1"


def test_bad_documents_rejected(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format": "other/9", "kind": "module"}\n')
    with pytest.raises(ValidationError):
        serialize.read_json(p)
    q = tmp_path / "y.json"
    for kind in ("mystery", ["module"]):
        q.write_text(json.dumps({"format": serialize.FORMAT, "kind": kind}))
        with pytest.raises(ValidationError, match="unknown kind"):
            serialize.load_any(q)
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    doc = serialize.module_to_json(v)
    doc["steps"].append({"at": [1, 1], "axis": 0, "matrix": [[1]]})
    with pytest.raises(ValidationError):
        serialize.module_from_json(doc)


# -- CLI -------------------------------------------------------------------------

def test_cli_validate_module(tmp_path):
    v = library.m_lambda(5, 2)
    path = write_module(tmp_path / "m.json", v)
    code, out, err = run_cli(["validate", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["input_kind"] == "module"

    broken = serialize.module_to_json(
        library.constant_module(F2, Grid(((0, 1), (0, 1)))))
    broken["steps"][0]["matrix"] = [[0]]
    bad = tmp_path / "bad.json"
    serialize.write_json(bad, broken)
    code, out, err = run_cli(["validate", bad])
    assert code == 1
    assert "square" in err


def test_cli_validate_morphism_with_an_undersized_source_step(tmp_path):
    # a 1x1 step where the edge's dimensions are 2 -> 2: zero padding must
    # not pass it as [[1, 0], [0, 0]]
    v = direct_sum(*(library.constant_module(F2, Grid(((0, 1),))),) * 2)
    doc = serialize.morphism_to_json(identity_morphism(v))
    doc["source"]["steps"][0]["matrix"] = [[1]]
    path = tmp_path / "bad.json"
    serialize.write_json(path, doc)
    code, out, err = run_cli(["validate", path])
    assert (code, out) == (1, "")
    assert err == "error: step at (0,) axis 0 has shape (1, 1), expected (2, 2)\n"


def test_cli_validate_names_a_missing_step_of_an_endpoint(tmp_path):
    # a morphism, and an interleaving, whose source module lacks its first
    # step: validate words the error, with no traceback
    v = direct_sum(*(library.constant_module(F2, Grid(((0, 1),))),) * 2)
    doc = serialize.morphism_to_json(identity_morphism(v))
    del doc["source"]["steps"][0]
    u = library.constant_module(F2, Grid(((0, 1, 2), (0, 1, 2))))
    pair = discretize(u, 1)
    wit = serialize.interleaving_to_json(verify(u, pair.module, 1, pair.f, pair.g))
    del wit["f"]["source"]["steps"][0]
    for name, bad, at in (("m.json", doc, "(0,)"), ("w.json", wit, "(0, 0)")):
        path = tmp_path / name
        serialize.write_json(path, bad)
        code, out, err = run_cli(["validate", path])
        assert (code, out, err) == (1, "", f"error: missing step at {at} axis 0\n")


def test_cli_validate_names_a_missing_dimension_of_an_endpoint(tmp_path):
    # a morphism, and a 0-interleaving, one of whose endpoint modules lacks
    # a dimension: the endpoints are checked before the components' shapes,
    # so validate words the error, with no traceback
    v = direct_sum(*(library.constant_module(F2, Grid(((0, 1),))),) * 2)
    e = identity_morphism(v)
    doc = serialize.morphism_to_json(e)
    del doc["source"]["dims"]["1"]
    wit = serialize.interleaving_to_json(verify(v, v, 0, e, e))
    del wit["f"]["target"]["dims"]["1"]
    for name, bad in (("m.json", doc), ("w.json", wit)):
        path = tmp_path / name
        serialize.write_json(path, bad)
        code, out, err = run_cli(["validate", path])
        assert (code, out, err) == (1, "", "error: missing dimension at (1,)\n")


def test_cli_validate_rejects_entries_that_are_not_integers(tmp_path):
    doc = serialize.module_to_json(library.constant_module(F2, Grid(((0, 1),))))
    doc["steps"][0]["matrix"] = [[0.5]]
    path = tmp_path / "half.json"
    serialize.write_json(path, doc)
    code, out, err = run_cli(["validate", path])
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: step at (0,) axis 0: entries must be integers, "
                   "found a fraction, nan or inf\n")


def test_module_from_json_rejects_dimensions_that_are_not_integers():
    doc = serialize.module_to_json(library.constant_module(F2, Grid(((0, 1),))))
    doc["dims"]["1"] = 1.7
    with pytest.raises(ValidationError, match=r"dimension at \(1,\) must be an integer, not 1.7"):
        serialize.module_from_json(doc)


def test_module_from_json_rejects_a_field_p_that_is_not_an_integer():
    doc = serialize.module_to_json(library.constant_module(F2, Grid(((0, 1),))))
    doc["field"]["p"] = 2.5  # int() would read F_2
    with pytest.raises(ValidationError, match="field p must be an integer, not 2.5"):
        serialize.module_from_json(doc)


def test_bifiltration_from_json_rejects_n_axes_that_is_not_an_integer():
    b = degree_rips(metric_space(list(range(3)), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
                    [1, 2], [1, 2])
    doc = serialize.bifiltration_to_json(b)
    doc["n_axes"] = 2.5  # int() would read 2 axes
    with pytest.raises(ValidationError, match="n_axes must be an integer, not 2.5"):
        serialize.bifiltration_from_json(doc)


def float_documents():
    """(kind, document) for every kind whose decoder reads rationals, with one
    JSON float where a rational goes."""
    from obspers.pipelines import complex_from_simplices
    v = library.constant_module(F2, Grid(((0, 1),)))
    ident = identity_morphism(v)
    module = serialize.module_to_json(v)
    module["grid"][0][0] = 0.1
    morphism = serialize.morphism_to_json(ident)
    morphism["target"]["grid"][0][1] = 1.0
    interleaving = serialize.interleaving_to_json(verify(v, v, 0, ident, ident))
    interleaving["eps"] = 0.0
    complex_doc = serialize.complex_to_json(complex_from_simplices([(0, 1)]), {0: (0,), 1: (1,)})
    complex_doc["values"]["1"] = [0.5]
    metric = serialize.metric_to_json(metric_space(["a", "b"], [[0, 1], [1, 0]]))
    metric["distances"][0][1] = metric["distances"][1][0] = 1.5
    pts = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    bifiltration = serialize.bifiltration_to_json(
        degree_rips(metric_space(list(range(3)), pts), [1, 2], [1, 2]))
    bifiltration["grades"][0][1][0][0] = 0.5
    return [pytest.param(doc["kind"], doc, id=doc["kind"])
            for doc in (module, morphism, interleaving, complex_doc, metric, bifiltration)]


@pytest.mark.parametrize("kind,doc", float_documents())
def test_json_floats_raise_in_every_decoder(tmp_path, kind, doc):
    # Fraction(0.1) would read 3602879701896397/36028797018963968
    with pytest.raises(ValidationError, match="is not an exact rational"):
        serialize._DECODERS[kind](doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(serialize.dumps(doc))
    code, out, err = run_cli(["validate", path])
    assert (code, out) == (1, "") and err.startswith(f"error: {path}: "), err


def bool_documents():
    """(document, message) params, each document with JSON bools where a
    rational or an axis goes; Python reads true as the int 1 and false as 0."""
    grid = serialize.module_to_json(library.constant_module(F2, Grid(((0, 1),))))
    grid["grid"] = [[False, True]]
    metric = serialize.metric_to_json(metric_space(["a", "b"], [[0, 1], [1, 0]]))
    metric["distances"] = [[False, True], [True, False]]
    step = serialize.module_to_json(library.constant_module(F2, Grid(((0, 1), (0, 1)))))
    entry = next(e for e in step["steps"] if e["axis"] == 1)
    entry["axis"] = True
    return [pytest.param(doc, match, id=name) for name, doc, match in (
        ("grid", grid, "not an exact rational"),
        ("distances", metric, "not an exact rational"),
        ("step axis", step, "axis of the step at .* must be an integer, not True"))]


@pytest.mark.parametrize("doc,match", bool_documents())
def test_json_bools_raise_where_numbers_go(tmp_path, doc, match):
    with pytest.raises(ValidationError, match=match):
        serialize._DECODERS[doc["kind"]](doc)
    path = tmp_path / "bool.json"
    path.write_text(serialize.dumps(doc))
    code, out, err = run_cli(["validate", path])
    assert (code, out) == (1, "") and err.startswith(f"error: {path}: "), err


def test_cli_rejects_an_invalid_metric_space(tmp_path):
    doc = serialize.metric_to_json(metric_space(["a", "b", "c"],
                                                [[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    doc["distances"][0][1] = "-1"
    doc["distances"][1][2] = "3"
    path = tmp_path / "bad_metric.json"
    path.write_text(serialize.dumps(doc))
    with pytest.raises(ValidationError, match="negative distance at .0,1."):
        serialize.metric_from_json(doc)
    for argv in (["degree-rips", "--radii", "1,2", "--degrees", "1,2", path,
                  "--out", tmp_path / "rips"], ["validate", path]):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: {path}: ") and "asymmetry at (1,2)" in err, argv


def test_cli_homology_rejects_a_prime_that_is_not_small(tmp_path):
    b = degree_rips(metric_space(list(range(3)), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
                    [1, 2], [1, 2])
    path = tmp_path / "rips.json"
    serialize.write_json(path, serialize.bifiltration_to_json(b))
    assert run_cli(["homology", "--dim", "0", "--prime", "3", path])[0] == 0
    code, out, err = run_cli(["homology", "--dim", "0", "--prime", "4", path])
    assert (code, out, err) == (1, "", "error: p must be a small prime, got 4\n")
    with pytest.raises(ValidationError):
        PrimeField(4)


def test_cli_rejects_a_negative_degree(tmp_path):
    m = metric_space(list(range(3)), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    b = degree_rips(m, [1, 2], [1, 2])
    path, space = tmp_path / "rips.json", tmp_path / "space.json"
    serialize.write_json(path, serialize.bifiltration_to_json(b))
    serialize.write_json(space, serialize.metric_to_json(m))
    code, out, err = run_cli(["homology", "--dim", "-1", path])
    assert (code, out, err) == (1, "", "error: homology degree must be at least 0, not -1\n")
    code, out, err = run_cli(["degree-rips", "--radii", "1,2", "--degrees", "1,2",
                              "--max-dim", "-1", space])
    assert (code, out, err) == (1, "", "error: max_dim must be at least 0, not -1\n")


def bad_bifiltration(grades):
    """A bifiltration over the simplices of grades, with no check made."""
    simplices = list(grades)
    vertices = sorted({x for s in simplices for x in s})
    return Bifiltration(SimplicialComplex(vertices, simplices), grades, 2)


@pytest.mark.parametrize("b, dim, message", [
    # a triangle stored without its edges
    (bad_bifiltration({(0,): ((0, 0),), (1,): ((0, 0),), (2,): ((0, 0),),
                       (0, 1, 2): ((0, 0),)}), 1,
     "face (1, 2) of (0, 1, 2) is missing; face (0, 2) of (0, 1, 2) is missing; "
     "face (0, 1) of (0, 1, 2) is missing"),
    # an edge present before its vertex 0
    (bad_bifiltration({(0,): ((1, 1),), (1,): ((0, 0),), (0, 1): ((0, 0),)}), 0,
     "monotonicity: face (0,) absent at grade (Fraction(0, 1), Fraction(0, 1)) of (0, 1)"),
    # a grade of 3 coordinates in a document of 2 axes, under --grid auto
    (bad_bifiltration({(0,): ((0, 0),), (1,): ((0, 0),), (0, 1): ((0, 0, 0),)}), 0,
     "grade (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)) of (0, 1) has wrong arity"),
], ids=["missing-faces", "not-monotone", "wrong-arity"])
def test_cli_homology_rejects_what_validate_rejects(tmp_path, b, dim, message):
    path = tmp_path / "bad.json"
    serialize.write_json(path, serialize.bifiltration_to_json(b))
    want = (1, "", f"error: {message}\n")
    assert run_cli(["validate", path]) == want
    assert run_cli(["homology", "--dim", dim, path]) == want


def test_cli_validate_interleaving_rechecks(tmp_path):
    v = library.constant_module(F2, Grid(((0, 1, 2), (0, 1, 2))))
    pair = discretize(v, 1)
    wit = verify(v, pair.module, 1, pair.f, pair.g)
    good = tmp_path / "w.json"
    serialize.write_json(good, serialize.interleaving_to_json(wit))
    code, _, _ = run_cli(["validate", good])
    assert code == 0
    doc = json.loads(good.read_text())
    for key in sorted(doc["f"]["comps"]):
        rows = doc["f"]["comps"][key]
        if any(any(x for x in row) for row in rows):
            doc["f"]["comps"][key] = [[0 for x in row] for row in rows]
            break
    tampered = tmp_path / "t.json"
    tampered.write_text(serialize.dumps(doc))
    code, _, err = run_cli(["validate", tampered])
    assert code == 1
    assert "does not verify" in err


def test_cli_validate_invalid_complex(tmp_path):
    doc = {"format": serialize.FORMAT, "kind": "complex",
           "vertices": [0, 1], "simplices": [[0], [1], [0, 1], [0, 1]]}
    p = tmp_path / "cx.json"
    p.write_text(serialize.dumps(doc))
    code, _, err = run_cli(["validate", p])
    assert code == 1 and "duplicate" in err


def test_cli_rejects_a_non_commuting_module_everywhere(tmp_path):
    grid = Grid(((0, 1), (0, 1)))
    broken = serialize.module_to_json(library.constant_module(F2, grid))
    broken["steps"][0]["matrix"] = [[0]]
    bad = tmp_path / "bad.json"
    serialize.write_json(bad, broken)
    good = write_module(tmp_path / "good.json", library.constant_module(F2, grid))
    for argv in (["rank", "--epsilon", "1", bad], ["decompose", bad],
                 ["distance", bad, good], ["distance", good, bad]):
        code, out, err = run_cli(argv + ["--out", tmp_path / "out"])
        assert code == 1, argv
        assert out == "" and "square" in err, argv


def malformed_module_docs():
    """(name, document) for module documents that do not decode."""
    base = serialize.module_to_json(library.constant_module(F2, Grid(((0, 1), (0, 1)))))
    no_field = dict(base)
    del no_field["field"]
    bad_axis = json.loads(json.dumps(base))
    bad_axis["steps"][0]["axis"] = 5
    bad_prime = dict(base, field={"p": 4})
    return [("no-field", no_field), ("axis-5", bad_axis), ("p-4", bad_prime)]


@pytest.mark.parametrize("name,doc", malformed_module_docs())
def test_malformed_module_documents_exit_1(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize.dumps(doc))
    with pytest.raises(ValidationError, match=name):
        serialize.load_any(path)
    for argv in (["validate", path], ["rank", "--epsilon", "1", path]):
        code, out, err = run_cli(argv)
        assert code == 1 and out == "" and err.startswith("error:"), (argv, err)


def test_malformed_chain_manifest_exits_1(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(serialize.dumps({"format": serialize.FORMAT, "kind": "chain",
                                      "terms": ["t0.json"]}))
    code, out, err = run_cli(["limit", chain, "--out", tmp_path / "lim"])
    assert code == 1 and out == "" and err.startswith("error:") and "chain.json" in err


def test_cli_missing_file(tmp_path):
    code, _, err = run_cli(["validate", tmp_path / "absent.json"])
    assert code == 1 and "error" in err


def test_cli_sum(tmp_path):
    a = library.m_lambda(5, 1)
    b = library.m_lambda(5, 2)
    pa = write_module(tmp_path / "a.json", a)
    pb = write_module(tmp_path / "b.json", b)
    code, out, _ = run_cli(["sum", pa, pb])
    assert code == 0
    s = serialize.module_from_json(json.loads(out))
    assert s.total_dim == a.total_dim + b.total_dim


def test_cli_iso_self_writes_identity_witness(tmp_path):
    v = library.m_lambda(5, 3)
    p = write_module(tmp_path / "m.json", v)
    outdir = tmp_path / "out"
    code, out, _ = run_cli(["iso", p, p, "--out", outdir])
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    wkind, wit = serialize.load_any(doc["witness"])
    assert wkind == "morphism" and validate_morphism(wit) == []
    for g, comp in wit.comps.items():
        assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))


def test_cli_iso_negative_exit_2(tmp_path):
    a = write_module(tmp_path / "a.json", library.m_lambda(5, 1))
    b = write_module(tmp_path / "b.json", library.m_lambda(5, 2))
    code, out, err = run_cli(["iso", a, b, "--out", tmp_path / "o"])
    assert code == 2
    assert json.loads(out)["isomorphic"] is False
    assert "not isomorphic" in err


def test_cli_interleave_threshold(tmp_path):
    v = library.single_cell_module(F2, (0, 0), 1, 2)
    w = shift(v, Fraction(1, 4))
    pa = write_module(tmp_path / "v.json", v)
    pb = write_module(tmp_path / "w.json", w)
    code, out, err = run_cli(["interleave", "--epsilon", "1/8", pa, pb])
    assert code == 2
    assert json.loads(out)["exists"] is False and "no 1/8-interleaving" in err
    outdir = tmp_path / "out"
    code, out, _ = run_cli(["interleave", "--epsilon", "1/4", pa, pb,
                            "--out", outdir])
    assert code == 0
    doc = json.loads(out)
    assert doc["exists"] is True
    kind, wit = serialize.load_any(doc["witness"])
    assert kind == "interleaving"
    again = verify(wit.f.source, wit.g.source, wit.eps, wit.f, wit.g)
    assert again.verified


def test_cli_budget_exit_3(tmp_path):
    v = library.constant_module(F2, Grid(((0, 1), (0, 1))))
    p = write_module(tmp_path / "c.json", v)
    code, _, err = run_cli(["interleave", "--epsilon", "0", p, p,
                            "--budget", "1"])
    assert code == 3 and "budget" in err


def test_cli_rejects_a_budget_below_one(tmp_path):
    # a module against itself is at distance 0, never "inf", and a budget
    # that allows no candidate is a usage error, not a search that ran out
    p = write_module(tmp_path / "v.json", library.box_interval(F2, Grid(((0, 1), (0, 1))), (0, 0)))
    for argv in (["distance", p, p, "--budget", "-5"],
                 ["iso", p, p, "--budget", "-1"],
                 ["decompose", p, "--budget", "-1"],
                 ["interleave", "--epsilon", "0", p, p, "--budget", "0"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "") and "search budget must be at least 1" in err, argv
    code, out, _ = run_cli(["distance", p, p, "--budget", "2"])
    assert code == 0 and json.loads(out)["upper"] == "0"


def test_cli_comparisons_reject_modules_over_different_fields(tmp_path):
    g = Grid(((0, 1, 2, 3), (0, 1, 2, 3)))
    a = write_module(tmp_path / "a.json", library.box_interval(F2, g, (0, 0), (2, 2)))
    b = write_module(tmp_path / "b.json", library.box_interval(F3, g, (1, 1), (1, 1)))
    c = write_module(tmp_path / "c.json", library.box_interval(F3, g, (0, 0), (3, 3)))
    for argv in (["interleave", "--epsilon", "0", a, b],
                 ["interleave", "--epsilon", "1", a, b],
                 ["distance", a, c]):
        code, out, err = run_cli([*argv, "--out", tmp_path / "o"])
        assert code == 1 and out == "" and "field mismatch" in err, argv


def run_cli_process(argv):
    """Exit code and stdout of the command line in a process of its own."""
    src = str(Path(obspers.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "obspers.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout


def test_cli_parser_is_shared_without_leaking_options(tmp_path):
    p = write_module(tmp_path / "c.json", library.constant_module(F2, Grid(((0, 1), (0, 1)))))
    calls = (["interleave", "--epsilon", "0", p, p, "--budget", "1", "--out", tmp_path / "o"],
             ["interleave", "--epsilon", "0", p, p, "--out", tmp_path / "o"])
    assert build_parser() is build_parser()
    together = [run_cli(argv)[:2] for argv in calls]
    assert [code for code, _ in together] == [3, 0]
    assert together == [run_cli_process(argv) for argv in calls]


def test_cli_bad_rational_is_a_usage_error(tmp_path):
    mpath = tmp_path / "m.json"
    serialize.write_json(mpath, serialize.metric_to_json(metric_space([0, 1], [[0, 1], [1, 0]])))
    for argv in (["degree-rips", "--radii", "1/0", "--degrees", "0", mpath],
                 ["degree-rips", "--radii", "1,x", "--degrees", "0", mpath],
                 ["interleave", "--epsilon", "1/0", mpath, mpath]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_cli_distance(tmp_path):
    rng = np.random.default_rng(4)
    v = library.random_module(F2, rng)
    pv = write_module(tmp_path / "v.json", v)
    outdir = tmp_path / "disc"
    code, out, _ = run_cli(["discretize", "--epsilon", "1/2", pv,
                            "--out", outdir])
    assert code == 0
    code, out, _ = run_cli(["distance", pv, outdir / "discretize.json"])
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["upper"]) <= Fraction(1, 2)
    assert Fraction(doc["lower"]) <= Fraction(doc["upper"])

    code, out, _ = run_cli(["distance", pv, pv])
    doc = json.loads(out)
    assert doc["lower"] == "0" and doc["upper"] == "0" and doc["exact"]


def test_cli_decompose_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    v, _ = library.random_library_sum(5, rng, 3)
    p = write_module(tmp_path / "v.json", v)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    code1, stdout1, _ = run_cli(["decompose", p, "--out", out1])
    code2, stdout2, _ = run_cli(["decompose", p, "--out", out2])
    assert code1 == code2 == 0
    d1, d2 = json.loads(stdout1), json.loads(stdout2)
    assert d1["count"] == d2["count"]
    assert d1["signature"] == d2["signature"]
    for f1, f2 in zip(sorted(out1.iterdir()), sorted(out2.iterdir())):
        assert f1.read_bytes() == f2.read_bytes()


def test_cli_genericity_byte_identical(tmp_path):
    p = write_module(tmp_path / "m.json", library.m_lambda(5, 2))
    a = run_cli(["genericity", "--trials", "5", "--seed", "3", p])
    b = run_cli(["genericity", "--trials", "5", "--seed", "3", p])
    assert a == b and a[0] == 0
    doc = json.loads(a[1])
    assert doc["accepted"] == sum(1 for t in doc["trials"] if t["accepted"])
    assert doc["passes"] == doc["accepted"]


def test_cli_sublevel_homology_grid_flags(tmp_path):
    from obspers.pipelines import complex_from_simplices
    cx = complex_from_simplices([(0, 1), (1, 2), (0, 2)])
    values = {0: (0, 1), 1: (1, Fraction(1, 2)), 2: (Fraction(1, 2), 0)}
    cpath = tmp_path / "cx.json"
    serialize.write_json(cpath, serialize.complex_to_json(cx, values))
    outdir = tmp_path / "out"
    code, out, _ = run_cli(["sublevel", cpath, "--out", outdir])
    assert code == 0
    bpath = outdir / "sublevel.json"

    code, out, _ = run_cli(["homology", "--dim", "0", bpath])
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"] == [["0", "1/2", "1"], ["0", "1/2", "1"]]
    assert doc["field"] == {"p": 2}  # --prime defaults to 2
    with pytest.raises(SystemExit), redirect_stderr(io.StringIO()):
        cli_main(["homology", "--dim", "0", "--field-p", "3", str(bpath)])

    code, out, _ = run_cli(["homology", "--dim", "1", "--grid", "1,2;1,2",
                            "--prime", "3", bpath])
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"] == [["1", "2"], ["1", "2"]]
    assert doc["field"] == {"p": 3}
    assert doc["dims"]["0,0"] == 1  # hollow triangle closed at (1,1)


def test_cli_limit_and_probe(tmp_path):
    v = library.m_lambda(5, 1)
    write_module(tmp_path / "t0.json", v)
    write_module(tmp_path / "t1.json", v)
    ident = identity_morphism(v)
    link = verify(v, v, 0, ident, ident)
    serialize.write_json(tmp_path / "l0.json", serialize.interleaving_to_json(link))
    serialize.write_json(tmp_path / "chain.json",
                         serialize.chain_manifest_to_json(
                             ["t0.json", "t1.json"], ["l0.json"]))
    outdir = tmp_path / "lim"
    code, out, _ = run_cli(["limit", tmp_path / "chain.json", "--out", outdir])
    assert code == 0
    doc = json.loads(out)
    assert [Fraction(t) for t in doc["tails"]] == [0, 0]
    assert (outdir / "limit.json").read_bytes() == (tmp_path / "t0.json").read_bytes()
    assert len(doc["certificates"]) == 2
    for cert in doc["certificates"]:
        kind, wit = serialize.load_any(cert)
        assert kind == "interleaving" and wit.verified

    fam = tmp_path / "fam"
    fam.mkdir()
    for lam in (1, 2, 3, 4):
        write_module(fam / f"mlam_{lam}.json", library.m_lambda(5, lam))
    code, out, _ = run_cli(["probe", "--delta", "1", fam, "--out", tmp_path / "pr"])
    assert code == 0
    doc = json.loads(out)
    assert doc["class_count"] == 4 and doc["exact"] is True
    assert len(doc["representatives"]) == 4
    assert sorted(doc["labels"]) == sorted(f"mlam_{k}.json" for k in (1, 2, 3, 4))


def test_cli_trivial_and_near_indec(tmp_path):
    cell = write_module(tmp_path / "cell.json",
                        library.single_cell_module(F2, (0, 0), 1, 2))
    code, out, _ = run_cli(["trivial", "--sigma", "1", cell])
    assert code == 0 and json.loads(out)["strict"] is True
    code, out, _ = run_cli(["trivial", "--sigma", "1/2", cell])
    assert code == 0 and json.loads(out)["strict"] is False

    m = write_module(tmp_path / "m.json", library.m_lambda(5, 2))
    code, out, _ = run_cli(["near-indec", "--tau", "1", m])
    assert code == 0
    doc = json.loads(out)
    assert doc["tau_indecomposable"] is True and doc["offender_count"] <= 1


def test_cli_validate_rejects_a_morphism_between_non_modules(tmp_path):
    # the identity of a module whose square does not commute is natural,
    # but neither endpoint is a module
    path = tmp_path / "id.json"
    serialize.write_json(path, serialize.morphism_to_json(identity_morphism(non_module())))
    code, out, err = run_cli(["validate", path])
    assert (code, out) == (1, "")
    assert err == ("error: source is not a module: square at (0, 0) axes (0,1) does not commute; "
                   "target is not a module: square at (0, 0) axes (0,1) does not commute\n")
