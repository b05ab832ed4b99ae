"""Golden test of the command line: the gallery of scripts/make_examples.py
run through a fixed list of commands, every byte of what they print and
write hashed into one sha256.

The commands run in process, from the test's own directory, with relative
paths, so the paths they print do not depend on where the test runs.  The
hash covers each command's argv, exit code, stdout and stderr, then every
file under the directory (the gallery included) by relative path and
content.  A change that moves any of them fails here; when the move is
intended, the new hash is printed in the assertion message.
"""

import hashlib
import io
import json
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from obspers.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_examples.py"

COMMANDS = [
    "validate gallery/random_module.json",
    "validate gallery/interleaving.json",
    "validate gallery/chain.json",
    "sum gallery/mlam/mlam_1.json gallery/mlam/mlam_2.json --out out/sum",
    "smooth --epsilon 1 gallery/random_module.json --out out/smooth",
    "discretize --epsilon 1/2 gallery/random_module.json --out out/discretize",
    "rank --epsilon 1 gallery/library_sum.json",
    "decompose gallery/library_sum.json --out out/decompose",
    "iso gallery/mlam/mlam_1.json gallery/mlam/mlam_2.json",
    "--out out/iso iso gallery/mlam/mlam_3.json gallery/mlam/mlam_3.json",
    "interleave --epsilon 1 gallery/mlam/mlam_1.json gallery/mlam/mlam_2.json --out out/il",
    "interleave --epsilon 1/2 gallery/random_module.json gallery/library_sum.json",
    "distance gallery/mlam/mlam_1.json gallery/mlam/mlam_2.json",
    "distance gallery/library_sum.json gallery/random_module.json",
    "limit gallery/chain.json --out out/limit",
    "probe --delta 1 gallery/mlam --out out/probe",
    "trivial --sigma 1 gallery/random_module.json",
    "near-indec --tau 1 gallery/library_sum.json",
    "genericity --trials 2 gallery/mlam/mlam_1.json",
    "sublevel gallery/triangle.json --out out/sublevel",
    "degree-rips --radii 1,3 --degrees 1,2 gallery/cluster_metric.json --out out/rips",
    "homology --dim 0 out/sublevel/sublevel.json --out out/h0",
    "homology --dim 1 out/rips/degree_rips.json --out out/h1",
    # error paths: a file of the wrong kind for each loader, a bad chain link
    "sum gallery/chain.json gallery/random_module.json",
    "limit gallery/random_module.json",
    "limit bad_chain.json",
    "sublevel gallery/random_module.json",
    "degree-rips --radii 1 --degrees 1 gallery/triangle.json",
    "homology --dim 0 gallery/cluster_metric.json",
    "validate gallery/triangle.json",
    "validate gallery/cluster_metric.json",
    "distance --budget 1 gallery/library_sum.json gallery/random_module.json",
    "interleave --budget 1 --epsilon 1 gallery/mlam/mlam_1.json gallery/mlam/mlam_2.json",
]

# Recorded before StepModule.path_map became the one cached structure-map
# kernel; every change since must leave it as it is.
GOLDEN = "d8865e36dc3eda31a4611bc0213e9d714bb44315e994cfb36cc40736791e9dde"


def gallery_digest(root, monkeypatch):
    monkeypatch.chdir(root)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out", "gallery", "--seed", "0"])
    with redirect_stdout(io.StringIO()):
        runpy.run_path(str(SCRIPT), run_name="__main__")
    chain = json.loads((root / "gallery" / "chain.json").read_text())
    chain.update(terms=[f"gallery/{t}" for t in chain["terms"]],
                 links=["gallery/chain_term_0.json", "gallery/chain_link_1.json"])
    (root / "bad_chain.json").write_text(json.dumps(chain))
    h = hashlib.sha256()
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(command.split())
        h.update(json.dumps([command, code, out.getvalue(), err.getvalue()]).encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_cli_gallery_is_byte_identical(tmp_path, monkeypatch):
    got = gallery_digest(tmp_path, monkeypatch)
    assert got == GOLDEN, f"CLI gallery output changed: sha256 {got}"
