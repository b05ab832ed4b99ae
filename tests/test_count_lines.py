"""scripts/count_lines.py: code, docstring, comment and blank lines
partition every file."""

import json
import runpy
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import obspers

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "count_lines.py"
SRC = Path(obspers.__file__).parent
counts = runpy.run_path(str(SCRIPT))["counts"]

FIXTURE = '''"""Module docstring,

over three lines."""
# a comment

import os  # code with a comment


def f(x):
    """One line."""
    s = """a string
that is code"""
    # another comment
    return x


class C:
    def g(self):
        """Two
        lines."""
'''


def test_counts_are_exact_on_a_fixture():
    assert counts(FIXTURE) == {"code": 7, "docstring": 6, "comment": 2, "blank": 5}


def test_counts_partition_every_source_file(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["count_lines.py", str(SRC)])
    out = StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert done.value.code == 0
    doc = json.loads(out.getvalue())
    files = sorted(SRC.rglob("*.py"))
    assert sorted(doc["files"]) == [p.relative_to(SRC).as_posix() for p in files]
    for path in files:
        got = doc["files"][path.relative_to(SRC).as_posix()]
        assert sum(got.values()) == len(path.read_text().splitlines()), path.name
    assert doc["total"] == {kind: sum(c[kind] for c in doc["files"].values())
                            for kind in ("code", "docstring", "comment", "blank")}
