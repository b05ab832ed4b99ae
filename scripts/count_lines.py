#!/usr/bin/env python3
"""Line counts of Python source, split into code, docstrings, comments and
blank lines.

Every line of a file falls in exactly one class, so the four counts sum to
its line count:

- code: a line that holds a token other than a comment or a docstring
  (a line of a multi-line string that is no docstring is code);
- docstring: any other line of the docstring of a module, class or
  function, blank lines inside it included;
- comment: any other line with a comment;
- blank: the rest.

PATH is a .py file or a directory, searched recursively (default
src/obspers).  Prints one JSON line: the counts of each file, named relative
to PATH, and their total.

    python3 scripts/count_lines.py [PATH]
"""

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree):
    """The (first, last) lines of every docstring in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.lineno, first.end_lineno


def counts(source):
    """{kind: number of lines} of the Python source, for each of KINDS."""
    doc = {i for first, last in _docstrings(ast.parse(source))
           for i in range(first, last + 1)}
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        row, end = tok.start[0], tok.end[0]
        if tok.type == tokenize.COMMENT:
            comment.add(row)
        elif tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING and row in doc):
            code.update(range(row, end + 1))
    out = dict.fromkeys(KINDS, 0)
    for i in range(1, len(source.splitlines()) + 1):
        kind = ("code" if i in code else "docstring" if i in doc
                else "comment" if i in comment else "blank")
        out[kind] += 1
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", nargs="?", default="src/obspers")
    root = Path(ap.parse_args().path)
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    files = {(p.name if p == root else p.relative_to(root).as_posix()):
             counts(p.read_text()) for p in paths}
    total = {kind: sum(c[kind] for c in files.values()) for kind in KINDS}
    print(json.dumps({"path": str(root), "files": files, "total": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
