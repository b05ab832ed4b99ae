"""Source hygiene: every name a module of the package imports is used there,
every function and class the package defines is named somewhere else, no
float enters the source, and every function the benchmark's tracer wraps
still exists where the tracer looks for it."""

import ast
import importlib
import re
from pathlib import Path

import obspers

SRC = Path(obspers.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_imports():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for hit in unused_imports(path)]
    assert found == []


def definitions(path):
    """(name, first line, last line) of every top-level function and class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.name, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_definition_is_named_elsewhere():
    # a function or class that nothing names (not the package, the tests,
    # the scripts or the benchmark) is dead code
    sources = {path: path.read_text().splitlines()
               for folder in (SRC, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench")
               for path in sorted(folder.rglob("*.py"))}
    unnamed = []
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for other, lines in sources.items()
                       for i, line in enumerate(lines, 1)
                       if not (other == path and first <= i <= last)):
                unnamed.append(f"{path.name}:{first}: {name}")
    assert unnamed == []


def float_uses(path):
    """The name float and every float or complex literal in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))]


def test_no_float_in_the_source():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in float_uses(path)]
    assert found == []


def traced_functions():
    """TRACED from the tracer's source, read as a literal, never imported."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED list in the tracer")


def test_every_traced_function_exists():
    # the tracer looks each attribute up in vars(owner) and fails on a
    # missing name, so a moved or deleted function would break a traced run
    missing = []
    for _, _, owner, attr in traced_functions():
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        if attr not in vars(obj):
            missing.append(f"{owner}.{attr}")
    assert missing == []
