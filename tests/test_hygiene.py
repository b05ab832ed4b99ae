"""Source hygiene: every name a module of the package imports is used there,
every function and class the package defines is named somewhere else, every
private top-level name is used by the package itself, no float enters the
source, and every function the benchmark's tracer wraps still exists where
the tracer looks for it."""

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


def private_definitions(tree):
    """(name, first line, last line) of every top-level function, class and
    assigned name of the module that starts with one underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(name, node.lineno, node.end_lineno) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def references(tree):
    """(name, line) of every ast.Name, ast.Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_definition_is_used_in_the_package():
    # a private helper kept alive only by its tests or a docstring is dead
    # code: only references in src/ count, outside the helper's own lines
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            used.setdefault(name, []).append((path, line))
    unused = [f"{path.name}:{first}: {name}" for path, tree in trees.items()
              for name, first, last in private_definitions(tree)
              if all(other == path and first <= line <= last
                     for other, line in used.get(name, ()))]
    assert unused == []


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
