"""Source hygiene: every name a module of the package imports is used there."""

import ast
from pathlib import Path

import obspers

SRC = Path(obspers.__file__).parent


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
