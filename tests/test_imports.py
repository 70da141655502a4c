"""Every import in the package is used (a stdlib stand-in for a linter)."""

import ast
from pathlib import Path

import bwexp

PACKAGE = Path(bwexp.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by an import and never read; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_sees_unused_imports():
    source = "import os.path\nimport re as regex\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os)\n"
    assert unused_imports(source) == ["pi (line 3)", "regex (line 2)"]


def test_package_has_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    unused = {path.name: unused_imports(path.read_text()) for path in paths}
    assert not {name: names for name, names in unused.items() if names}
