"""No module of the package or its tests imports a name it never uses.

A name an import binds counts as used when the module reads it somewhere
else, as a name or as the root of an attribute, or lists it in
``__all__``.  An import that runs for its side effect or re-exports names
says so with ``# noqa: F401`` on its first line, which only
``__init__.py`` needs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "loopoid_lab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import binds and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a import b, c  # noqa: F401\nfrom d import e\nnp.zeros(e)\n"
    assert unused_imports(source) == [(1, "os")]
