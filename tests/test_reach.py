"""Every public function, class and method of the package is used by it.

A name counts as used when some code in ``src/loopoid_lab`` other than its
own definition refers to it, by name or as an attribute.  Imports do not
count, and neither do tests: library code that only tests reach belongs in
the tests.  Click commands are exempt, since the command line reaches them.
A method is checked by its name alone, so it counts as used when any
attribute of that name is read in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loopoid_lab"

# public names kept although nothing in the package uses them
ALLOWED = set()


def _is_click_command(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _definitions(tree):
    """(qualified name, node) of each public module-level function and class
    and of each public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or _is_click_command(node):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def unreached():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {}  # name -> ids of the nodes that refer to it
    for tree in trees.values():
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, set()).add(id(n))
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not refs.get(node.name, set()) - inside:
                out.append(f"{module[:-3]}.{qualname}")
    return out


def test_every_public_name_is_reached():
    assert sorted(set(unreached()) - ALLOWED) == []
