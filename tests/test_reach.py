"""Every public function, class and method of the package is used by it,
and every parameter default of them is overridden by it.

A name counts as used when some code in ``src/loopoid_lab`` other than its
own definition refers to it, by name or as an attribute.  Imports do not
count, and neither do tests: library code that only tests reach belongs in
the tests.  Click commands are exempt, since the command line reaches them.
A method is checked by its name alone, so it counts as used when any
attribute of that name is read in the package.

A parameter with a default is a setting, and a setting no caller sets is a
knob: its default is the one value the package runs with, so it belongs at
its one place of use.  A parameter counts as set when some call in the
package, outside the function's own body, passes it by keyword, reaches its
position, or passes ``*args`` or ``**kwargs``.  Calls are matched by name,
as above; a call of a class sets the parameters of its ``__init__``, or the
fields of a dataclass.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loopoid_lab"

# public names kept although nothing in the package uses them, and
# parameter defaults ("module.function.parameter") kept although nothing
# in the package sets them, each with the reason it stays
ALLOWED = {}


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
    assert sorted(set(unreached()) - set(ALLOWED)) == []


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settings(node):
    """(parameter, position or None) of each parameter with a default of a
    function, of a class's ``__init__`` or of a dataclass's fields; a
    position counts the arguments of a call, so it skips ``self``."""
    if isinstance(node, ast.ClassDef):
        if _is_dataclass(node):
            fields = [m for m in node.body if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
            return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
        inits = [m for m in node.body if isinstance(m, ast.FunctionDef) and m.name == "__init__"]
        return _settings(inits[0]) if inits else []
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first_default = len(positional) - len(args.defaults)
    out = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first_default]
    out += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _sets(call, parameter, position):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_defaults():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    calls = {}  # callee name -> the calls of that name
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(n)
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            outside = [c for c in calls.get(node.name, []) if id(c) not in inside]
            for parameter, position in _settings(node):
                if not any(_sets(c, parameter, position) for c in outside):
                    out.append(f"{module[:-3]}.{qualname}.{parameter}")
    return out


def test_every_default_is_set_by_a_caller():
    assert sorted(set(unset_defaults()) - set(ALLOWED)) == []
