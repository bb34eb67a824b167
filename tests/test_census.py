"""Census of src/ranspace: every definition there is reached by the program.

Every top-level function or class of ``src/ranspace/*.py``, and every
method whose name does not start with ``__``, must be reached from
``perfbench/*.py`` or from module-level code in ``src/`` (``__init__``'s
imports aside), directly or through definitions that are reached
themselves.  A reference is a name, an attribute or an import alias, and
in ``perfbench/`` also a string constant, since ``perfbench/tracer.py``
lists the names it rebinds as strings.  A definition's references to
itself do not reach it.  Code that only tests reach lives in the tests.

What click calls reaches the rest, as module-level code does: the
``@main.command`` callbacks and the methods of a class derived from a
click class.  So do ALLOWED, the documented conveniences that no module
calls.  A name that collides with another, such as a function named like
a numpy one, counts as reached: the census cannot tell the two apart.

Run as a script, it prints each unreached name with its file and line.
"""

import ast
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ranspace"
ALLOWED = {"Homotopy.of_cells", "Track.configs"}


def _called_by_click(top) -> bool:
    """A @main.command callback, or a class derived from a click class."""
    if isinstance(top, ast.ClassDef):
        return any(ast.unparse(base).startswith("click.") for base in top.bases)
    return any(isinstance(d, ast.Call) and ast.unparse(d.func) == "main.command" for d in top.decorator_list)


def _definitions(tree):
    """(qualified name, bare name, node, top-level node) of each top-level
    function or class, and of each method whose name does not start with
    __."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item, node


def _references(tree, imports: bool, strings: bool):
    """(name, line) of every name, attribute, import alias (if imports)
    and string constant (if strings) in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias) and imports:
            yield from ((name, node.lineno) for name in (node.name, node.asname) if name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and strings:
            yield node.value, node.lineno


def unreached() -> list:
    """(file, line, qualified name) of every definition in src/ranspace
    that nothing in src/ or perfbench/ reaches, in file order."""
    defs = []  # (key "file:qualified", bare name, node, top-level node)
    owners = defaultdict(list)  # name -> key of the innermost definition holding each reference, None at module level
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = [(f"{path.name}:{qualified}", *rest) for qualified, *rest in _definitions(tree)]
        defs += found
        for name, line in _references(tree, imports=path.name != "__init__.py", strings=False):
            holders = [key for key, _, node, _ in found if node.lineno <= line <= node.end_lineno]
            owners[name].append(holders[-1] if holders else None)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for name, _ in _references(ast.parse(path.read_text(), str(path)), imports=True, strings=True):
            owners[name].append(None)
    reached = {key for key, _, _, top in defs if _called_by_click(top) or key.split(":")[1] in ALLOWED}
    grew = True
    while grew:
        grew = False
        for key, name, _, _ in defs:
            if key not in reached and any(owner != key and (owner is None or owner in reached) for owner in owners[name]):
                reached.add(key)
                grew = True
    return [(f"src/ranspace/{key.split(':')[0]}", node.lineno, key.split(":")[1]) for key, _, node, _ in defs if key not in reached]


def test_every_src_definition_is_reached_by_src_or_perfbench():
    assert unreached() == []


def test_star_import_binds_the_public_names_and_no_module():
    import ranspace

    namespace = {}
    exec("from ranspace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ranspace.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


if __name__ == "__main__":
    found = unreached()
    for path, line, name in found:
        print(f"{path}:{line}: {name}")
    print(f"{len(found)} unreached")
    sys.exit(1 if found else 0)
