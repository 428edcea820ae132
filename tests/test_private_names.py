"""Every module-level private name of the package has a reader.

A private function, class or constant that nothing in src/linkbench reads
is dead code that still looks alive: a kernel replaced but left behind,
or a knob that no path consults.
"""

import ast
from pathlib import Path

import linkbench

PACKAGE = Path(linkbench.__file__).parent


def module_private_names(tree):
    """(name, node) for each top-level def, class or assignment of a name
    with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def reads(tree, skip):
    """Names read in tree, as ast.Name loads or attributes, outside the
    nodes in skip."""
    inside = {id(n) for node in skip for n in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_module_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    unread = []
    for module, tree in trees.items():
        for name, definition in module_private_names(tree):
            read = any(name in reads(other, [definition] if other is tree
                                     else [])
                       for other in trees.values())
            if not read:
                unread.append(f"{module}: {name}")
    assert not unread, unread


def test_an_unread_private_name_is_caught():
    tree = ast.parse("def _used():\n    return _used()\n\n"
                     "_KNOB = 3\n\ndef f():\n    return _helper()\n\n"
                     "def _helper():\n    return 1\n")
    found = dict(module_private_names(tree))
    assert sorted(found) == ["_KNOB", "_helper", "_used"]
    # a recursive call reads the name only inside its own definition
    assert "_used" not in set(reads(tree, [found["_used"]]))
    assert "_KNOB" not in set(reads(tree, [found["_KNOB"]]))
    assert "_helper" in set(reads(tree, [found["_helper"]]))
