"""Every module-level private name of the package has a reader, and every
defaulted parameter of a module-level private function has a caller that
passes it.

A private function, class or constant that nothing in src/linkbench reads
is dead code that still looks alive: a kernel replaced but left behind,
or a knob that no path consults. So is a parameter that every call leaves
at its default, such as a side channel whose one caller has gone.
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


def private_defaults(tree):
    """(function, parameter, position) for each parameter with a default of
    a top-level private function; position is None for a keyword-only
    one."""
    for name, node in module_private_names(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k in range(first, len(positional)):
            yield name, positional[k].arg, k
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def passes(call, parameter, position):
    """Whether call passes parameter: by position, by keyword, or maybe
    through *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(kw.arg in (None, parameter) for kw in call.keywords)


def unpassed_defaults(trees):
    """"function: parameter" for each defaulted parameter of a top-level
    private function that no call by name in trees passes."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    return [f"{function}: {parameter}" for tree in trees
            for function, parameter, position in private_defaults(tree)
            if not any(passes(call, parameter, position)
                       for call in calls.get(function, []))]


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


def test_every_private_default_is_passed():
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    unpassed = unpassed_defaults(trees)
    assert not unpassed, unpassed


def test_an_unpassed_default_is_caught():
    source = ("def _scale(x, factor=2, /, step=1, *, offset=0, knob=None, "
              "top):\n    return x\n\n"
              "def _spread(x, extra=0):\n    return x\n\n"
              "def f(args, kw):\n"
              "    return _scale(1, 3, top=0) + _scale(2, offset=1, top=0)"
              " + _spread(*args)\n\n"
              "def g(x=1):\n    return _scale(x)\n")
    tree = ast.parse(source)
    assert list(private_defaults(tree)) == [
        ("_scale", "factor", 1), ("_scale", "step", 2),
        ("_scale", "offset", None), ("_scale", "knob", None),
        ("_spread", "extra", 1)]
    # g's own default is not a private function's; *args may pass extra
    assert unpassed_defaults([tree]) == ["_scale: step", "_scale: knob"]
    # **kw may pass any keyword, here through an attribute call in another
    # module
    other = ast.parse("def h(kw):\n    return m._scale(0, **kw)\n")
    assert unpassed_defaults([tree, other]) == []
