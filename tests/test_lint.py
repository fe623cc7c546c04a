"""No helper of the package serves only the tests, or nothing.

Every public module-level function and class of ``src/plausible``, and
every private module-level function, class and constant, must be named
outside its own definition somewhere in ``src/``, ``scripts/`` or
``perfbench/`` (its tests excluded): read, imported or looked up as an
attribute.  Every public method or property of a public class must be
looked up as an attribute there: a bare name of the same spelling, such
as a local variable, does not count.  So a helper that a refactor leaves
orphaned fails here.  Likewise every name a module of ``src/plausible`` or
``scripts/`` imports at its top level must be read in that module or
listed in its ``__all__``.  And no function defined inside another there
reads its own name unless the enclosing function deletes it, so no call
leaves a recursive closure behind as a reference cycle.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _attributes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr


def _public_definitions(module):
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _paths():
    bench = ROOT / "perfbench"
    return [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
            *(path for path in bench.rglob("*.py")
              if "tests" not in path.relative_to(bench).parts)]


def test_public_helpers_are_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in _paths()}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    read = Counter(name for tree in trees.values()
                   for name in _attributes(tree))
    unused = []
    for path in sorted((ROOT / "src" / "plausible").glob("*.py")):
        for qualified, node in _public_definitions(trees[path]):
            # a method or property is used only when read as an attribute
            uses = _attributes if "." in qualified else _names
            found = read if "." in qualified else named
            if found[node.name] == Counter(uses(node))[node.name]:
                unused.append(f"{path.stem}.{qualified}")
    assert not unused, unused


def _module_references(trees, path):
    """How often each name is read as a name of the module at path: bare
    in the module itself, or elsewhere as ``module.name`` or imported from
    it.  So another module's function of the same name does not count."""
    stem = path.stem
    found = Counter(node.id for node in ast.walk(trees[path])
                    if isinstance(node, ast.Name))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == stem:
                found[node.attr] += 1
            elif isinstance(node, ast.ImportFrom) \
                    and (node.module or "").rpartition(".")[2] == stem:
                found.update(alias.name for alias in node.names)
    return found


def _private_definitions(module):
    """Each private module-level function, class and constant, with the
    statement that defines it; a dunder such as ``__all__`` is not
    private."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.endswith("__"))


def test_private_names_are_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in _paths()}
    unused = []
    for path in sorted((ROOT / "src" / "plausible").glob("*.py")):
        found = _module_references(trees, path)
        for name, node in _private_definitions(trees[path]):
            # a recursive call, or a constant's own target, does not count
            own = sum(isinstance(n, ast.Name) and n.id == name
                      for n in ast.walk(node))
            if found[name] == own:
                unused.append(f"{path.stem}.{name}")
    assert not unused, unused


def _unread_imports(module):
    """The names the module's top-level imports bind that it never reads
    and its ``__all__`` does not list; ``__future__`` imports aside."""
    read = {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    yield name


def test_module_imports_are_read():
    paths = [*(ROOT / "src" / "plausible").glob("*.py"),
             *(ROOT / "scripts").glob("*.py")]
    unread = [f"{path.relative_to(ROOT)}: {name}" for path in sorted(paths)
              for name in _unread_imports(ast.parse(path.read_text()))]
    assert not unread, unread


def _recursive_closures(module):
    """Each function defined inside another that reads its own name,
    unless the enclosing function deletes that name: the closure holds
    itself through its cell, a reference cycle that only a collection
    frees."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for outer in ast.walk(module):
        if not isinstance(outer, functions):
            continue
        deleted = {node.id for node in ast.walk(outer)
                   if isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Del)}
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, functions) \
                    and inner.name not in deleted \
                    and any(isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Load)
                            and node.id == inner.name
                            for node in ast.walk(inner)):
                yield f"{outer.name}.{inner.name}"


def test_no_recursive_closure_outlives_its_call():
    paths = [*(ROOT / "src" / "plausible").glob("*.py"),
             *(ROOT / "scripts").glob("*.py")]
    found = {f"{path.relative_to(ROOT)}: {name}" for path in sorted(paths)
             for name in _recursive_closures(ast.parse(path.read_text()))}
    assert not found, sorted(found)
