"""No public helper of the package serves only the tests.

Every public module-level function and class of ``src/plausible``, and
every public method of a public class, must be named outside its own
definition somewhere in ``src/``, ``scripts/`` or ``perfbench/`` (its
tests excluded): read, imported or looked up as an attribute.
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


def test_public_helpers_are_used_outside_the_tests():
    bench = ROOT / "perfbench"
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
             *(path for path in bench.rglob("*.py")
               if "tests" not in path.relative_to(bench).parts)]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for path in sorted((ROOT / "src" / "plausible").glob("*.py")):
        for qualified, node in _public_definitions(trees[path]):
            own = Counter(_names(node))[node.name]
            if named[node.name] == own:
                unused.append(f"{path.stem}.{qualified}")
    assert not unused, unused
