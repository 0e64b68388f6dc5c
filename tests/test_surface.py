"""Every function, class and method of the package has a reader.

A public name is read when it is referred to, outside its own definition,
by code in src/, by the README's Library example, by
tests/test_acceptance.py or by a traced entry point in bench/tracing.py.
A private function, class or method (a dunder name aside) is read only by
code in src/.  The other test files do not count: a name that only they
read is surface kept for the tests alone, and a helper kept only as a
test's check route belongs in tests/.  Names are matched as names, so a
method is read when any attribute of that name is.
"""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fkmorse").glob("*.py"))


def _references(tree: ast.AST, imports: bool) -> Counter:
    """Names and attributes a tree refers to, and, if asked, the names it
    imports (an import in the package itself is not a use)."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif imports and isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def _public(name: str) -> bool:
    return not name.startswith("_")


def _private(name: str) -> bool:
    """A leading underscore, but not a dunder name."""
    return name.startswith("_") and not (name.startswith("__") and
                                         name.endswith("__"))


def _definitions(tree: ast.Module, kept=_public):
    """(qualified name, name, node) of each module-level function or class
    and of each method whose name is kept, public ones by default."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                kept(node.name):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and kept(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _traced_names() -> Counter:
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("surface_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return Counter(part for _, attr, _, _ in module.SPANS
                   for part in attr.split("."))


def test_every_public_name_has_a_reader():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")

    read: Counter = Counter()
    for tree in trees:
        read += _references(tree, imports=False)
    read += _references(ast.parse(snippet), imports=True)
    read += _references(ast.parse(acceptance), imports=True)
    read += _traced_names()

    unread = [qualified for tree in trees
              for qualified, name, node in _definitions(tree)
              if read[name] - _references(node, imports=False)[name] <= 0]
    assert unread == []


def test_every_private_function_is_read_by_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    read: Counter = Counter()
    for tree in trees:
        read += _references(tree, imports=False)
    unread = [qualified for tree in trees
              for qualified, name, node in _definitions(tree, _private)
              if read[name] - _references(node, imports=False)[name] <= 0]
    assert unread == []
