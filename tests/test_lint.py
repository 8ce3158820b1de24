"""Static checks on the package source: no unused import, no private
function or method that nothing else in the package refers to, and no
public function, method or class that nothing in the package, the
tests, the demos or the benchmark refers to."""

import ast
import os
from collections import Counter

import ainfmf

PACKAGE = os.path.dirname(ainfmf.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USERS = ("tests", "demos", "benchmark")


def modules(top=PACKAGE):
    """{path below top: parsed module} for every source file under top."""
    out = {}
    for dirpath, _, names in sorted(os.walk(top)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    out[os.path.relpath(path, top)] = ast.parse(fh.read(),
                                                                path)
    return out


def references(node):
    """Counter of the names a subtree refers to: bare names and the
    attribute names of attribute accesses."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in modules().items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(name, b) for b in bound if b not in used]
    assert not unused


def test_no_unreferenced_private_functions():
    # a reference from inside the function itself (recursion) does not
    # count
    trees = modules()
    refs = sum((references(tree) for tree in trees.values()), Counter())
    unreferenced = [
        (name, node.name)
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and refs[node.name] == references(node)[node.name]]
    assert not unreferenced


def test_no_unreferenced_public_names():
    # a name or an attribute in code counts; a string does not, nor
    # does a reference from inside the definition itself
    trees = modules()
    users = [tree for top in USERS
             for tree in modules(os.path.join(ROOT, top)).values()]
    refs = sum((references(tree) for tree in [*trees.values(), *users]),
               Counter())
    unreferenced = [
        (name, node.name)
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not node.name.startswith("_")
        and refs[node.name] == references(node)[node.name]]
    assert not unreferenced
