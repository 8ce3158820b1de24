"""Static checks on the package source: no unused import, no private
function or method that nothing else in the package refers to, and no
public function, method or class that nothing in the package, the
demos or the benchmark refers to.  A reference from the tests alone
does not keep a public name: code that only the tests run belongs in
the tests."""

import ast
import os
import re
from collections import Counter

import ainfmf

PACKAGE = os.path.dirname(ainfmf.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the directories whose code may keep a public package name, and those
# whose string constants may too: the benchmark's tracer names what it
# patches by string ("mirror_eval", "Model.rho_apply")
CODE_USERS = ("demos", "benchmark")
STRING_USERS = ("benchmark",)


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


def string_references(node):
    """Counter of the identifier parts of the string constants of a
    subtree: "Model.rho_apply" refers to Model and rho_apply."""
    return Counter(
        part for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        for part in re.findall(r"[A-Za-z_]\w*", sub.value))


def unreferenced_public_names(package, users):
    """(module, name) for each public function, method or class of the
    package trees {module: tree} that nothing refers to but its own
    definition.  users maps a top-level directory to its list of trees:
    names and attributes in the code of CODE_USERS count, and so do the
    string constants of STRING_USERS; no other directory counts, the
    tests among them."""
    refs = sum((references(tree) for tree in package.values()), Counter())
    for top, trees in users.items():
        for tree in trees:
            if top in CODE_USERS:
                refs += references(tree)
            if top in STRING_USERS:
                refs += string_references(tree)
    return [
        (name, node.name)
        for name, tree in package.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not node.name.startswith("_")
        and refs[node.name] == references(node)[node.name]]


def test_no_unreferenced_public_names():
    users = {top: list(modules(os.path.join(ROOT, top)).values())
             for top in CODE_USERS}
    assert not unreferenced_public_names(modules(), users)


def test_public_name_rule_ignores_the_tests():
    # a public function that only a test calls is flagged; a benchmark
    # string naming it, as the tracer names what it patches, keeps it
    package = {"mod.py": ast.parse("def scratch_only():\n    return 1\n")}
    test = ast.parse("import mod\n\ndef test_it():\n"
                     "    assert mod.scratch_only() == 1\n")
    bench = ast.parse("import mod\nPATCHED = ['mod.scratch_only']\n")
    assert unreferenced_public_names(package, {"tests": [test]}) == [
        ("mod.py", "scratch_only")]
    assert unreferenced_public_names(package, {"benchmark": [bench]}) == []
