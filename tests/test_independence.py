"""The classifier and the BFS test are two independent code paths: the
survey's cross-check means something only while neither can borrow the
other's answer.  Checked on the import graph of the package, transitively,
so an intermediate module cannot carry one side into the other."""

import ast
import pathlib

import dicirculant

SRC = pathlib.Path(dicirculant.__file__).parent


def _package_imports(source):
    """The package modules that `source`, a module of the package,
    imports directly."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "dicirculant":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("dicirculant."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("dicirculant."))
    return found


def _reachable(module):
    """Every package module that importing `module` loads, itself excluded."""
    seen, stack = set(), [module]
    while stack:
        source = (SRC / f"{stack.pop()}.py").read_text()
        for dep in _package_imports(source) - seen:
            seen.add(dep)
            stack.append(dep)
    return seen - {module}


def test_import_reader_sees_every_form():
    source = ("from __future__ import annotations\nimport math\n"
              "from . import group\nfrom .cayley import bitset\n"
              "from dicirculant import fourier\n"
              "from dicirculant.metrics import UNREACHABLE\n"
              "import dicirculant.search\n"
              "def f():\n    from .structure import bipartition\n")
    assert _package_imports(source) == {"group", "cayley", "fourier", "metrics",
                                        "search", "structure"}


def test_classifier_reaches_no_bfs_module():
    assert _reachable("classifier").isdisjoint({"metrics", "search", "structure"})


def test_bfs_module_reaches_no_classifier_module():
    assert _reachable("metrics").isdisjoint(
        {"classifier", "fourier", "search", "structure"})
