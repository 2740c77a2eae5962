"""Dead-code guards: every module-level function, class and assigned
name in the package is named somewhere in the package besides its own
definition, is public API, or is a benchmark pin; no module of the
package or of the tests imports a name it never uses; and every name
the benchmark's tracer looks up is still in the package."""

import ast
import collections
import importlib
import pathlib

import dicirculant

SRC = pathlib.Path(dicirculant.__file__).parent
TESTS = pathlib.Path(__file__).parent
TRACER = TESTS.parent / "bench" / "tracer.py"

# Kept although nothing in the package calls them: bench/tracer.py looks
# each one up by name.  A helper that only tests reach belongs in
# tests/oracles.py instead.
ORACLES = {
    "bipartition": "graph-level bipartiteness, the reference for the bipartite flag",
    "antipodal_classes": "graph-level antipodality, the reference for shell_flags",
    "is_primitive": "graph-level primitivity, the reference for shell_flags",
    "generated_subgroup": "closure under multiplication, the reference for generates_group and is_subgroup",
}


def _tracer_layers():
    """The (module, function) pairs of LAYERS in bench/tracer.py, read
    without importing the benchmark."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no LAYERS")


def _names(node):
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(name, node) for each module-level function, class and assigned
    name of the module, dunder names left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name


def test_every_definition_is_used_exported_or_an_oracle():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    uses = sum((_names(tree) for tree in trees), collections.Counter())
    unused = {name for tree in trees for name, node in _definitions(tree)
              if uses[name] == _names(node)[name]}
    assert unused - set(dicirculant.__all__) == set(ORACLES)


def _unused_imports(tree):
    """Names bound by an import that the module never loads, apart from
    __future__ imports and the names listed in __all__."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    return bound - loaded - exported


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {f"{path.parent.name}/{path.name}": names for path in paths
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def test_every_traced_name_is_in_the_package():
    layers = _tracer_layers()
    for module, name in layers:
        func = getattr(importlib.import_module(f"dicirculant.{module}"), name, None)
        assert callable(func), f"dicirculant.{module}.{name}"
    assert set(ORACLES) <= {name for _, name in layers}
