"""Dead-code guard: every module-level function and class in the package
is named somewhere in the package besides its own definition, is public
API, or is an oracle that the tests or the acceptance criteria use."""

import ast
import collections
import pathlib

import dicirculant

SRC = pathlib.Path(dicirculant.__file__).parent

# Kept although nothing in the package calls them.  A new helper that only
# tests reach belongs here, with its reason, or nowhere.
ORACLES = {
    "definitional_graph": "Cayley definition g^-1 h in S, the reference for build_graph",
    "subgroup_of_order": "a subgroup of each order 4n allows, the reference for is_subgroup",
    "antipodal_classes": "graph-level antipodality, the reference for shell_flags",
    "is_primitive": "graph-level primitivity, the reference for shell_flags",
    "halved_graphs": "halves of the n = 8 bipartite witness, checked complete in acceptance",
    "coset_profile": "coset counts e_i for the profile-reconstruction acceptance check",
    "profile_reconstruction": "sum e_i xi^i, checked against the DFT value in acceptance",
}


def _names(node):
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_used_exported_or_an_oracle():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    uses = sum((_names(tree) for tree in trees), collections.Counter())
    unused = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and uses[node.name] == _names(node)[node.name]}
    assert unused - set(dicirculant.__all__) == set(ORACLES)
