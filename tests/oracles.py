"""Reference implementations that only the tests call: the Cayley
definition of the graph, a subgroup of each order, the halved graphs of
a bipartite graph and the coset-profile reconstruction of a DFT value.
Each one checks a faster or more specific routine of the package."""

import cmath

from dicirculant import group
from dicirculant.cayley import Graph, bit_members, bitset, graph_from_edges
from dicirculant.group import generated_subgroup
from dicirculant.structure import all_pairs_distances, bipartition


def definitional_graph(spec):
    """Adjacency straight from the Cayley definition g^-1 h in S.
    Used as an oracle against build_graph."""
    n = spec.n
    S = spec.R | {t + 2 * n for t in spec.T}
    inverses = (group.inverse(g, n) for g in range(4 * n))
    return Graph(bitset(h for h in range(4 * n)
                        if group.multiply(ginv, h, n) in S)
                 for ginv in inverses)


class InvalidOrderError(ValueError):
    """Requested subgroup order does not divide 4n."""


def subgroup_of_order(n, m):
    """One canonical subgroup of order m: cyclic <a^(2n/m)> when m | 2n,
    otherwise <a^(n/d), b> with d = m/4."""
    if m < 1 or (4 * n) % m != 0:
        raise InvalidOrderError(f"order {m} does not divide {4 * n}")
    if (2 * n) % m == 0:
        # a^(2n/m), reduced so that m = 1 gives the identity and not b
        return generated_subgroup([(2 * n) // m % (2 * n)], n)
    # m | 4n but m does not divide 2n forces 4 | m and (m/4) | n
    return generated_subgroup([n // (m // 4), 2 * n], n)


class NotBipartiteError(ValueError):
    pass


def halved_graphs(g):
    """The distance-2 graph restricted to each part of the bipartition.
    Vertices of each half are its part members in increasing order."""
    parts = bipartition(g)
    if parts is None:
        raise NotBipartiteError("graph has an odd cycle")
    dist = all_pairs_distances(g)
    halves = []
    for part in parts:
        members = sorted(bit_members(part))
        pos = {v: i for i, v in enumerate(members)}
        edges = [(pos[u], pos[v]) for u in members for v in members
                 if u < v and dist[u][v] == 2]
        halves.append(graph_from_edges(len(members), edges))
    return tuple(halves)


def profile_reconstruction(counts, m):
    """sum_i e_i xi^i with xi = w^(m/r); equals (F Delta_A)(m/r)."""
    r = len(counts)
    xi = cmath.exp(2j * cmath.pi / m * (m // r)) if m > 1 else 1.0
    return sum(e * xi ** i for i, e in enumerate(counts))
