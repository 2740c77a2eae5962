"""The named family of a distance-regular graph read off its intersection
array, and graph-level imprimitivity: bipartitions, antipodal fibres and
quotients, and distance-i graphs.

The survey takes only recognize_family from here; it decides antipodality
and primitivity from the distance partition (search.shell_flags).
bipartition, antipodal_classes and is_primitive are the tests' references
for those flags, and the benchmark's tracer looks them up by name."""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import Graph, bit_members, bitset, graph_from_edges
from .metrics import bfs_distances


class IndexOutOfRangeError(ValueError):
    pass


def bipartition(g):
    """(part0, part1) bitsets if g is 2-colorable, else None.  The part
    containing vertex 0 comes first.  Assumes g connected."""
    color = [-1] * g.n_vertices
    color[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for v in bit_members(g.rows[u]):
            if color[v] == -1:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return None
    part0 = bitset(v for v in range(g.n_vertices) if color[v] == 0)
    part1 = bitset(v for v in range(g.n_vertices) if color[v] == 1)
    return part0, part1


def all_pairs_distances(g):
    return [bfs_distances(g, v) for v in range(g.n_vertices)]


def distance_i_graph(g, i):
    """Graph on the same vertices joining pairs at distance exactly i."""
    dist = all_pairs_distances(g)
    diameter = max(max(row) for row in dist)
    if not 1 <= i <= diameter:
        raise IndexOutOfRangeError(f"distance {i} outside 1..{diameter}")
    rows = [bitset(v for v in range(g.n_vertices) if dist[u][v] == i)
            for u in range(g.n_vertices)]
    return Graph(rows)


def is_connected(g):
    return -1 not in bfs_distances(g, 0)


@dataclass(frozen=True)
class AntipodalStructure:
    fibres: tuple  # bitsets, sorted by least member
    p: int  # common fibre size
    quotient: Graph


def antipodal_classes(g, d):
    """Fibres and quotient if 'distance in {0, d}' is an equivalence
    relation, else None.  For d = 1 (complete graphs) the relation is
    universal, so a single fibre equal to V is reported; the source
    material leaves d = 1 undefined and this convention keeps the
    classifier total."""
    dist = all_pairs_distances(g)
    fibre_of = [bitset(v for v in range(g.n_vertices) if dist[u][v] in (0, d))
                for u in range(g.n_vertices)]
    for u in range(g.n_vertices):
        for v in bit_members(fibre_of[u]):
            if fibre_of[v] != fibre_of[u]:
                return None
    fibres = sorted(set(fibre_of))
    sizes = {f.bit_count() for f in fibres}
    if len(sizes) != 1:
        return None
    block_of = {}
    for idx, fibre in enumerate(fibres):
        for v in bit_members(fibre):
            block_of[v] = idx
    edges = set()
    for u, v in g.edges():
        if block_of[u] != block_of[v]:
            edges.add((min(block_of[u], block_of[v]),
                       max(block_of[u], block_of[v])))
    quotient = graph_from_edges(len(fibres), edges)
    return AntipodalStructure(tuple(fibres), sizes.pop(), quotient)


def is_primitive(g, d):
    """True iff every distance-i graph (1 <= i <= d) is connected."""
    return all(is_connected(distance_i_graph(g, i)) for i in range(1, d + 1))


@dataclass(frozen=True)
class FamilyTag:
    kind: str  # Complete | CompleteMultipartite | CrownGraph | Cycle | Unrecognized
    params: tuple = ()
    also: tuple = ()  # secondary matches, e.g. C_4 = K_2,2 is also Cycle(4)

    def __repr__(self):
        inner = ",".join(map(str, self.params))
        base = f"{self.kind}({inner})" if inner else self.kind
        return base + (f" [also {', '.join(self.also)}]" if self.also else "")


def recognize_family(array, n_vertices):
    """Named family of a distance-regular graph on n_vertices vertices,
    read off its IntersectionArray.  d = 1 is K_v.  d = 2 with c_2 = k
    means non-adjacent vertices share all k neighbours, so the graph is
    complete multipartite with parts of size v - k.  {k, k-1, 1; 1, k-1, k}
    forces K_(k+1),(k+1) minus a perfect matching.  k = 2 is the cycle C_v.
    Precedence on overlaps: Complete > CompleteMultipartite > CrownGraph >
    Cycle; the displaced tags are noted in `also`."""
    matches = []
    k, v = array.k, n_vertices
    if array.d == 1:
        matches.append(("Complete", (v,)))
    elif array.d == 2 and array.mu == k:
        matches.append(("CompleteMultipartite", (v // (v - k), v - k)))
    elif (array.b, array.c) == ((k, k - 1, 1), (1, k - 1, k)):
        matches.append(("CrownGraph", (k + 1,)))
    if k == 2:
        matches.append(("Cycle", (v,)))
    if not matches:
        return FamilyTag("Unrecognized")
    kind, params = matches[0]
    also = tuple(f"{name}({','.join(map(str, p))})" for name, p in matches[1:])
    return FamilyTag(kind, params, also)
