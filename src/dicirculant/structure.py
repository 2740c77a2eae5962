"""Imprimitivity machinery: bipartitions, antipodal fibres and quotients,
halved graphs, distance-i graphs, equitable partitions, and recognizers
for the named distance-regular families of circulants."""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import Graph, bit_members, bitset, graph_from_edges
from .fourier import _is_prime
from .metrics import bfs_distances


class NotBipartiteError(ValueError):
    pass


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


def is_primitive(g, d):
    """True iff every distance-i graph (1 <= i <= d) is connected."""
    return all(is_connected(distance_i_graph(g, i)) for i in range(1, d + 1))


def is_equitable(g, partition):
    """The quotient matrix (b_ij) if every vertex of block i has the same
    number of neighbors in block j, else None.  Blocks may be any
    iterables of vertices; they must cover the vertex set disjointly."""
    blocks = [bitset(block) if not isinstance(block, int) else block
              for block in partition]
    covered = 0
    for block in blocks:
        if covered & block:
            raise ValueError("partition blocks overlap")
        covered |= block
    if covered != (1 << g.n_vertices) - 1:
        raise ValueError("partition does not cover the vertex set")
    matrix = []
    for block in blocks:
        counts = None
        for v in bit_members(block):
            row = [(g.rows[v] & other).bit_count() for other in blocks]
            if counts is None:
                counts = row
            elif counts != row:
                return None
        matrix.append(counts)
    return matrix


@dataclass(frozen=True)
class FamilyTag:
    kind: str  # Complete | CompleteMultipartite | CrownGraph | Paley | Cycle | Unrecognized
    params: tuple = ()
    also: tuple = ()  # secondary matches, e.g. C_5 is both Paley(5) and Cycle(5)

    def __repr__(self):
        inner = ",".join(map(str, self.params))
        base = f"{self.kind}({inner})" if inner else self.kind
        return base + (f" [also {', '.join(self.also)}]" if self.also else "")


def _complete_multipartite_params(g):
    comp = g.complement()
    seen = 0
    sizes = []
    for v in range(g.n_vertices):
        if seen >> v & 1:
            continue
        component = bitset([v])
        frontier = [v]
        while frontier:
            u = frontier.pop()
            fresh = comp.rows[u] & ~component
            component |= fresh
            frontier.extend(bit_members(fresh))
        size = component.bit_count()
        for u in bit_members(component):
            if (comp.rows[u] & component).bit_count() != size - 1:
                return None  # component is not a clique
        sizes.append(size)
        seen |= component
    if len(set(sizes)) != 1:
        return None
    return len(sizes), sizes[0]


def _is_crown(g):
    parts = bipartition(g)
    if parts is None:
        return None
    sizes = [p.bit_count() for p in parts]
    m = sizes[0]
    if sizes[1] != m or m < 3 or g.n_vertices != 2 * m:
        return None
    if any(g.degree(v) != m - 1 for v in range(g.n_vertices)):
        return None
    # each vertex misses exactly one cross vertex; misses must pair up
    part0, part1 = parts
    misses = {}
    for u in bit_members(part0):
        missing = list(bit_members(part1 & ~g.rows[u]))
        if len(missing) != 1:
            return None
        misses[u] = missing[0]
    if len(set(misses.values())) != m:
        return None
    return m


def paley_graph(q):
    squares = {(x * x) % q for x in range(1, q)}
    return graph_from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                                if (u - v) % q in squares])


def _to_networkx(g):
    import networkx as nx  # see _is_paley
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n_vertices))
    gx.add_edges_from(g.edges())
    return gx


def _is_paley(g):
    q = g.n_vertices
    if not (_is_prime(q) and q % 4 == 1):
        return None
    if any(g.degree(v) != (q - 1) // 2 for v in range(q)):
        return None
    # networkx is imported here, not at the top: it is half of the
    # package's memory, and no dicirculant (4n vertices) has the prime
    # order that reaches this line.
    import networkx as nx
    if nx.is_isomorphic(_to_networkx(g), _to_networkx(paley_graph(q))):
        return q
    return None


def recognize_family(g):
    """Structural detection of the circulant DRG families.  Precedence on
    overlaps: Complete > CompleteMultipartite > CrownGraph > Paley > Cycle;
    the displaced tags are noted in `also`."""
    matches = []
    nv = g.n_vertices
    if all(g.degree(v) == nv - 1 for v in range(nv)):
        matches.append(("Complete", (nv,)))
    else:
        multipartite = _complete_multipartite_params(g)
        if multipartite is not None and multipartite[0] >= 2 and multipartite[1] >= 2:
            matches.append(("CompleteMultipartite", multipartite))
        crown = _is_crown(g)
        if crown is not None:
            matches.append(("CrownGraph", (crown,)))
        paley = _is_paley(g)
        if paley is not None:
            matches.append(("Paley", (paley,)))
    if nv >= 3 and all(g.degree(v) == 2 for v in range(nv)) and is_connected(g):
        matches.append(("Cycle", (nv,)))
    if not matches:
        return FamilyTag("Unrecognized")
    kind, params = matches[0]
    also = tuple(f"{k}({','.join(map(str, p))})" for k, p in matches[1:])
    return FamilyTag(kind, params, also)
