"""BFS distances, intersection numbers, and the distance-regularity test.

One level-synchronous bitset BFS gives the distance shells.  The DRG
test runs it to the end from a base vertex, then counts (c, a, b) level
by level and stops at the first unequal triple."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cayley import bit_members

UNREACHABLE = -1


class DisconnectedGraphError(ValueError):
    pass


def _component_shells(g, v):
    """Shells N_0(v), N_1(v), ... of v's component as bitsets.
    Level-synchronous bitset BFS: one row-OR per vertex per level."""
    rows = g.rows
    shells = []
    shell = reached = 1 << v
    while shell:
        shells.append(shell)
        nxt = 0
        for u in bit_members(shell):
            nxt |= rows[u]
        shell = nxt & ~reached
        reached |= shell
    return shells


def bfs_distances(g, v):
    """Shortest-path distances from v; UNREACHABLE where there is no path."""
    dist = [UNREACHABLE] * g.n_vertices
    for level, shell in enumerate(_component_shells(g, v)):
        for u in bit_members(shell):
            dist[u] = level
    return dist


def distance_shells(g, v):
    """Shells N_0(v)..N_d(v) as bitsets; raises on a disconnected graph,
    naming the least unreached vertex."""
    shells = _component_shells(g, v)
    # the shells are disjoint, so their sum is their union
    unreached = (1 << g.n_vertices) - 1 - sum(shells)
    if unreached:
        least = (unreached & -unreached).bit_length() - 1
        raise DisconnectedGraphError(f"vertex {least} unreachable")
    return shells


@dataclass(frozen=True)
class DistancePartition:
    """Distance shells from the identity (vertex 0) of a dicirculant, with
    the exponent sets R_j = {i : a^i in N_j} and T_j = {i : a^i b in N_j}."""

    shells: tuple
    r_sets: tuple  # tuple of frozensets
    t_sets: tuple

    @property
    def diameter(self):
        return len(self.shells) - 1


def distance_partition(spec, g):
    shells = distance_shells(g, 0)
    m = 2 * spec.n
    # vertex a^i is bit i and a^i b is bit m + i
    low = (1 << m) - 1
    return DistancePartition(
        tuple(shells),
        tuple(frozenset(bit_members(shell & low)) for shell in shells),
        tuple(frozenset(bit_members(shell >> m)) for shell in shells))


@dataclass(frozen=True)
class IntersectionArray:
    """{b_0..b_(d-1); c_1..c_d}; a_i, k, lambda, mu are derived."""

    b: tuple
    c: tuple

    @property
    def d(self):
        return len(self.c)

    @property
    def k(self):
        return self.b[0]

    def a(self, i):
        b_i = self.b[i] if i < self.d else 0
        c_i = self.c[i - 1] if i >= 1 else 0
        return self.k - b_i - c_i

    @property
    def lam(self):
        return self.a(1)

    @property
    def mu(self) -> Optional[int]:
        return self.c[1] if self.d >= 2 else None

    def __repr__(self):
        return ("{" + ",".join(map(str, self.b)) + ";"
                + ",".join(map(str, self.c)) + "}")


@dataclass(frozen=True)
class NotDRGWitness:
    u: int
    v: int
    distance: int
    expected: tuple
    found: tuple


def _shell_triples(g, base, reference=None):
    """Per-distance (c, a, b) from one base vertex; returns the triples or
    a NotDRGWitness against `reference` (or against the base's own first
    triple at each distance).

    The full traversal comes first, so a disconnected graph raises and,
    against a reference, an unequal eccentricity is the witness.  Then
    the levels are counted in order up to the first unequal triple: an
    undirected graph joins a level-i vertex only to levels i-1..i+1, so
    b is its degree less c and a."""
    shells = distance_shells(g, base)
    d = len(shells) - 1
    if reference is not None and len(reference) != len(shells):
        # eccentricity differs between base vertices
        return NotDRGWitness(base, base, d, ("diameter", len(reference) - 1),
                             ("diameter", d))
    rows = g.rows
    triples = []
    below = 0
    for i, shell in enumerate(shells):
        expected = None if reference is None else reference[i]
        for v in bit_members(shell):
            row = rows[v]
            c = (row & below).bit_count()
            a = (row & shell).bit_count()
            triple = (c, a, row.bit_count() - c - a)
            if expected is None:
                expected = triple
            elif triple != expected:
                return NotDRGWitness(base, v, i, expected, triple)
        triples.append(expected)
        below = shell
    return triples


def is_distance_regular(g, vertex_transitive_hint=False):
    """IntersectionArray if g is distance-regular, else a NotDRGWitness.

    With the hint, constants are checked against base vertex 0 only,
    which suffices when an automorphism carries 0 to every vertex.
    """
    if g.n_vertices <= 1:
        raise DisconnectedGraphError("graph must have at least one edge")
    triples = _shell_triples(g, 0)
    if isinstance(triples, NotDRGWitness):
        return triples
    if not vertex_transitive_hint:
        for base in range(1, g.n_vertices):
            result = _shell_triples(g, base, reference=triples)
            if isinstance(result, NotDRGWitness):
                return result
    b = tuple(triples[i][2] for i in range(len(triples) - 1))
    c = tuple(triples[i][0] for i in range(1, len(triples)))
    return IntersectionArray(b, c)
