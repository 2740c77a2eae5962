"""BFS distances, intersection numbers, and the distance-regularity test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cayley import bit_members

UNREACHABLE = -1


class DisconnectedGraphError(ValueError):
    pass


def bfs_distances(g, v):
    """Shortest-path distances from v; UNREACHABLE where there is no path.
    Bitset frontier expansion: one row-OR per vertex per level."""
    dist = [UNREACHABLE] * g.n_vertices
    dist[v] = 0
    visited = frontier = 1 << v
    level = 0
    while frontier:
        nxt = 0
        for u in bit_members(frontier):
            nxt |= g.rows[u]
        nxt &= ~visited
        visited |= nxt
        level += 1
        for u in bit_members(nxt):
            dist[u] = level
        frontier = nxt
    return dist


def distance_shells(g, v):
    """Shells N_0(v)..N_d(v) as bitsets; raises on a disconnected graph."""
    dist = bfs_distances(g, v)
    if UNREACHABLE in dist:
        raise DisconnectedGraphError(f"vertex {dist.index(UNREACHABLE)} unreachable")
    shells = [0] * (max(dist) + 1)
    for u, distance in enumerate(dist):
        shells[distance] |= 1 << u
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
    r_sets, t_sets = [], []
    for shell in shells:
        r_sets.append(frozenset(v for v in bit_members(shell) if v < m))
        t_sets.append(frozenset(v - m for v in bit_members(shell) if v >= m))
    return DistancePartition(tuple(shells), tuple(r_sets), tuple(t_sets))


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
    triple at each distance)."""
    shells = distance_shells(g, base)
    d = len(shells) - 1
    triples = list(reference) if reference is not None else [None] * (d + 1)
    if reference is not None and len(triples) != d + 1:
        # eccentricity differs between base vertices
        return NotDRGWitness(base, base, d, ("diameter", len(triples) - 1),
                             ("diameter", d))
    for i, shell in enumerate(shells):
        below = shells[i - 1] if i >= 1 else 0
        above = shells[i + 1] if i <= d - 1 else 0
        for v in bit_members(shell):
            row = g.rows[v]
            triple = ((row & below).bit_count(),
                      (row & shell).bit_count(),
                      (row & above).bit_count())
            if triples[i] is None:
                triples[i] = triple
            elif triples[i] != triple:
                return NotDRGWitness(base, v, i, triples[i], triple)
    return triples


def is_distance_regular(g, vertex_transitive_hint=False):
    """IntersectionArray if g is distance-regular, else a NotDRGWitness.

    With the hint, constants are checked against base vertex 0 only,
    which suffices when an automorphism carries 0 to every vertex.
    """
    if g.n_vertices == 1:
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
