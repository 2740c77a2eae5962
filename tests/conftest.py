import pytest

from dicirculant import search
from dicirculant.cayley import bit_members
from dicirculant.metrics import (DisconnectedGraphError, IntersectionArray,
                                 NotDRGWitness)


def all_valid_specs(n, dedup=False):
    return list(search.enumerate_specs(n, dedup=dedup))


def naive_bfs_distances(g, start):
    """Queue BFS on adjacency lists; oracle for the bitset BFS."""
    from collections import deque
    dist = [-1] * g.n_vertices
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def two_pass_distance_shells(g, v):
    """A full distance list from the queue BFS, then the shells from it;
    oracle for the bitset metrics.distance_shells."""
    dist = naive_bfs_distances(g, v)
    if -1 in dist:
        raise DisconnectedGraphError(f"vertex {dist.index(-1)} unreachable")
    shells = [0] * (max(dist) + 1)
    for u, distance in enumerate(dist):
        shells[distance] |= 1 << u
    return shells


def full_bfs_shell_triples(g, base, reference=None):
    """All shells first, then (c, a, b) per level with b counted in the
    next shell; oracle for metrics._shell_triples, which counts b as the
    degree less c and a."""
    shells = two_pass_distance_shells(g, base)
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


def full_bfs_distance_regularity(g, vertex_transitive_hint=False):
    """metrics.is_distance_regular on full_bfs_shell_triples."""
    if g.n_vertices == 1:
        raise DisconnectedGraphError("graph must have at least one edge")
    triples = full_bfs_shell_triples(g, 0)
    if isinstance(triples, NotDRGWitness):
        return triples
    if not vertex_transitive_hint:
        for base in range(1, g.n_vertices):
            result = full_bfs_shell_triples(g, base, reference=triples)
            if isinstance(result, NotDRGWitness):
                return result
    return IntersectionArray(tuple(triples[i][2] for i in range(len(triples) - 1)),
                             tuple(triples[i][0] for i in range(1, len(triples))))


class _SurveyCache(dict):
    elapsed = None


@pytest.fixture(scope="session")
def surveys_upto_6():
    """The full n=1..6 survey, shared by the acceptance criteria.  The
    wall-clock time of the whole run is attached for the runtime budget."""
    import time
    start = time.monotonic()
    reports = _SurveyCache({n: search.survey(n) for n in range(1, 7)})
    reports.elapsed = time.monotonic() - start
    return reports
