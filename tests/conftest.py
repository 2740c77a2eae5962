import pytest

from dicirculant import search


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
