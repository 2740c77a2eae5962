import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_valid_specs, full_bfs_distance_regularity,
                      full_bfs_shell_triples, naive_bfs_distances,
                      two_pass_distance_shells)
from dicirculant.cayley import Graph, bitset, build_graph, validate_spec
from dicirculant.metrics import (DisconnectedGraphError, IntersectionArray,
                                 NotDRGWitness, _shell_triples, bfs_distances,
                                 distance_partition, distance_shells,
                                 is_distance_regular)

K8 = validate_spec(2, {1, 2, 3}, {0, 1, 2, 3})
K4x2 = validate_spec(2, {1, 3}, {0, 1, 2, 3})
C4 = validate_spec(1, set(), {0, 1})


class TestBFS:
    def test_complete(self):
        g = build_graph(K8)
        assert bfs_distances(g, 0) == [0] + [1] * 7

    def test_four_cycle(self):
        g = build_graph(C4)
        # vertex order 1, a, b, a*b
        assert bfs_distances(g, 0) == [0, 2, 1, 1]

    def test_antipode_in_k4x2(self):
        g = build_graph(K4x2)
        dist = bfs_distances(g, 0)
        assert dist[2] == 2  # a^2 is the antipode of the identity
        assert all(dist[v] == 1 for v in range(8) if v not in (0, 2))

    def test_unreachable_marked(self):
        g = build_graph(validate_spec(2, {2}, set()))
        assert -1 in bfs_distances(g, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bitset_bfs_equals_queue_bfs(self, n):
        for spec in all_valid_specs(n):
            g = build_graph(spec)
            for v in range(4 * n):
                dist = naive_bfs_distances(g, v)
                assert bfs_distances(g, v) == dist
                if -1 in dist:  # the error names the least unreachable vertex
                    with pytest.raises(DisconnectedGraphError,
                                       match=f"^vertex {dist.index(-1)} unreachable$"):
                        distance_shells(g, v)
                else:
                    assert distance_shells(g, v) == [
                        bitset(u for u in range(4 * n) if dist[u] == i)
                        for i in range(max(dist) + 1)]


class TestDistanceRegularity:
    def test_complete_array(self):
        arr = is_distance_regular(build_graph(K8), True)
        assert (arr.b, arr.c) == ((7,), (1,))
        assert arr.k == 7 and arr.lam == 6 and arr.mu is None

    def test_k4x2_array(self):
        arr = is_distance_regular(build_graph(K4x2), True)
        assert (arr.b, arr.c) == ((6, 1), (1, 6))
        assert arr.mu == 6

    def test_not_drg_with_witness(self):
        witness = is_distance_regular(build_graph(validate_spec(4, {1, 7}, {1, 5})),
                                      True)
        assert isinstance(witness, NotDRGWitness)
        assert witness.distance == 2
        assert witness.expected[0] != witness.found[0]  # c_2 disagrees

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            is_distance_regular(build_graph(validate_spec(2, {2}, set())))

    @pytest.mark.parametrize("hint", [False, True])
    @pytest.mark.parametrize("rows", [[], [0]], ids=["empty", "one-vertex"])
    def test_edgeless_graph_raises(self, rows, hint):
        with pytest.raises(DisconnectedGraphError,
                           match="graph must have at least one edge"):
            is_distance_regular(Graph(rows), hint)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hint_agrees_with_full_check(self, n):
        for spec in all_valid_specs(n):
            if not spec.connected:
                continue
            g = build_graph(spec)
            hinted = is_distance_regular(g, True)
            full = is_distance_regular(g, False)
            assert isinstance(hinted, IntersectionArray) \
                == isinstance(full, IntersectionArray)
            if isinstance(hinted, IntersectionArray):
                assert hinted == full

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_consistency_for_every_drg(self, n):
        for spec in all_valid_specs(n):
            if not spec.connected:
                continue
            g = build_graph(spec)
            arr = is_distance_regular(g, True)
            if not isinstance(arr, IntersectionArray):
                continue
            assert arr.c[0] == 1
            dp = distance_partition(spec, g)
            assert sum(s.bit_count() for s in dp.shells) == 4 * n
            for i in range(arr.d + 1):
                b_i = arr.b[i] if i < arr.d else 0
                c_i = arr.c[i - 1] if i >= 1 else 0
                assert arr.a(i) + b_i + c_i == arr.k


def _outcome(f, *args):
    """What f returns, or the message of the DisconnectedGraphError it
    raises."""
    try:
        return f(*args)
    except DisconnectedGraphError as error:
        return ("DisconnectedGraphError", str(error))


def assert_matches_full_bfs(g):
    """Shells from every vertex, the triples or witness of every base
    against base 0's triples, and the verdict for both hint values all
    equal the two-pass oracles', errors and their messages included; the
    reference triples are not modified."""
    for v in range(g.n_vertices):
        assert _outcome(distance_shells, g, v) == _outcome(two_pass_distance_shells, g, v)
    reference = _outcome(full_bfs_shell_triples, g, 0)
    assert _outcome(_shell_triples, g, 0) == reference
    if isinstance(reference, list):
        for base in range(1, g.n_vertices):
            assert (_shell_triples(g, base, reference)
                    == full_bfs_shell_triples(g, base, reference))
        assert reference == full_bfs_shell_triples(g, 0)  # left as it was
    for hint in (True, False):
        assert (_outcome(is_distance_regular, g, hint)
                == _outcome(full_bfs_distance_regularity, g, hint))


@st.composite
def small_graphs(draw):
    """Graphs on 1..12 vertices: random sparse and dense edge sets (mostly
    irregular, the sparse ones often disconnected), circulants
    (vertex-transitive, some distance-regular), and disjoint unions of
    two circulants (regular but disconnected)."""
    n = draw(st.integers(1, 12), label="vertices")
    kind = draw(st.sampled_from(["sparse", "dense", "circulant", "two circulants"]),
                label="kind")
    pairs = [(u, v) for v in range(n) for u in range(v)]
    if kind in ("sparse", "dense"):
        drawn = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()),
                     label="edges" if kind == "sparse" else "non-edges")
        edges = drawn if kind == "sparse" else set(pairs) - drawn
    else:
        parts = [(0, n)] if kind == "circulant" else [(0, n // 2), (n // 2, n)]
        jumps = draw(st.sets(st.integers(1, max(1, n // 2))), label="jumps")
        edges = {(start + i, start + (i + j) % (stop - start))
                 for start, stop in parts for i in range(stop - start)
                 for j in jumps if (i + j) % (stop - start) != i}
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(rows)


class TestLevelByLevel:
    """The bitset BFS and the DRG test against the two-pass oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_spec_matches_full_bfs(self, n):
        for spec in all_valid_specs(n):
            assert_matches_full_bfs(build_graph(spec))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_small_graph_matches_full_bfs(self, n):
        # every labelled graph on n vertices; from n = 4 on some of them
        # are witnessed by an unequal eccentricity, or by a base other
        # than 0 at distance 0 or 1
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            assert_matches_full_bfs(Graph(rows))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(g=small_graphs())
    def test_random_graph_matches_full_bfs(self, g):
        assert_matches_full_bfs(g)

    def test_unequal_eccentricity_outranks_an_unequal_triple(self):
        # path 0-1-2-3: base 1 has degree 2 against base 0's 1, but its
        # eccentricity 2 against 3 is the witness
        path = Graph([0b0010, 0b0101, 0b1010, 0b0100])
        assert is_distance_regular(path, vertex_transitive_hint=False) \
            == NotDRGWitness(1, 1, 2, ("diameter", 3), ("diameter", 2))

    def test_unequal_eccentricity_outranks_a_deeper_unequal_triple(self):
        # path 3-2-0-1-4: base 0 passes; base 1 has base 0's degree, but
        # its level 1 holds (c, a, b) = (1, 0, 1) and (1, 0, 0) before its
        # eccentricity 3 against 2 shows
        path = Graph([0b00110, 0b10001, 0b01001, 0b00100, 0b00010])
        assert isinstance(_shell_triples(path, 0), list)
        assert is_distance_regular(path, vertex_transitive_hint=False) \
            == NotDRGWitness(1, 1, 3, ("diameter", 2), ("diameter", 3))

    @pytest.mark.parametrize("hint", [True, False])
    def test_disconnection_outranks_an_unequal_triple(self, hint):
        # edges 0-1, 0-2, 1-3 and the isolated vertex 4: from base 0,
        # level 1 holds (c, a, b) = (1, 0, 1) and (1, 0, 0)
        g = Graph([0b00110, 0b01001, 0b00001, 0b00010, 0])
        with pytest.raises(DisconnectedGraphError, match="^vertex 4 unreachable$"):
            is_distance_regular(g, hint)


class TestCountingLemmas:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_antipode_common_neighbors(self, n):
        # |N(1) n N(a^n)| = |R n (n+R)| + |T| >= |T|, unconditionally
        for spec in all_valid_specs(n):
            if not spec.connected:
                continue
            g = build_graph(spec)
            count = (g.rows[0] & g.rows[n]).bit_count()
            shifted = {(n + r) % (2 * n) for r in spec.R}
            assert count == len(spec.R & shifted) + len(spec.T)
            assert count >= len(spec.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parity_lemma(self, n):
        for spec in all_valid_specs(n):
            if not spec.connected:
                continue
            g = build_graph(spec)
            arr = is_distance_regular(g, True)
            if not isinstance(arr, IntersectionArray):
                continue
            assert arr.lam % 2 == 0
            if arr.d >= 2:
                dp = distance_partition(spec, g)
                if dp.t_sets[2]:
                    assert arr.mu % 2 == 0
