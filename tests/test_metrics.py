import pytest

from conftest import all_valid_specs, naive_bfs_distances
from dicirculant.cayley import bitset, build_graph, validate_spec
from dicirculant.metrics import (DisconnectedGraphError, IntersectionArray,
                                 NotDRGWitness, bfs_distances,
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
