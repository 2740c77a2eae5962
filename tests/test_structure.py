import pytest

from conftest import all_valid_specs
from dicirculant import cayley, structure
from dicirculant.cayley import bitset, build_graph, graph_from_edges, validate_spec
from dicirculant.metrics import (IntersectionArray, distance_partition,
                                 is_distance_regular)
from dicirculant.search import shell_flags
from dicirculant.structure import (antipodal_classes, bipartition,
                                   distance_i_graph, is_primitive,
                                   recognize_family)
from oracles import NotBipartiteError, halved_graphs, subgroup_of_order

K8 = build_graph(validate_spec(2, {1, 2, 3}, {0, 1, 2, 3}))
K4x2 = build_graph(validate_spec(2, {1, 3}, {0, 1, 2, 3}))
C4 = build_graph(validate_spec(1, set(), {0, 1}))
K44 = build_graph(validate_spec(2, set(), {0, 1, 2, 3}))


class TestBipartition:
    def test_complete_has_none(self):
        assert bipartition(K8) is None

    def test_four_cycle(self):
        assert bipartition(C4) == (bitset([0, 1]), bitset([2, 3]))

    def test_even_exponent_split(self):
        g = build_graph(validate_spec(4, {1, 7}, {1, 5}))
        parts = bipartition(g)
        assert parts is not None
        assert parts[0] == bitset(v for v in range(16) if v % 2 == 0)


class TestAntipodal:
    def test_k4x2_fibres(self):
        st = antipodal_classes(K4x2, 2)
        assert st is not None
        assert st.p == 2 and len(st.fibres) == 4
        assert all(st.quotient.degree(v) == 3 for v in range(4))  # K_4

    def test_four_cycle(self):
        st = antipodal_classes(C4, 2)
        assert st.p == 2 and len(st.fibres) == 2
        assert st.quotient.rows == (2, 1)  # K_2

    def test_complete_single_fibre_convention(self):
        st = antipodal_classes(K8, 1)
        assert st is not None
        assert len(st.fibres) == 1 and st.p == 8

    def test_unequal_fibres(self):
        # the path 0 - 1 - 2 at d = 2: the fibres {0, 2} and {1} differ in size
        path = graph_from_edges(3, [(0, 1), (1, 2)])
        assert antipodal_classes(path, 2) is None

    def test_fibres_are_equitable(self):
        st = antipodal_classes(K4x2, 2)
        for i, fibre in enumerate(st.fibres):
            for v in cayley.bit_members(fibre):
                counts = [(K4x2.rows[v] & other).bit_count()
                          for other in st.fibres]
                assert counts[i] == 0
                assert all(counts[j] == 2 for j in range(4) if j != i)


class TestHalvedAndDistanceGraphs:
    def test_four_cycle_halves(self):
        halves = halved_graphs(C4)
        assert all(h.rows == (2, 1) for h in halves)  # two K_2

    def test_k44_halves(self):
        halves = halved_graphs(K44)
        assert all(all(h.degree(v) == 3 for v in range(4)) for h in halves)

    def test_not_bipartite_raises(self):
        with pytest.raises(NotBipartiteError):
            halved_graphs(K8)

    def test_distance_1_graph_is_identity(self):
        assert distance_i_graph(K4x2, 1) == K4x2

    def test_k4x2_distance_2(self):
        g2 = distance_i_graph(K4x2, 2)
        assert sorted(g2.edges()) == [(0, 2), (1, 3), (4, 6), (5, 7)]

    def test_out_of_range(self):
        with pytest.raises(structure.IndexOutOfRangeError):
            distance_i_graph(K8, 2)


class TestPrimitivity:
    def test_complete_primitive(self):
        assert is_primitive(K8, 1)

    def test_k4x2_imprimitive(self):
        assert not is_primitive(K4x2, 2)

    def test_bipartite_imprimitive(self):
        assert not is_primitive(K44, 2)


class TestShellResidueForms:
    def test_match_generic_routines(self):
        seen = set()
        for n in range(1, 6):
            for spec in all_valid_specs(n):
                if not spec.connected:
                    continue
                g = build_graph(spec)
                dp = distance_partition(spec, g)
                d = dp.diameter
                antipodal, primitive = shell_flags(n, dp)
                assert antipodal == (antipodal_classes(g, d) is not None), spec
                assert primitive == is_primitive(g, d), spec
                seen.add((antipodal, primitive))
        assert {a for a, _ in seen} == {p for _, p in seen} == {False, True}


def _subgroup_complements(n):
    """Dic_n minus H for one subgroup H of each proper order m, with m."""
    for m in range(1, 4 * n):
        if (4 * n) % m:
            continue
        sub = subgroup_of_order(n, m)
        R = {g for g in sub if 0 < g < 2 * n}
        T = {g - 2 * n for g in sub if g >= 2 * n}
        yield m, validate_spec(n, set(range(1, 2 * n)) - R, set(range(2 * n)) - T)


def _tag(g):
    return recognize_family(is_distance_regular(g), g.n_vertices)


def _families_from_graph(g):
    """Oracle: the family names of g found on the graph itself, primary
    first, for the families a dicirculant DRG can have."""
    v = g.n_vertices
    degrees = {g.degree(x) for x in range(v)}
    names = []
    if degrees == {v - 1}:
        names.append(f"Complete({v})")
    else:
        # parts: the fibres of 'distance 0 or 2', each vertex adjacent
        # to every vertex outside its own
        st = antipodal_classes(g, 2)
        if st is not None and st.p >= 2 and degrees == {v - st.p}:
            t = len(st.fibres)
            assert all(st.quotient.degree(x) == t - 1 for x in range(t))
            names.append(f"CompleteMultipartite({t},{st.p})")
    if degrees == {2} and structure.is_connected(g):
        names.append(f"Cycle({v})")
    return names


class TestFamilies:
    def test_pentagon_is_paley(self):
        # Paley(5) is the pentagon, which the array names only as C_5
        squares = {1, 4}
        pentagon = graph_from_edges(5, [(u, v) for u in range(5)
                                        for v in range(u + 1, 5)
                                        if (v - u) % 5 in squares])
        tag = _tag(pentagon)
        assert tag.kind == "Cycle" and tag.params == (5,) and tag.also == ()

    def test_crown_graph(self):
        for m, also in ((3, ("Cycle(6)",)), (4, ())):
            crown = graph_from_edges(2 * m, [(u, m + v) for u in range(m)
                                             for v in range(m) if u != v])
            tag = _tag(crown)
            assert tag.kind == "CrownGraph" and tag.params == (m,)
            assert tag.also == also

    def test_petersen_is_unrecognized(self):
        # {3, 2; 1, 1} on 10 vertices: no family the array names
        tag = recognize_family(IntersectionArray((3, 2), (1, 1)), 10)
        assert tag.kind == "Unrecognized"

    def test_complement_of_matchings(self):
        tag = _tag(K4x2)
        assert tag.kind == "CompleteMultipartite" and tag.params == (4, 2)

    def test_k22_precedence(self):
        tag = _tag(C4)
        assert tag.kind == "CompleteMultipartite" and tag.params == (2, 2)
        assert tag.also == ("Cycle(4)",)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_subgroup_complement_builds_multipartite(self, n):
        # Cay(Dic_n, Dic_n \ H) is complete multipartite with parts = cosets
        for m, spec in _subgroup_complements(n):
            tag = _tag(build_graph(spec))
            if m == 1:
                assert tag.kind == "Complete" and tag.params == (4 * n,)
            else:
                assert tag.kind == "CompleteMultipartite"
                assert tag.params == (4 * n // m, m)

    def test_tag_matches_graph(self, surveys_upto_6):
        # the survey's own tags, then the complements' through _tag
        tagged = [(inst.spec, inst.family) for report in surveys_upto_6.values()
                  for inst in report.drg_instances]
        tagged += [(spec, _tag(build_graph(spec)))
                   for n in range(1, 7) for _, spec in _subgroup_complements(n)]
        kinds = set()
        for spec, tag in tagged:
            assert [f"{tag.kind}({','.join(map(str, tag.params))})",
                    *tag.also] == _families_from_graph(build_graph(spec)), spec
            kinds.add(tag.kind)
            kinds.update(name.split("(")[0] for name in tag.also)
        assert kinds == {"Complete", "CompleteMultipartite", "Cycle"}
