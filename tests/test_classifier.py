import pytest

from conftest import all_valid_specs
from dicirculant import cayley, classifier, fourier, group
from dicirculant.cayley import bit_members, build_graph, validate_spec
from dicirculant.classifier import (DisconnectedSpecError,
                                    InvalidGroupTableError,
                                    PreconditionViolatedError, classify,
                                    condition_iii, condition_iii_prime,
                                    condition_iii_prime_set, cyclic_table,
                                    difference_set_lambda,
                                    is_trivial_difference_set,
                                    validate_group_table)
from dicirculant.metrics import IntersectionArray, is_distance_regular


class TestConditionIII:
    def test_odd_n_fails(self):
        assert not condition_iii(validate_spec(3, {1, 5}, {1, 4}))

    def test_even_residue_fails(self):
        cond = condition_iii(validate_spec(2, {2}, {1, 3}))
        assert not cond
        assert cond.evidence == ("R or T contains an even residue",)

    def test_full_overlap_fails(self):
        cond = condition_iii(validate_spec(2, {1, 3}, {1, 3}))
        assert not cond
        assert "not < n" in cond.evidence[0]

    def test_counting_violation_reported(self):
        cond = condition_iii(validate_spec(4, {1, 7}, {1, 5}))
        assert not cond
        assert cond.evidence[0].startswith("i=2:")

    def test_empty_t_fails(self):
        assert not condition_iii(validate_spec(2, {1, 3}, set()))


class TestGroupTables:
    def test_cyclic_table_valid(self):
        validate_group_table(cyclic_table(7))

    def test_dicyclic_table_valid(self):
        table, _ = group.multiplication_table(3)
        validate_group_table(table)

    def test_non_latin_rejected(self):
        with pytest.raises(InvalidGroupTableError):
            validate_group_table(((0, 0), (1, 1)))

    @pytest.mark.parametrize("row", [(1, 2, 1), (1, 2, 3), (1, 2)])
    def test_row_without_identity_rejected(self, row):
        # element 1 would have no inverse
        with pytest.raises(InvalidGroupTableError):
            validate_group_table(((0, 1, 2), row, (2, 0, 1)))

    def test_shifted_identity_rejected(self):
        bad = tuple(tuple((i + j + 1) % 3 for j in range(3)) for i in range(3))
        with pytest.raises(InvalidGroupTableError):
            validate_group_table(bad)


class TestDifferenceSetLambda:
    def test_quadratic_residues_mod_7(self):
        assert difference_set_lambda(cyclic_table(7), {1, 2, 4}) == 1

    def test_near_full_set(self):
        assert difference_set_lambda(cyclic_table(7), set(range(1, 7))) == 5

    def test_non_difference_set(self):
        assert difference_set_lambda(cyclic_table(4), {0, 1}) is None

    def test_triviality_sizes(self):
        assert is_trivial_difference_set(0, 8)
        assert is_trivial_difference_set(1, 8)
        assert is_trivial_difference_set(7, 8)
        assert is_trivial_difference_set(8, 8)
        assert not is_trivial_difference_set(4, 8)

    def test_counts_match_brute_force(self):
        table, _ = group.multiplication_table(2)
        v = len(table)
        inv = [next(j for j in range(v) if table[i][j] == 0) for i in range(v)]
        for mask in range(1 << v):
            D = {i for i in range(v) if mask >> i & 1}
            counts = [0] * v
            for g1 in D:
                for g2 in D:
                    counts[table[g2][inv[g1]]] += 1
            expected = counts[1] if len(set(counts[1:])) <= 1 else None
            if not D:
                expected = 0
            assert difference_set_lambda(table, D) == expected


class TestConditionIIIPrime:
    def test_set_construction(self):
        spec = validate_spec(4, {1, 7}, {1, 5})
        # (a^2)^0, (a^2)^3 -> exponents 0, 3; (a^2)^0 b, (a^2)^2 b -> 4, 6
        assert condition_iii_prime_set(spec) == frozenset({0, 3, 4, 6})

    def test_false_example(self):
        assert not condition_iii_prime(validate_spec(4, {1, 7}, {1, 5}))

    def test_odd_n_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            condition_iii_prime(validate_spec(3, {1, 5}, {1, 4}))

    def test_even_residues_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            condition_iii_prime(validate_spec(2, {2}, {1, 3}))

    def test_empty_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            condition_iii_prime(validate_spec(2, set(), {1, 3}))

    def test_one_precondition_error(self):
        assert PreconditionViolatedError is fourier.PreconditionViolatedError

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_agrees_with_counting_criterion(self, n):
        odd = range(1, 2 * n, 2)
        r_pairs = sorted({frozenset({i, 2 * n - i}) for i in odd})
        t_pairs = sorted({frozenset({i, (n + i) % (2 * n)}) for i in odd},
                         key=min)
        for r_mask in range(1, 1 << len(r_pairs)):
            R = set().union(*(p for b, p in enumerate(r_pairs)
                              if r_mask >> b & 1))
            for t_mask in range(1, 1 << len(t_pairs)):
                T = set().union(*(p for b, p in enumerate(t_pairs)
                                  if t_mask >> b & 1))
                spec = validate_spec(n, R, T)
                assert bool(condition_iii(spec)) == condition_iii_prime(spec)


def _complement_clique_params(g):
    """(t, m) if the complement of g is t disjoint copies of K_m, else
    None: the generic graph test for complete multipartite graphs."""
    full = (1 << g.n_vertices) - 1
    closed = [full & ~row for row in g.rows]  # complement row plus the vertex
    sizes, seen = [], 0
    for v in range(g.n_vertices):
        if seen >> v & 1:
            continue
        if any(closed[u] != closed[v] for u in bit_members(closed[v])):
            return None  # v's complement component is not a clique
        sizes.append(closed[v].bit_count())
        seen |= closed[v]
    return (len(sizes), sizes[0]) if len(set(sizes)) == 1 else None


class TestClassify:
    def test_complete(self):
        result = classify(validate_spec(3, set(range(1, 6)), set(range(6))))
        assert result.tag == classifier.COMPLETE
        assert result.params == (12,)

    def test_multipartite(self):
        result = classify(validate_spec(2, {1, 3}, {0, 1, 2, 3}))
        assert result.tag == classifier.MULTIPARTITE
        assert result.params == (4, 2)

    def test_not_drg(self):
        result = classify(validate_spec(4, {1, 7}, {1, 5}))
        assert result.tag == classifier.NOT_DRG
        assert result.evidence

    def test_bipartite_d3_when_condition_iii_holds(self, monkeypatch):
        # no dicirculant reaches this return in a survey, so condition_iii
        # is made to hold; k = |R| + |T| = 8 and mu = 2|R & T| = 4 here
        # differ from |R| = 2, |T| = 6 and |R & T| = 2
        evidence = ("condition (iii) holds (patched)",)
        monkeypatch.setattr(classifier, "condition_iii",
                            lambda spec: classifier.ConditionResult(True, evidence))
        spec = validate_spec(6, {1, 11}, {1, 3, 5, 7, 9, 11})
        result = classify(spec)
        assert result.tag == classifier.BIPARTITE_D3
        assert result.params == (8, 4)
        assert result.evidence == evidence

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedSpecError):
            classify(validate_spec(2, {2}, set()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_multipartite_matches_complement_cliques(self, n):
        # oracle: the clique decomposition of the complement graph
        for spec in all_valid_specs(n):
            if not spec.connected or spec.degree == 4 * n - 1:
                continue
            params = _complement_clique_params(build_graph(spec))
            result = classify(spec)
            assert (result.tag == classifier.MULTIPARTITE) == (params is not None)
            if params is not None:
                assert result.params == params

    def test_builds_no_graph(self, monkeypatch):
        def refuse(self, rows):
            raise AssertionError("classify built a graph")
        specs = [spec for n in range(1, 6) for spec in all_valid_specs(n)
                 if spec.connected]
        monkeypatch.setattr(cayley.Graph, "__init__", refuse)
        for spec in specs:
            classify(spec)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_biconditional_with_bfs(self, n):
        # theorem-side classification agrees with the BFS decision
        for spec in all_valid_specs(n):
            if not spec.connected:
                continue
            predicted_drg = classify(spec).tag != classifier.NOT_DRG
            actual = is_distance_regular(build_graph(spec), True)
            assert predicted_drg == isinstance(actual, IntersectionArray)
