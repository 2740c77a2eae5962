import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_valid_specs
from dicirculant import cayley, group
from dicirculant.cayley import (SpecParseError, SpecValidationError,
                                build_graph, canonicalize, is_subgroup,
                                parse_spec, validate_spec)
from oracles import definitional_graph, subgroup_of_order


class TestValidation:
    def test_valid(self):
        spec = validate_spec(2, {1, 3}, {0, 2})
        assert spec.R == frozenset({1, 3})
        assert spec.T == frozenset({0, 2})
        assert spec.connected

    def test_r_not_symmetric(self):
        with pytest.raises(SpecValidationError) as err:
            validate_spec(2, {1}, {0, 2})
        assert err.value.violations == ["RNotSymmetric"]

    def test_t_not_half_periodic(self):
        with pytest.raises(SpecValidationError) as err:
            validate_spec(2, {1, 3}, {0, 1})
        assert err.value.violations == ["TNotHalfPeriodic"]

    def test_zero_in_r(self):
        with pytest.raises(SpecValidationError) as err:
            validate_spec(2, {0}, {0, 2})
        assert "ZeroInR" in err.value.violations

    def test_nonpositive_n(self):
        with pytest.raises(SpecValidationError) as err:
            validate_spec(0, set(), set())
        assert err.value.violations == ["NonPositiveN"]

    def test_empty_r_accepted(self):
        spec = validate_spec(1, set(), {0, 1})
        assert spec.connected  # C_4

    def test_disconnected_flagged_not_rejected(self):
        spec = validate_spec(2, {2}, set())
        assert not spec.connected


class TestBuild:
    def test_complete_graph(self):
        g = build_graph(validate_spec(2, {1, 2, 3}, {0, 1, 2, 3}))
        assert all(g.degree(v) == 7 for v in range(8))

    def test_neighbor_formula_identity(self):
        g = build_graph(validate_spec(2, {1, 3}, {0, 2}))
        # N(1) = {a, a^3, b, a^2 b}; indices a^i -> i, a^i b -> 4+i
        assert sorted(g.neighbors(0)) == [1, 3, 4, 6]

    def test_neighbor_formula_beta(self):
        g = build_graph(validate_spec(2, {1, 3}, {0, 2}))
        # N(b) = {1, a^2, a*b, a^3*b}
        assert sorted(g.neighbors(4)) == [0, 2, 5, 7]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_formula_matches_definition_exhaustive(self, n):
        for spec in all_valid_specs(n):
            graph, reference = build_graph(spec), definitional_graph(spec)
            assert graph == reference
            assert hash(graph) == hash(reference)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_formula_matches_definition_random(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        r_pairs = data.draw(st.sets(st.integers(1, n)), label="R pairs")
        t_pairs = data.draw(st.sets(st.integers(0, n - 1)), label="T pairs")
        spec = validate_spec(n, {x for i in r_pairs for x in (i, -i)},
                             {x for i in t_pairs for x in (i, i + n)})
        assert build_graph(spec) == definitional_graph(spec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vertex_transitive(self, n):
        for spec in all_valid_specs(n):
            g = build_graph(spec)
            for target in range(4 * n):
                # relabel by left multiplication with the target element
                image = [group.multiply(target, v, n) for v in g.neighbors(0)]
                assert sorted(image) == sorted(g.neighbors(target))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_is_connection_set_size(self, n):
        for spec in all_valid_specs(n):
            g = build_graph(spec)
            assert all(g.degree(v) == spec.degree for v in range(4 * n))


class TestIsSubgroup:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_closure(self, n):
        # oracle: a set is a subgroup iff it equals its own closure
        m = 2 * n
        for r_mask in range(1, 1 << m, 2):  # every R containing 0
            R = {i for i in range(m) if r_mask >> i & 1}
            for t_mask in range(1 << m):
                T = {i for i in range(m) if t_mask >> i & 1}
                members = R | {t + m for t in T}
                closed = group.generated_subgroup(members, n) == members
                assert is_subgroup(n, R, T) == closed, (R, T)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_subgroup_of_order(self, n):
        for m in range(1, 4 * n + 1):
            if (4 * n) % m:
                continue
            members = subgroup_of_order(n, m)
            assert is_subgroup(n, {g for g in members if g < 2 * n},
                               {g - 2 * n for g in members if g >= 2 * n}), m


class TestCanonicalize:
    def test_fixed_point(self):
        spec = validate_spec(2, {1, 3}, {0, 2})
        canon = canonicalize(spec)
        assert canonicalize(canon).sorted_sets() == canon.sorted_sets()

    def test_n1_fixed(self):
        spec = validate_spec(1, set(), {0, 1})
        assert canonicalize(spec).sorted_sets() == ((), (0, 1))

    def test_matches_bruteforce_minimum(self):
        spec = validate_spec(4, {3, 5}, {3, 7})
        best = spec.sorted_sets()
        for params in group.automorphism_params(4):
            R, T = group.transform_sets(params, 4, spec.R, spec.T)
            best = min(best, (tuple(sorted(R)), tuple(sorted(T))))
        assert canonicalize(spec).sorted_sets() == best

    @pytest.mark.parametrize("n", [2, 3])
    def test_isomorphic_by_uv_inputs_coincide(self, n):
        for spec in all_valid_specs(n)[:20]:
            canon = canonicalize(spec)
            for params in group.automorphism_params(n)[:8]:
                R, T = group.transform_sets(params, n, spec.R, spec.T)
                moved = validate_spec(n, R, T)
                assert canonicalize(moved).sorted_sets() == canon.sorted_sets()

    @pytest.mark.parametrize("n", [2, 4])
    def test_automorphism_preserves_validity(self, n):
        for spec in all_valid_specs(n)[:16]:
            for params in group.automorphism_params(n):
                R, T = group.transform_sets(params, n, spec.R, spec.T)
                assert not cayley.spec_violations(n, R, T)


class TestParsing:
    def test_round_trip(self):
        spec = parse_spec("n=2; R=1,3; T=0,1,2,3")
        assert spec.sorted_sets() == ((1, 3), (0, 1, 2, 3))
        assert parse_spec(repr(spec)).sorted_sets() == spec.sorted_sets()

    def test_whitespace_insensitive(self):
        a = parse_spec("n=2;R=1,3;T=0,2")
        b = parse_spec("  n = 2 ;  R = 1 , 3 ; T = 0 , 2 ")
        assert a.sorted_sets() == b.sorted_sets()

    def test_residues_reduced(self):
        spec = parse_spec("n=2; R=5,7; T=4,6")
        assert spec.sorted_sets() == ((1, 3), (0, 2))

    def test_garbage_reports_position(self):
        # the first character at which no valid spec can continue
        for text, position in [("x=2; R=1; T=0", 0), ("n=2; R=1,3; T=x", 14),
                               ("n=2; R=1,-3; T=0,2", 9),
                               ("n=2; R=²; T=0,2", 7),
                               ("n=2; R=1,3, T=0,2", 12), ("n=x; R=1; T=0", 2),
                               ("n=2; Q=1; T=0", 5)]:
            with pytest.raises(SpecParseError) as err:
                parse_spec(text)
            assert err.value.position == position, text

    def test_structural_violation_from_parse(self):
        with pytest.raises(SpecValidationError) as err:
            parse_spec("n=2; R=1; T=0,2")
        assert err.value.violations == ["RNotSymmetric"]
