import functools
import gc
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicirculant import classifier, group, search, structure
from dicirculant.cayley import (SpecValidationError, build_graph,
                                canonicalize, generates_group, validate_spec)
from dicirculant.classifier import cyclic_table
from dicirculant.metrics import is_distance_regular
from dicirculant.search import (ParameterContradictionError, enumerate_specs,
                                search_difference_sets, survey)
from oracles import (seeded_search_difference_sets, sorted_least_translates,
                     subgroup_complements)


def orbit_representatives(n):
    """Oracle for the staged class enumeration: the (R, T) of the
    lex-least (sorted R, sorted T) in each orbit of the (u, v) family, in
    ascending (r_mask, t_mask) order, by one marking pass over all 4^n
    indices.

    The indices r_mask << n | t_mask are visited in key order, so the
    first unmarked one is its orbit's least; every image of it under
    the family is then marked.
    """
    m = 2 * n
    r_sets = [frozenset(x for i in range(1, n + 1) if mask >> (i - 1) & 1
                        for x in (i, m - i)) for mask in range(1 << n)]
    t_sets = [frozenset(x for i in range(n) if mask >> i & 1
                        for x in (i, i + n)) for mask in range(1 << n)]
    # (u, v) moves R pair i to the pair holding u*i and T pair i to
    # pair (u*i + v) mod n; distinct maps as (R, T) bit permutations.
    maps = {(tuple(min(u * i % m, -u * i % m) - 1 for i in range(1, n + 1)),
             tuple((u * i + v) % n for i in range(n)))
            for u, v in group.automorphism_params(n)}
    # per map, the image of every r_mask and of every t_mask
    tables = [tuple([sum(1 << perm[b] for b in range(n) if mask >> b & 1)
                     for mask in range(1 << n)] for perm in perms)
              for perms in maps]
    r_order = sorted(range(1 << n), key=lambda mask: sorted(r_sets[mask]))
    t_order = sorted(range(1 << n), key=lambda mask: sorted(t_sets[mask]))
    marked = bytearray(1 << 2 * n)
    reps = []
    for r_mask in r_order:
        for t_mask in t_order:
            if marked[r_mask << n | t_mask]:
                continue
            reps.append(r_mask << n | t_mask)
            for r_table, t_table in tables:
                marked[r_table[r_mask] << n | t_table[t_mask]] = 1
    low = (1 << n) - 1
    return [(r_sets[index >> n], t_sets[index & low]) for index in sorted(reps)]


def refuse_tables(*args, **kwargs):
    raise AssertionError("built before n was checked")


@functools.cache
def representatives(n):
    """sorted_sets() -> connected for each spec of enumerate_specs(n)."""
    return {spec.sorted_sets(): spec.connected for spec in enumerate_specs(n)}


class TestEnumeration:
    def test_n1_candidates(self):
        specs = list(enumerate_specs(1, dedup=False))
        assert len(specs) == 4
        connected = [s for s in specs if s.connected]
        assert sorted(s.sorted_sets() for s in connected) \
            == [((), (0, 1)), ((1,), (0, 1))]  # C_4 and K_4

    def test_n2_candidate_count(self):
        assert sum(1 for _ in enumerate_specs(2, dedup=False)) == 16

    def test_constraints_hold_by_construction(self):
        for spec in enumerate_specs(3, dedup=False):
            m = 2 * spec.n
            assert 0 not in spec.R
            assert spec.R == frozenset((-r) % m for r in spec.R)
            assert spec.T == frozenset((t + spec.n) % m for t in spec.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_connectivity_matches_subgroup_closure(self, n):
        # oracle: close the connection set under multiplication
        for spec in enumerate_specs(n, dedup=False):
            gens = [*spec.R, *(t + 2 * n for t in spec.T)]
            closed = bool(gens) and len(group.generated_subgroup(gens, n)) == 4 * n
            assert generates_group(n, spec.R, spec.T) == spec.connected == closed

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_connectivity_matches_subgroup_closure_random(self, data):
        # About half the draws confine R to <a^d> for a divisor 1 < d < 2n
        # of 2n, and T (when d | n) to the coset a^(j + <d>) b: such a spec
        # is disconnected.
        n = data.draw(st.integers(1, 12), label="n")
        m = 2 * n
        divisors = [d for d in range(2, m) if m % d == 0]
        d = data.draw(st.one_of(st.just(1), st.sampled_from(divisors or [1])),
                      label="d")
        r_steps = data.draw(st.sets(st.integers(1, m // d - 1)), label="R steps")
        R = {x % m for i in r_steps for x in (i * d, -i * d)}
        T = set()
        if n % d == 0:
            j = data.draw(st.integers(0, d - 1), label="j")
            t_steps = data.draw(st.sets(st.integers(0, n // d - 1)), label="T steps")
            T = {(j + i * d + s) % m for i in t_steps for s in (0, n)}
        gens = [*R, *(t + m for t in T)]
        closed = len(group.generated_subgroup(gens, n)) == 4 * n
        assert generates_group(n, R, T) == closed

    @pytest.mark.parametrize("n, dedup", [(n, True) for n in range(1, 8)]
                             + [(n, False) for n in range(1, 5)])
    def test_specs_equal_validated_specs(self, n, dedup):
        # oracle: validate_spec on the same sets; == ignores `connected`
        for spec in enumerate_specs(n, dedup=dedup):
            valid = validate_spec(n, spec.R, spec.T)
            assert (spec.n, spec.R, spec.T, spec.connected) \
                == (valid.n, valid.R, valid.T, valid.connected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_canonical_form_is_a_representative_random(self, data):
        # most classes, and most chances for a wrong representative, lie
        # at the largest n, so the draws lean that way
        n = 11 - data.draw(st.integers(1, 10), label="11 - n")
        m = 2 * n
        # residue i joins R with -i, and T with i + n, when bit i is set
        r_bits, t_bits = (data.draw(st.integers(0, (1 << m) - 1), label=side)
                          for side in "RT")
        spec = validate_spec(n, {x % m for i in range(1, m) if r_bits >> i & 1
                                 for x in (i, -i)},
                             {(i + s) % m for i in range(m) if t_bits >> i & 1
                              for s in (0, n)})
        canon = canonicalize(spec)
        assert representatives(n).get(canon.sorted_sets()) == spec.connected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dedup_yields_distinct_canonical_forms(self, n):
        # oracle: the mask loop filtered to specs equal to their canonical form
        expected = [s for s in enumerate_specs(n, dedup=False)
                    if canonicalize(s).sorted_sets() == s.sorted_sets()]
        got = list(enumerate_specs(n, dedup=True))
        assert [(s.sorted_sets(), s.connected) for s in got] \
            == [(s.sorted_sets(), s.connected) for s in expected]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dedup_covers_every_class(self, n):
        canon = {canonicalize(s).sorted_sets()
                 for s in enumerate_specs(n, dedup=False)}
        kept = {s.sorted_sets() for s in enumerate_specs(n, dedup=True)}
        assert canon == kept

    @pytest.mark.parametrize("n, classes", [(1, 4), (2, 12), (3, 32), (4, 72),
                                            (5, 144), (6, 624), (7, 800),
                                            (8, 2544), (9, 8064), (10, 25152),
                                            (11, 51648)])
    def test_class_count_is_burnside_number(self, n, classes):
        assert sum(1 for _ in enumerate_specs(n, dedup=True)) == classes

    @pytest.mark.parametrize("n", range(1, 10))
    def test_staged_classes_match_one_pass_marking(self, n):
        # oracle: one marking pass over all 4^n (r_mask, t_mask) indices
        expected = sorted(((tuple(sorted(R)), tuple(sorted(T))),
                           generates_group(n, R, T))
                          for R, T in orbit_representatives(n))
        assert [(s.sorted_sets(), s.connected)
                for s in enumerate_specs(n)] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_dedup_yields_every_spec_in_key_order(self, n):
        keys = [s.sorted_sets() for s in enumerate_specs(n, dedup=False)]
        assert len(set(keys)) == 4 ** n
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_rejected(self, n, monkeypatch):
        # the error comes before any table of pair unions is built
        monkeypatch.setattr(search, "_pair_unions", refuse_tables)
        with pytest.raises(SpecValidationError) as exc:
            next(enumerate_specs(n))
        assert exc.value.violations == ["NonPositiveN"]


class TestSurvey:
    def test_n2_summary(self, surveys_upto_6):
        report = surveys_upto_6[2]
        assert report.total_specs == 16
        assert report.canonical_classes == 12
        assert not report.cross_check_failures
        tags = sorted(inst.classification.tag for inst in report.drg_instances)
        assert tags.count(classifier.COMPLETE) == 1
        assert tags.count(classifier.MULTIPARTITE) == 3

    def test_n3_instances(self, surveys_upto_6):
        report = surveys_upto_6[3]
        found = {(inst.classification.tag, inst.classification.params)
                 for inst in report.drg_instances}
        assert ("CompleteGraph", (12,)) in found
        assert ("CompleteMultipartite", (6, 2)) in found
        assert ("CompleteMultipartite", (4, 3)) in found
        assert ("CompleteMultipartite", (3, 4)) in found
        assert ("CompleteMultipartite", (2, 6)) in found

    @pytest.mark.parametrize("n", [4, 5])
    def test_no_diameter3_family_at_small_n(self, n, surveys_upto_6):
        for inst in surveys_upto_6[n].drg_instances:
            assert inst.classification.tag in (classifier.COMPLETE,
                                               classifier.MULTIPARTITE)

    def test_every_instance_passes_fourier(self, surveys_upto_6):
        for report in surveys_upto_6.values():
            assert all(inst.fourier_ok for inst in report.drg_instances)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_flags_match_generic_routines(self, n):
        for inst in survey(n).drg_instances:
            g = build_graph(inst.spec)
            d = inst.array.d
            assert inst.bipartite == (structure.bipartition(g) is not None)
            assert inst.antipodal == (structure.antipodal_classes(g, d) is not None)
            assert inst.primitive == structure.is_primitive(g, d)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_drg_set_is_the_subgroup_complements(self, n, surveys_upto_6):
        # the theorem's list: Dic_n minus each proper subgroup class,
        # tau(2n) + tau(n) - 1 of them, is the survey's whole DRG set
        report = surveys_upto_6[n] if n <= 6 else survey(n)
        predicted = sorted(canonicalize(spec).sorted_sets()
                           for spec in subgroup_complements(n))
        assert predicted == [inst.spec.sorted_sets()
                             for inst in report.drg_instances]
        tau = [sum(x % d == 0 for d in range(1, x + 1)) for x in (2 * n, n)]
        assert len(predicted) == tau[0] + tau[1] - 1

    @pytest.mark.parametrize("n", range(1, 5))
    def test_witness_is_the_bfs_witness(self, n):
        connected_non_drg = 0
        for spec in enumerate_specs(n, dedup=False):
            row = search.evaluate_spec(spec)
            if spec.connected and not row.drg:
                connected_non_drg += 1
                assert row.witness == is_distance_regular(build_graph(spec),
                                                          True)
            else:
                assert row.witness is None
        assert connected_non_drg > 0 or n == 1

    @pytest.mark.parametrize(
        "n, dedup", [pytest.param(n, True, id=str(n)) for n in range(1, 10)]
        + [pytest.param(n, False, id=f"{n}-no-dedup") for n in range(1, 7)])
    def test_rows_equal_evaluate_spec_without_graph(self, n, dedup):
        # the survey decides most rows at level 1 from rotation lists it
        # shares between specs; evaluate_spec(spec) builds the graph and
        # runs the full BFS on every spec
        rows = list(search.survey_rows(n, dedup))
        assert [row.spec.sorted_sets() for row in rows] \
            == sorted(row.spec.sorted_sets() for row in rows)
        for row in rows:
            assert row == search.evaluate_spec(row.spec)

    def test_deterministic_json(self):
        a = json.dumps(survey(3).to_dict(), sort_keys=True)
        b = json.dumps(survey(3).to_dict(), sort_keys=True)
        assert a == b
        assert list(search.survey_rows(3)) == list(search.survey_rows(3))

    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("n, dedup", [(n, True) for n in range(1, 7)]
                             + [(n, False) for n in range(1, 5)])
    def test_fold_equals_stream(self, n, dedup, flipped, monkeypatch):
        if flipped:
            # a classifier that contradicts the BFS on every connected
            # spec, so every connected row carries a failure record
            def flip(spec):
                if classifier.classify(spec).tag == classifier.NOT_DRG:
                    return classifier.Classification(
                        classifier.COMPLETE, (4 * spec.n,), ("flipped",))
                return classifier.Classification(
                    classifier.NOT_DRG, (), ("flipped",))
            monkeypatch.setattr(search, "classify", flip)
        report = survey(n, dedup)
        rows = list(search.survey_rows(n, dedup))
        assert report.total_specs == 4 ** n == len(list(
            enumerate_specs(n, dedup=False)))
        assert report.canonical_classes == len(list(enumerate_specs(n)))
        assert len(rows) == (report.canonical_classes if dedup else 4 ** n)
        assert report.connected_specs == sum(row.spec.connected for row in rows)
        assert report.drg_instances == [row.instance for row in rows
                                        if row.instance is not None]
        failed = [row for row in rows if row.cross_check_failed]
        assert len(failed) == (report.connected_specs if flipped else 0)
        assert report.cross_check_failures == [
            {"spec": repr(row.spec), "bfs_drg": row.drg,
             "classifier_tag": row.classification.tag,
             "classifier_evidence": list(row.classification.evidence),
             **search.bfs_verdict(row)}
            for row in failed]

    def test_rows_are_dropped(self, monkeypatch):
        # the survey folds each row into its report: only what a DRG
        # instance or a failure record holds may outlive the row
        rows_of, records = search.survey_rows, []

        def recording(n, dedup=True):
            for row in rows_of(n, dedup):
                records.append((weakref.ref(row),
                                row.drg or row.cross_check_failed))
                yield row

        monkeypatch.setattr(search, "survey_rows", recording)
        report = survey(5)
        gc.collect()
        assert len(records) == report.canonical_classes
        assert sum(kept for _, kept in records) == len(report.drg_instances)
        assert [ref for ref, kept in records
                if not kept and ref() is not None] == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_rejected(self, n, monkeypatch):
        # enumerate_specs raises before any table is built or row is made
        monkeypatch.setattr(search, "_pair_unions", refuse_tables)
        monkeypatch.setattr(search, "evaluate_spec", refuse_tables)
        with pytest.raises(SpecValidationError) as exc:
            survey(n)
        assert exc.value.violations == ["NonPositiveN"]


def reference_search_difference_sets(table, v, k, lam, limit=None):
    """Oracle for search_difference_sets: the unpruned backtracker, which
    starts from the empty set and tests canonicity against all v - 1
    translates."""
    search.check_ds_parameters(v, k, lam)
    classifier.validate_group_table(table)
    if len(table) != v:
        raise ParameterContradictionError(f"group order {len(table)} != v = {v}")
    inv = [next(j for j in range(v) if table[i][j] == 0) for i in range(v)]
    results = []
    counts = [0] * v
    chosen = []

    def is_canonical(D):
        key = tuple(sorted(D))
        return all(key <= tuple(sorted(table[d][g] for d in D))
                   for g in range(1, v))

    def extend(start):
        if limit is not None and len(results) >= limit:
            return
        if len(chosen) == k:
            if all(c == lam for c in counts[1:]) and is_canonical(chosen):
                results.append(frozenset(chosen))
            return
        if v - start < k - len(chosen):
            return
        for nxt in range(start, v):
            deltas = [table[nxt][inv[d]] for d in chosen]
            deltas += [table[d][inv[nxt]] for d in chosen]
            for delta in deltas:
                counts[delta] += 1
            if all(counts[delta] <= lam for delta in deltas):
                chosen.append(nxt)
                extend(nxt + 1)
                chosen.pop()
            for delta in deltas:
                counts[delta] -= 1
            if limit is not None and len(results) >= limit:
                return

    extend(0)
    return results


def relabelled(table, rng):
    """The same group under a random relabelling that keeps 0 the identity."""
    v = len(table)
    return relabelled_by(table, [0] + rng.sample(range(1, v), v - 1))


def relabelled_by(table, new_of):
    """The same group with each element x renamed new_of[x]."""
    v = len(table)
    out = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(v):
            out[new_of[i]][new_of[j]] = new_of[table[i][j]]
    return out


def admissible_parameters(v):
    """Every (k, lam) with 1 <= k <= v and k(k-1) = lam(v-1); for v = 1
    lam is free, so two values stand for it."""
    if v == 1:
        return [(1, 0), (1, 5)]
    return [(k, k * (k - 1) // (v - 1)) for k in range(1, v + 1)
            if k * (k - 1) % (v - 1) == 0]


def oracle_cases(max_v=16, max_n=4):
    """Every admissible (k, lam) of a relabelled Z_v, v <= max_v, and of
    Dic_n, n <= max_n, in natural and in relabelled labels."""
    rng = random.Random(8)
    for v in range(1, max_v + 1):
        table = relabelled(cyclic_table(v), rng)
        for k, lam in admissible_parameters(v):
            yield f"Z{v}", table, v, k, lam
    for n in range(1, max_n + 1):
        table, _ = group.multiplication_table(n)
        for label, t in ((f"Dic{n}", table), (f"Dic{n}r", relabelled(table, rng))):
            for k, lam in admissible_parameters(4 * n):
                yield label, t, 4 * n, k, lam


class TestDifferenceSetSearch:
    def test_matches_reference_search(self):
        mismatches = []
        for label, table, v, k, lam in oracle_cases():
            for limit in (None, 1, 2, 5):
                expected = reference_search_difference_sets(table, v, k, lam, limit)
                if search_difference_sets(table, v, k, lam, limit) != expected:
                    mismatches.append((label, v, k, lam, limit))
        assert mismatches == []

    def test_matches_seeded_search(self):
        mismatches = []
        for label, table, v, k, lam in oracle_cases(max_v=20, max_n=5):
            for limit in (None, 1, 2, 5):
                expected = seeded_search_difference_sets(table, v, k, lam, limit)
                if search_difference_sets(table, v, k, lam, limit) != expected:
                    mismatches.append((label, v, k, lam, limit))
        assert mismatches == []

    @pytest.mark.parametrize("limit", [None, 1])
    def test_one_class_when_k_is_v_or_v_minus_1(self, limit):
        # every (v - 1)-set is a translate of G - {v - 1}; k = v is G
        rng = random.Random(3)
        for table in (relabelled(cyclic_table(7), rng),
                      group.multiplication_table(3)[0]):
            v = len(table)
            assert search_difference_sets(table, v, v - 1, v - 2, limit) \
                == [frozenset(range(v - 1))]
            assert search_difference_sets(table, v, v, v, limit) \
                == [frozenset(range(v))]

    def test_fano_complement_classes(self):
        # v = 2k - 1: the search runs on the complements, limited or not
        table = cyclic_table(7)
        assert search_difference_sets(table, 7, 4, 2) \
            == [frozenset({0, 1, 2, 4}), frozenset({0, 1, 2, 5})]
        assert search_difference_sets(table, 7, 4, 2, limit=1) \
            == [frozenset({0, 1, 2, 4})]

    def test_fano_classes(self):
        results = search_difference_sets(cyclic_table(7), 7, 3, 1)
        assert sorted(tuple(sorted(D)) for D in results) \
            == [(0, 1, 3), (0, 1, 5)]

    def test_every_result_verifies(self):
        table, _ = group.multiplication_table(4)
        for D in search_difference_sets(table, 16, 6, 2):
            assert classifier.difference_set_lambda(table, D) == 2

    def test_quaternion_has_no_admissible_parameters(self):
        # no k in 2..6 satisfies k(k-1) = 7*lam
        for k in range(2, 7):
            assert k * (k - 1) % 7 != 0

    def test_quaternion_brute_force_empty(self):
        table, _ = group.multiplication_table(2)
        nontrivial = [
            D for mask in range(1 << 8)
            if (D := {i for i in range(8) if mask >> i & 1})
            and not classifier.is_trivial_difference_set(len(D), 8)
            and classifier.difference_set_lambda(table, D) is not None
        ]
        assert nontrivial == []

    def test_parameter_contradiction(self):
        with pytest.raises(ParameterContradictionError):
            search_difference_sets(cyclic_table(7), 7, 3, 2)
        with pytest.raises(ParameterContradictionError):
            search_difference_sets(cyclic_table(6), 7, 3, 1)
        # the empty set and an empty group are not difference sets
        with pytest.raises(ParameterContradictionError):
            search_difference_sets(cyclic_table(7), 7, 0, 0)
        with pytest.raises(ParameterContradictionError):
            search_difference_sets(cyclic_table(0), 0, 0, 0)

    @pytest.mark.parametrize("v, k, lam", [(1, 1, -3), (1, 1, -1), (7, 1, -3)])
    def test_negative_lambda_rejected(self, v, k, lam):
        # for v = 1 every lam satisfies k(k-1) = lam(v-1)
        with pytest.raises(ParameterContradictionError, match="lam >= 0"):
            search.check_ds_parameters(v, k, lam)
        with pytest.raises(ParameterContradictionError, match="lam >= 0"):
            search_difference_sets(cyclic_table(v), v, k, lam)

    def test_limit_respected(self):
        table, _ = group.multiplication_table(4)
        everything = search_difference_sets(table, 16, 6, 2)
        assert len(everything) > 5
        for j in range(6):
            assert search_difference_sets(table, 16, 6, 2, limit=j) \
                == everything[:j]

    def test_limit_respected_when_2k_exceeds_v(self):
        # the search runs on the complements, limited or not
        table, _ = group.multiplication_table(4)
        everything = search_difference_sets(table, 16, 10, 6)
        assert len(everything) > 5
        for j in range(6):
            assert search_difference_sets(table, 16, 10, 6, limit=j) \
                == everything[:j]

    def test_canonical_filter_is_translate_minimal(self):
        table = cyclic_table(7)
        for D in search_difference_sets(table, 7, 3, 1):
            key = tuple(sorted(D))
            for g in range(7):
                assert key <= tuple(sorted((d + g) % 7 for d in D))
        table, _ = group.multiplication_table(4)
        found = search_difference_sets(table, 16, 6, 2)
        assert found
        for D in found:
            key = tuple(sorted(D))
            for g in range(16):
                assert key <= tuple(sorted(table[d][g] for d in D))


def abelian_table(*orders):
    """The table of Z_orders[0] x Z_orders[1] x ..., elements numbered in
    lexicographic order of their coordinates, so 0 is the identity."""
    elements = list(itertools.product(*(range(m) for m in orders)))
    index = {x: i for i, x in enumerate(elements)}
    return [[index[tuple((a + b) % m for a, b, m in zip(x, y, orders))]
             for y in elements] for x in elements]


def refuse_orbit_search(*args, **kwargs):
    raise AssertionError("took the multiplier path")


def refuse_search(*args, **kwargs):
    raise AssertionError("reached the search")


def assert_translate_classes(table, v, lam, found):
    """Each set of `found` is a (v, k, lam) difference set of the cyclic
    `table`, is its own least translate, and no two are translates."""
    classes = set()
    for D in found:
        assert classifier.difference_set_lambda(table, D) == lam
        translates = {tuple(sorted((d + g) % v for d in D)) for g in range(v)}
        assert min(translates) == tuple(sorted(D))
        assert not translates & classes
        classes |= translates


ABELIAN_16 = {"Z16": (16,), "Z8xZ2": (8, 2), "Z4xZ4": (4, 4),
              "Z4xZ2^2": (4, 2, 2), "Z2^4": (2, 2, 2, 2)}


class TestNonexistence:
    @pytest.mark.parametrize("limit", [None, 1])
    def test_schuetzenberger_cyclic(self, monkeypatch, limit):
        # v = 22 is even and n = 5 is not a square
        table = relabelled(cyclic_table(22), random.Random(22))
        expected = seeded_search_difference_sets(table, 22, 7, 2, limit)
        assert expected == []
        monkeypatch.setattr(classifier, "inverses", refuse_search)
        assert search_difference_sets(table, 22, 7, 2, limit) == expected

    @pytest.mark.parametrize("limit", [None, 1])
    @pytest.mark.parametrize("v, k, lam", [(52, 18, 6), (76, 25, 8), (92, 14, 2)])
    def test_schuetzenberger_dicyclic(self, monkeypatch, v, k, lam, limit):
        # n = 12, 17 and 12; each search ran for over a minute without the rule
        table = group.multiplication_table(v // 4)[0]
        monkeypatch.setattr(classifier, "inverses", refuse_search)
        assert search_difference_sets(table, v, k, lam, limit) == []

    @pytest.mark.parametrize("k, lam", [(6, 2), (10, 6)])
    @pytest.mark.parametrize("name", ABELIAN_16)
    def test_turyn_on_the_abelian_groups_of_order_16(self, monkeypatch, name, k, lam):
        # u = 2: a set needs exponent <= 8, and Kraemer's construction
        # gives one in every such group, Z8 x Z2 at the bound included
        table = relabelled(abelian_table(*ABELIAN_16[name]), random.Random(16))
        expected = seeded_search_difference_sets(table, 16, k, lam)
        assert (expected == []) == (name == "Z16")
        if name == "Z16":
            monkeypatch.setattr(classifier, "inverses", refuse_search)
        assert search_difference_sets(table, 16, k, lam) == expected

    @pytest.mark.parametrize("orders, exponent", [
        ((7,), 7), ((16,), 16), ((8, 2), 8), ((4, 4), 4), ((2, 2, 2, 2), 2),
        ((3, 9), 9), ((3, 3, 3), 3), ((3, 57), 57)],
        ids=["Z7", "Z16", "Z8xZ2", "Z4xZ4", "Z2^4", "Z3xZ9", "Z3^3", "Z3xZ57"])
    def test_abelian_exponent(self, orders, exponent):
        table = relabelled(abelian_table(*orders), random.Random(len(orders)))
        assert search._abelian_exponent(table) == exponent

    def test_no_exponent_for_a_nonabelian_group(self):
        assert search._abelian_exponent(group.multiplication_table(4)[0]) is None


class TestMultiplierPath:
    @pytest.mark.parametrize("limit", [None, 1, 2])
    @pytest.mark.parametrize("v, k, lam", [(21, 5, 1), (31, 6, 1), (37, 9, 2),
                                           (57, 8, 1)])
    def test_cyclic_matches_seeded_search(self, v, k, lam, limit):
        table = relabelled(cyclic_table(v), random.Random(v))
        assert search._multiplier_maps(table, v, k, lam)
        assert search_difference_sets(table, v, k, lam, limit) \
            == seeded_search_difference_sets(table, v, k, lam, limit)

    def test_z3_z9_matches_seeded_search(self):
        # 7 divides n = 7, exceeds lam = 6, and x -> x^7 moves the Z_9
        # part; both searches find that Z_3 x Z_9 holds no such set
        table = abelian_table(3, 9)
        assert search._multiplier_maps(table, 27, 13, 6)
        assert search_difference_sets(table, 27, 13, 6) \
            == seeded_search_difference_sets(table, 27, 13, 6)

    @pytest.mark.parametrize("limit", [1, 2])
    def test_z3_cubed_refuses_the_orbit_search(self, monkeypatch, limit):
        # 7 = 1 mod 3, so x -> x^7 fixes every element of Z_3^3 and no
        # orbit search runs; the quotient search on Z_3^3 / <1> does
        table = abelian_table(3, 3, 3)
        monkeypatch.setattr(search, "_orbit_unions", refuse_orbit_search)
        assert search_difference_sets(table, 27, 13, 6, limit) \
            == seeded_search_difference_sets(table, 27, 13, 6, limit)

    @pytest.mark.parametrize("table, v, k, lam", [
        (abelian_table(3, 3, 3), 27, 13, 6),  # x -> x^7 is the identity
        (cyclic_table(15), 15, 8, 4),  # no divisor of n = 4 exceeds lam = 4
        (cyclic_table(16), 16, 6, 2),  # 4 divides n = 4 and shares 2 with v
        (cyclic_table(92), 92, 14, 2),  # 3 qualifies, gcd(k, v) = 2
        (group.multiplication_table(14)[0], 56, 11, 2),  # 3 qualifies, Dic_14
    ], ids=["Z3^3", "Z15", "Z16", "Z92", "Dic14"])
    def test_no_maps_outside_the_theorem(self, table, v, k, lam):
        assert search._multiplier_maps(table, v, k, lam) == []

    def test_cyclic_43_21_10(self):
        # out of reach of the element search; 11 divides n and exceeds lam
        table = cyclic_table(43)
        found = search_difference_sets(table, 43, 21, 10)
        assert len(found) == 8
        assert_translate_classes(table, 43, 10, found)

    @pytest.mark.parametrize("v, k, lam, classes", [
        (40, 13, 4, 4), (63, 31, 15, 12), (35, 17, 8, 2)])
    def test_second_theorem_classes(self, v, k, lam, classes):
        # Out of reach of the First Theorem, as no prime divisor of n
        # exceeds lam; m = n does (9, 16 and 9).  An inequivalent set D
        # gives phi(v) / |M(D)| translate classes, M(D) its multipliers,
        # here <3>, <2> and <3> mod v, of orders 4, 6 and 12: the Singer
        # set of PG(3, 3); the Singer set of PG(5, 2) and the GMW set;
        # the twin-prime set of 5 * 7.
        table = cyclic_table(v)
        found = search_difference_sets(table, v, k, lam)
        assert len(found) == classes
        assert_translate_classes(table, v, lam, found)
        assert search_difference_sets(table, v, k, lam, limit=1) == found[:1]

    def test_z15_7_3_takes_the_squaring_map(self):
        # m = 4 divides n = 4 and exceeds lam = 3, so t = 2 is a multiplier
        assert search._multiplier_maps(cyclic_table(15), 15, 7, 3) \
            == [[2 * x % 15 for x in range(15)]]

    @pytest.mark.parametrize("limit", [None, 1, 2])
    @pytest.mark.parametrize("k, lam", [(7, 3), (8, 4)])
    def test_z15_matches_seeded_search(self, k, lam, limit):
        # a full (15, 8, 4) search runs on the (15, 7, 3) complements
        table = relabelled(cyclic_table(15), random.Random(15))
        assert search_difference_sets(table, 15, k, lam, limit) \
            == seeded_search_difference_sets(table, 15, k, lam, limit)

    def test_multipliers_are_taken_mod_the_exponent(self):
        # Z_3 x Z_57 has exponent 57, and m = 14 divides n = 28, exceeds
        # lam = 7 and is prime to v = 171.  Mod 57, <2> and <7> share
        # {1, 7, 49}, generated by 7 = 2^6; mod 171 they share only 1
        table = abelian_table(3, 57)
        assert search._multiplier_maps(table, 171, 35, 7) \
            == [[7 * a % 3 * 57 + 7 * b % 57 for a in range(3) for b in range(57)]]

    def test_prime_factors(self):
        from sympy import primefactors
        for n in range(1, 3000):
            assert search._prime_factors(n) == primefactors(n)


def quotient_spy(monkeypatch):
    """Wrap search._quotient_lifts; the returned list gets the order of
    the normal subgroup of each call."""
    calls = []
    lifts = search._quotient_lifts

    def spy(table, quot, k, lam, normal):
        calls.append(len(normal))
        return lifts(table, quot, k, lam, normal)

    monkeypatch.setattr(search, "_quotient_lifts", spy)
    return calls


def quotient_table(table):
    """quot[x][y] = x y^-1, as search_difference_sets makes it."""
    inv = classifier.inverses(table)
    return [[row[j] for j in inv] for row in table]


def powers_of(table, g):
    """<g> in order of the powers of g."""
    powers = [0]
    while (x := table[powers[-1]][g]) != 0:
        powers.append(x)
    return powers


def permutation_table(perms):
    """The table of the group of the permutations `perms` (tuples,
    closed under composition, the identity first), with pq the
    permutation i -> p[q[i]]."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]


def symmetric_group_3():
    """The table of S_3, its permutations numbered in lexicographic
    order, so 0 is the identity."""
    return permutation_table(list(itertools.permutations(range(3))))


def alternating_group_4():
    """The table of A_4, its even permutations numbered in lexicographic
    order, so 0 is the identity."""
    return permutation_table([p for p in itertools.permutations(range(4))
                              if sum(p[i] > p[j] for j in range(4)
                                     for i in range(j)) % 2 == 0])


def dihedral_group_8():
    """The table of the symmetries of a square, the permutations of its
    corners 0..3 that keep neighbours neighbours, numbered in
    lexicographic order, so 0 is the identity and 5 the half turn."""
    return permutation_table([p for p in itertools.permutations(range(4))
                              if all((p[(i + 1) % 4] - p[i]) % 2 for i in range(4))])


def frobenius_56():
    """The table of the Frobenius group Z_2^3 : Z_7: the pairs (a, i),
    a in F_8 = F_2[w] / (w^3 + w + 1) and i in Z_7, numbered a + 8i,
    with (a, i)(b, j) = (a + w^i b, i + j).  Its normal subgroup Z_2^3
    is 0..7, and it has no other proper normal subgroup."""
    scaled = [list(range(8))]  # scaled[i][b] = w^i b
    for _ in range(6):
        scaled.append([b << 1 ^ 0b1011 if b & 4 else b << 1 for b in scaled[-1]])
    return [[(a ^ scaled[i][b]) + 8 * ((i + j) % 7) for j in range(7) for b in range(8)]
            for i in range(7) for a in range(8)]


def brute_force_images(coset_quot, c, k, lam):
    """Oracle for search._coset_images: every vector of {0..c}^m with
    its largest count on coset 0, filtered by sum x = k,
    sum x^2 = k - lam + lam c and sum_b x_hb x_b = lam c for h != 0."""
    m = len(coset_quot)
    images = []
    for x in itertools.product(range(c + 1), repeat=m):
        if x[0] != max(x) or sum(x) != k or sum(t * t for t in x) != k - lam + lam * c:
            continue
        sums = [0] * m
        for a in range(m):
            for b in range(m):
                sums[coset_quot[a][b]] += x[a] * x[b]
        if all(s == lam * c for s in sums[1:]):
            images.append(x)
    return images


DIC4 = group.multiplication_table(4)[0]

# group, generator of N, v and the (k, lam) tried; the quotients have
# m <= 8 cosets, Dic4 / <a^4> is the dihedral group of order 8, and
# Z7 / <1> has one coset
QUOTIENTS = {
    "Dic4/<a^4>": (DIC4, 4, [(6, 2), (10, 6), (5, 1), (7, 3)]),
    "Dic4/<a^2>": (DIC4, 2, [(6, 2), (10, 6)]),
    "Dic4/<a>": (DIC4, 1, [(6, 2), (10, 6)]),
    "Z16/<8>": (cyclic_table(16), 8, [(6, 2), (10, 6)]),
    "Z2^4/<1>": (abelian_table(2, 2, 2, 2), 1, [(6, 2), (10, 6)]),
    "Z4xZ4/<4>": (abelian_table(4, 4), 4, [(6, 2), (10, 6)]),
    "Z15/<5>": (cyclic_table(15), 5, [(7, 3), (8, 4)]),
    "Z15/<3>": (cyclic_table(15), 3, [(7, 3), (8, 4)]),
    "Z21/<7>": (cyclic_table(21), 7, [(5, 1), (16, 12)]),
    "S3/A3": (symmetric_group_3(), 3, [(5, 4), (2, 1)]),
    "Z7/<1>": (cyclic_table(7), 1, [(3, 1), (4, 2)]),
}


class TestQuotientPath:
    def test_matches_seeded_search_on_oracle_cases(self, monkeypatch):
        calls = quotient_spy(monkeypatch)
        taken = []
        for label, table, v, k, lam in oracle_cases(max_v=20, max_n=5):
            before = len(calls)
            found = search_difference_sets(table, v, k, lam)
            if len(calls) > before:
                taken.append((label, v, k, lam))
                assert found == seeded_search_difference_sets(table, v, k, lam)
        assert taken == [("Dic4", 16, 6, 2), ("Dic4", 16, 10, 6),
                         ("Dic4r", 16, 6, 2), ("Dic4r", 16, 10, 6)]

    @pytest.mark.parametrize("relabel", [False, True], ids=["natural", "relabelled"])
    @pytest.mark.parametrize("k, lam", [(6, 2), (10, 6)])
    @pytest.mark.parametrize("name", ["Z2^4", "Z4xZ4", "Z8xZ2", "Z4xZ2^2", "Dic4"])
    def test_order_16_matches_seeded_search(self, monkeypatch, name, k, lam, relabel):
        table = DIC4 if name == "Dic4" else abelian_table(*ABELIAN_16[name])
        if relabel:
            table = relabelled(table, random.Random(16))
        calls = quotient_spy(monkeypatch)
        assert search_difference_sets(table, 16, k, lam) \
            == seeded_search_difference_sets(table, 16, k, lam)
        assert calls == [2]

    def test_dic4_takes_the_path_under_a_limit(self, monkeypatch):
        everything = search_difference_sets(DIC4, 16, 6, 2)
        calls = quotient_spy(monkeypatch)
        assert search_difference_sets(DIC4, 16, 6, 2, limit=1) == everything[:1]
        assert calls == [2]

    @pytest.mark.parametrize("table, v, k, lam, normal", [
        (DIC4, 16, 6, 2, powers_of(DIC4, 2)), (DIC4, 16, 10, 6, powers_of(DIC4, 1)),
        (cyclic_table(45), 45, 12, 3, powers_of(cyclic_table(45), 9)),
        (abelian_table(3, 3, 3), 27, 13, 6, [0, 1, 2]),
        (abelian_table(4, 4), 16, 6, 2, [0, 1, 2, 3]),
        (abelian_table(4, 4), 16, 6, 2, [0, 2, 8, 10]),
        (abelian_table(2, 2, 2, 2), 16, 6, 2, [0, 1, 2, 3]),
        (abelian_table(3, 3, 3), 27, 13, 6, list(range(9))),
    ], ids=["Dic4/<a^2>", "Dic4/<a>", "Z45/<9>", "Z3^3/<1>", "Z4xZ4/<1>",
            "Z4xZ4/{0,2}^2", "Z2^4/Z2^2", "Z3^3/Z3^2"])
    def test_every_normal_subgroup_gives_the_same_classes(self, table, v, k, lam, normal):
        # the last three N are not cyclic
        quot = quotient_table(table)
        lifts = search._quotient_lifts(table, quot, k, lam, normal)
        assert search._least_translates(table, quot, lifts) \
            == search_difference_sets(table, v, k, lam)

    def test_cyclic_45_12_3_has_no_set(self, monkeypatch):
        # gcd(k, v) = 3, so no multiplier map; no image on Z_45 / <15>
        # lifts to a difference set.  The element search ran without
        # bound; a limit keeps the quotient path
        calls = quotient_spy(monkeypatch)
        for limit in (None, 1):
            calls.clear()
            assert search_difference_sets(cyclic_table(45), 45, 12, 3, limit) == []
            assert calls == [3]

    def test_frobenius_56_11_2_has_no_set(self, monkeypatch):
        # Z_2^3 : Z_7 has no multiplier map and no normal subgroup of
        # prime order; on the 7 cosets of Z_2^3 no image lifts to a set.
        # Cross-check: a backtracking over single elements with forward
        # checking and partial canonicity found the same [] in 16 s
        calls = quotient_spy(monkeypatch)
        assert search_difference_sets(frobenius_56(), 56, 11, 2) == []
        assert calls == [8]

    @pytest.mark.parametrize("table, normal", [
        (DIC4, [0, 4]), (group.multiplication_table(2)[0], [0, 2]),
        (group.multiplication_table(9)[0], [0, 9]),
        (cyclic_table(45), [0, 15, 30]), (abelian_table(3, 3, 3), [0, 1, 2]),
        (symmetric_group_3(), [0, 3, 4]), (cyclic_table(7), list(range(7))),
        (frobenius_56(), list(range(8))), (alternating_group_4(), [0, 3, 8, 11]),
        (dihedral_group_8(), [0, 5])],
        ids=["Dic4", "Dic2", "Dic9", "Z45", "Z3^3", "S3", "Z7", "Z2^3:Z7", "A4", "D4"])
    def test_least_normal_subgroup(self, table, normal):
        # a^n, of order 2, spans the centre of Dic_n; in S_3 no subgroup
        # of order 2 is normal; Z_7 has no proper subgroup, so N is all
        # of it; in Z_2^3 : Z_7 and A_4 no element generates a normal
        # subgroup, and the closure of an element of order 2 is Z_2^3 and
        # the Klein four-group V_4; in D_4 a reflection's closure has 4
        # elements, and the smallest closure is the centre
        assert search._least_normal_subgroup(table, quotient_table(table)) == normal

    def test_least_normal_subgroup_in_any_labels(self):
        # the centre {1, a^4} of Dic4, whatever its labels
        table = relabelled(DIC4, random.Random(4))
        found = search._least_normal_subgroup(table, quotient_table(table))
        assert len(found) == 2
        assert all(table[x][y] == table[y][x] for x in found for y in range(16))

    @pytest.mark.parametrize("relabel", [False, True], ids=["natural", "relabelled"])
    @pytest.mark.parametrize("name", QUOTIENTS)
    def test_coset_images_match_brute_force(self, name, relabel):
        table, g, params = QUOTIENTS[name]
        if relabel:
            rng = random.Random(len(table))
            new_of = [0] + rng.sample(range(1, len(table)), len(table) - 1)
            table, g = relabelled_by(table, new_of), new_of[g]
        normal, quot = powers_of(table, g), quotient_table(table)
        cosets, coset_quot = search._cosets(table, quot, normal)
        assert cosets[0] == sorted(normal)
        for a, b in itertools.product(range(len(cosets)), repeat=2):
            assert {quot[x][y] for x in cosets[a] for y in cosets[b]} \
                == set(cosets[coset_quot[a][b]])
        seen = 0
        for k, lam in params:
            expected = brute_force_images(coset_quot, len(normal), k, lam)
            assert sorted(search._coset_images(coset_quot, len(normal), k, lam)) \
                == expected
            seen += len(expected)
        assert seen > 0


class TestElementSearch:
    """The quotient path on one coset, N = G: its only image is (k), and
    its lift is a backtracking over the elements from the pinned 0."""

    @pytest.mark.parametrize("limit", [None, 1, 2])
    @pytest.mark.parametrize("v, k, lam", [(13, 4, 1), (19, 9, 4), (19, 10, 5),
                                           (31, 6, 1)])
    def test_prime_cyclic_without_multiplier_matches_seeded_search(
            self, monkeypatch, v, k, lam, limit):
        # with the multiplier maps withheld, a prime order leaves no
        # proper normal subgroup, so the search runs on one coset;
        # (19, 10, 5) reaches it through its (19, 9, 4) complements
        calls = quotient_spy(monkeypatch)
        monkeypatch.setattr(search, "_multiplier_maps", lambda *args: [])
        table = relabelled(cyclic_table(v), random.Random(v))
        assert search._least_normal_subgroup(table, quotient_table(table)) \
            == list(range(v))
        assert search_difference_sets(table, v, k, lam, limit) \
            == seeded_search_difference_sets(table, v, k, lam, limit)
        assert calls == [v]

    @pytest.mark.parametrize("limit", [None, 1, 2])
    @pytest.mark.parametrize("k, lam", [(6, 2), (10, 6)])
    def test_dic4_without_quotient_matches_seeded_search(self, monkeypatch,
                                                         k, lam, limit):
        # a nonabelian table, where sd and ds differ, with N forced to G
        calls = quotient_spy(monkeypatch)
        monkeypatch.setattr(search, "_least_normal_subgroup",
                            lambda table, quot: list(range(len(table))))
        table = relabelled(DIC4, random.Random(16))
        assert search_difference_sets(table, 16, k, lam, limit) \
            == seeded_search_difference_sets(table, 16, k, lam, limit)
        assert calls == [16]


def translate_tables():
    """Relabelled Z_v for v <= 31, Dic_4, Z_4 x Z_4, Z_2^4 and Z_3^3."""
    rng = random.Random(31)
    for v in range(2, 32):
        yield f"Z{v}", relabelled(cyclic_table(v), rng)
    for name, table in (("Dic4", DIC4), ("Z4xZ4", abelian_table(4, 4)),
                        ("Z2^4", abelian_table(2, 2, 2, 2)),
                        ("Z3^3", abelian_table(3, 3, 3))):
        yield name, relabelled(table, rng)


def candidate_lists(table):
    """Every candidate list the search ranks on `table`: for each
    admissible (k, lam) with 2 <= k <= v / 2, the orbit unions or the
    quotient lifts of _candidates, and their complements, which a
    (v, v - k, v - 2k + lam) search ranks."""
    v, quot = len(table), quotient_table(table)
    for k, lam in admissible_parameters(v):
        if 2 <= k <= v // 2:
            sets = search._candidates(table, quot, k, lam)
            yield (k, lam), sets
            yield (v - k, v - 2 * k + lam), [[x for x in range(v) if x not in D]
                                             for D in sets]


def left_coset_unions(table, rng):
    """Unions of left cosets xH of a cyclic subgroup H = <g>, g != 0: each
    is fixed by right translation by every element of H."""
    v = len(table)
    H = powers_of(table, rng.randrange(1, v))
    cosets = {frozenset(table[x][h] for h in H) for x in range(v)}
    cosets = sorted(map(sorted, cosets))
    for size in range(1, len(cosets) + 1):
        yield [x for coset in rng.sample(cosets, size) for x in coset]


class TestLeastTranslates:
    def test_candidate_lists_match_sorting_oracle(self):
        mismatches, seen = [], 0
        for name, table in translate_tables():
            quot = quotient_table(table)
            for params, sets in candidate_lists(table):
                seen += len(sets)
                if search._least_translates(table, quot, sets) \
                        != sorted_least_translates(quot, sets):
                    mismatches.append((name, params))
        assert mismatches == []
        assert seen > 1000

    def test_random_sets_match_sorting_oracle(self):
        # any subsets, most of them no difference set, and unions of left
        # cosets, whose translates coincide, so the narrowing runs out
        rng = random.Random(30)
        mismatches = []
        for name, table in translate_tables():
            v, quot = len(table), quotient_table(table)
            sets = [rng.sample(range(v), rng.randint(1, v)) for _ in range(40)]
            for _ in range(4):
                sets += left_coset_unions(table, rng)
            for D in sets:
                if search._least_translates(table, quot, [D]) \
                        != sorted_least_translates(quot, [D]):
                    mismatches.append((name, sorted(D)))
            if search._least_translates(table, quot, sets) \
                    != sorted_least_translates(quot, sets):
                mismatches.append((name, "all"))
        assert mismatches == []

    def test_found_sets_hold_0_and_1(self):
        # lam >= 1 for 2 <= k <= v - 2, so 1 = xy^-1 for exactly lam pairs
        # of D, and exactly lam of the translates Dy^-1, y in D, hold 1
        checked = 0
        for label, table, v, k, lam in oracle_cases(max_v=20, max_n=5):
            if not 2 <= k <= v - 2:
                continue
            quot = quotient_table(table)
            for D in search_difference_sets(table, v, k, lam):
                assert {0, 1} <= D, (label, v, k, lam)
                assert sum(1 in {quot[x][y] for x in D} for y in D) == lam, \
                    (label, v, k, lam)
                checked += 1
        assert checked > 0
