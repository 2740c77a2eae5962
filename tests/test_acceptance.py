"""Acceptance gate.

Each test covers one numbered criterion and prints a single pass line
(visible with pytest -s); a failed assert is the fail line for that
criterion.
"""

import cmath
import random

from conftest import all_valid_specs, naive_bfs_distances
from dicirculant import classifier, fourier, group, search, structure
from dicirculant.cayley import build_graph, spec_violations, validate_spec
from dicirculant.classifier import (condition_iii, condition_iii_prime,
                                    cyclic_table)
from dicirculant.metrics import (IntersectionArray, bfs_distances,
                                 distance_partition, is_distance_regular)
from oracles import (convolve, definitional_graph, halved_graphs,
                     profile_reconstruction)


def report(num, message):
    print(f"[criterion {num:2d}] PASS: {message}")


def odd_residue_specs(n):
    """All valid specs whose R and T are non-empty sets of odd residues."""
    out = []
    for spec in all_valid_specs(n):
        if not spec.R or not spec.T:
            continue
        if all(r % 2 for r in spec.R) and all(t % 2 for t in spec.T):
            out.append(spec)
    return out


def test_criterion_1_survey_cross_check(surveys_upto_6):
    total_failures = 0
    for n in range(1, 7):
        total_failures += len(surveys_upto_6[n].cross_check_failures)
    assert total_failures == 0
    assert surveys_upto_6.elapsed < 60
    report(1, f"n=1..6 survey: zero classify-vs-BFS disagreements "
              f"in {surveys_upto_6.elapsed:.1f}s")


def test_criterion_2_odd_n_classification(surveys_upto_6):
    for n in (1, 3, 5):
        part_sizes = []
        for inst in surveys_upto_6[n].drg_instances:
            tag = inst.classification.tag
            assert tag in (classifier.COMPLETE, classifier.MULTIPARTITE)
            if tag == classifier.COMPLETE:
                part_sizes.append(1)  # complete = parts of size 1
            else:
                part_sizes.append(inst.classification.params[1])
        divisors = [m for m in range(1, 4 * n) if (4 * n) % m == 0]
        # one canonical class per proper divisor, the part size
        assert sorted(part_sizes) == divisors
    report(2, "n in {1,3,5}: only complete/multipartite, one class per "
              "divisor m | 4n, m < 4n")


def test_criterion_3_non_existence(surveys_upto_6):
    for n in range(1, 7):
        for inst in surveys_upto_6[n].drg_instances:
            assert inst.family.kind != "CrownGraph"
            assert not any(tag.startswith("CrownGraph") for tag in inst.family.also)
            d = inst.array.d
            if inst.antipodal and d == 3:
                assert inst.bipartite
            if inst.antipodal and d == 4:
                assert not inst.bipartite
    report(3, "n<=6: no crown graphs, no antipodal non-bipartite d=3, "
              "no antipodal bipartite d=4")


def test_criterion_4_primitive_implies_complete(surveys_upto_6):
    count = 0
    for n in range(1, 7):
        for inst in surveys_upto_6[n].drg_instances:
            if inst.primitive:
                assert inst.classification.tag == classifier.COMPLETE
                count += 1
    report(4, f"all {count} primitive DRGs for n<=6 are complete")


def test_criterion_5_fourier_identities(surveys_upto_6):
    count = 0
    for n in range(1, 7):
        for inst in surveys_upto_6[n].drg_instances:
            assert inst.fourier_ok
            count += 1
    report(5, f"spectral identities hold exactly for all {count} DRGs, n<=6")


def test_criterion_6_parity(surveys_upto_6):
    for n in range(1, 7):
        for inst in surveys_upto_6[n].drg_instances:
            assert inst.array.lam % 2 == 0
            if inst.array.d >= 2:
                dp = distance_partition(inst.spec, build_graph(inst.spec))
                if dp.t_sets[2]:
                    assert inst.array.mu % 2 == 0
    report(6, "lambda even for every DRG; mu even whenever T_2 nonempty")


def test_criterion_7_iii_equivalence():
    checked = 0
    for n in (2, 4, 6, 8):
        for spec in odd_residue_specs(n):
            assert bool(condition_iii(spec)) == condition_iii_prime(spec)
            checked += 1
    report(7, f"counting criterion agrees with difference-set criterion "
              f"on all {checked} valid odd-residue specs, n in {{2,4,6,8}}")


def test_criterion_8_difference_set_engine():
    classes = search.search_difference_sets(cyclic_table(7), 7, 3, 1)
    containing = [D for D in classes
                  if any({(d + g) % 7 for d in D} == {1, 2, 4}
                         for g in range(7))]
    assert len(containing) == 1
    # Q_8: non-trivial sizes are 2..6, none admissible since 7 | k(k-1) fails
    assert all(k * (k - 1) % 7 for k in range(2, 7))
    table, _ = group.multiplication_table(2)
    for mask in range(1, 1 << 8):
        D = {i for i in range(8) if mask >> i & 1}
        if classifier.is_trivial_difference_set(len(D), 8):
            continue
        assert classifier.difference_set_lambda(table, D) is None
    report(8, "Z_7 (7,3,1): one translate class contains {1,2,4}; "
              "Q_8 has no non-trivial difference set")


def reconstruct_spec_from_difference_set(D):
    """Invert the index-2 embedding: an index i < 8 stands for a^(2i)
    and 8+j for a^(2j) b inside Dic_8, so the connection sets are
    R = 1 + 2i and T = 1 + 2j (mod 16).  Returns a valid spec or None."""
    R = {(2 * i + 1) % 16 for i in D if i < 8}
    T = {(2 * (i - 8) + 1) % 16 for i in D if i >= 8}
    if not R or not T or spec_violations(8, R, T):
        return None
    spec = validate_spec(8, R, T)
    return spec if spec.connected else None


def test_criterion_9_family_iii_witness():
    table, _ = group.multiplication_table(4)
    classes = search.search_difference_sets(table, 16, 6, 2)
    witnesses = []
    for D in classes:
        for g in range(16):
            spec = reconstruct_spec_from_difference_set(
                frozenset(table[d][g] for d in D))
            if spec is not None:
                witnesses.append(spec)
    if witnesses:
        for spec in witnesses:
            arr = is_distance_regular(build_graph(spec), True)
            assert isinstance(arr, IntersectionArray)
            assert (arr.b, arr.c) == ((6, 5, 4), (1, 2, 6))
            g = build_graph(spec)
            assert structure.bipartition(g) is not None
            assert structure.antipodal_classes(g, arr.d) is None
            for half in halved_graphs(g):
                assert half.n_vertices == 16
                assert all(half.degree(v) == 15 for v in range(16))
            assert condition_iii(spec)
            assert condition_iii_prime(spec)
        outcome = f"{len(witnesses)} reconstructed witness spec(s) verified"
    else:
        outcome = ("no family-(iii) instance exists at n=8 via this "
                   "construction")
    # cross-check against the direct counting-criterion scan at n=8
    scan_hits = [spec for spec in odd_residue_specs(8) if condition_iii(spec)]
    assert bool(witnesses) == bool(scan_hits), \
        "difference-set path and counting path disagree at n=8"
    report(9, f"Dic_4 (16,6,2): {len(classes)} translate classes; {outcome}; "
              f"consistent with the exhaustive n=8 scan")


def test_criterion_10_fourier_toolkit():
    rng = random.Random(20260823)
    worst = 0.0
    for _ in range(1000):
        m = rng.randint(1, 128)
        f = tuple(rng.randint(0, 2) for _ in range(m))
        g = tuple(rng.randint(0, 2) for _ in range(m))
        lhs = fourier.dft(convolve(f, g))
        ff = fourier.dft(f)
        gg = fourier.dft(g)
        worst = max(worst, max(abs(lhs[z] - ff[z] * gg[z]) for z in range(m)))
    assert worst < 1e-9

    for m in range(1, 17):
        divisors = [r for r in range(1, m + 1) if m % r == 0]
        omegas = {r: cmath.exp(2j * cmath.pi / m * (m // r)) if m > 1 else 1.0
                  for r in divisors}
        for mask in range(1 << m):
            A = [i for i in range(m) if mask >> i & 1]
            for r in divisors:
                recon = profile_reconstruction(
                    fourier.coset_profile(A, r, m), m)
                point = sum(omegas[r] ** a for a in A)
                assert abs(recon - point) < 1e-9

    from sympy import totient
    for m in range(1, 65):
        for r, members in fourier.unit_orbits(m):
            assert len(members) == totient(r)
    report(10, "convolution theorem (1000 random pairs, m<=128), coset "
               "profile reconstruction (m<=16), orbit sizes phi(r) (m<=64)")


def test_criterion_11_oracle_equivalence():
    specs = 0
    for n in (1, 2, 3):
        for spec in all_valid_specs(n):
            g = build_graph(spec)
            assert g == definitional_graph(spec)
            for v in range(4 * n):
                assert bfs_distances(g, v) == naive_bfs_distances(g, v)
            specs += 1
    report(11, f"formula adjacency = definitional adjacency and bitset BFS "
               f"= queue BFS on all {specs} specs, n<=3")
