import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicirculant import fourier, group
from dicirculant.cayley import bit_members, build_graph, validate_spec
from dicirculant.fourier import (InvalidDivisorError, coset_profile, dft,
                                 dft_of_set, indicator, is_transversal,
                                 unit_orbits)
from dicirculant.metrics import distance_partition, is_distance_regular
from dicirculant.search import survey
from oracles import (ModulusMismatchError, convolve, profile_reconstruction,
                     subgroup_of_order)

TOL = 1e-9

# the parameters check_fourier_lemma reads from an intersection array
Params = namedtuple("Params", "k lam mu")


def float_fourier_lemma(spec, dp, array, tolerance=TOL):
    """The spectral identities in DFT form, r^2 + |t|^2 = k + lam*r + mu*r2
    and 2*r*t = lam*t + mu*t2 pointwise on Z_2n: the oracle for the exact
    check_fourier_lemma."""
    m = 2 * spec.n
    mu = array.mu if array.mu is not None else 0
    shells = (dp.r_sets[2], dp.t_sets[2]) if dp.diameter >= 2 else ((), ())
    r, t, r2, t2 = (dft_of_set(A, m) for A in (spec.R, spec.T, *shells))
    return all(
        abs(r[z] ** 2 + abs(t[z]) ** 2 - array.k - array.lam * r[z] - mu * r2[z])
        <= tolerance
        and abs(2 * r[z] * t[z] - array.lam * t[z] - mu * t2[z]) <= tolerance
        for z in range(m))


def schoolbook_fourier_lemma(spec, dp, array):
    """The spectral identities as schoolbook convolutions of indicator
    tuples: the second oracle for the mask counts of the exact
    check_fourier_lemma."""
    m = 2 * spec.n
    mu = array.mu if array.mu is not None else 0
    shells = (dp.r_sets[2], dp.t_sets[2]) if dp.diameter >= 2 else ((), ())
    r, t, r2, t2 = (indicator(A, m) for A in (spec.R, spec.T, *shells))
    rr = convolve(r, r)
    tt = convolve(t, indicator({-x for x in spec.T}, m))
    rt = convolve(r, t)
    return all(
        rr[z] + tt[z] == (z == 0) * array.k + array.lam * r[z] + mu * r2[z]
        and 2 * rt[z] == array.lam * t[z] + mu * t2[z] for z in range(m))


class TestConvolution:
    def test_delta_zero_is_identity(self):
        f = (3, 1, 4, 1)
        assert convolve(f, indicator({0}, 4)) == f

    def test_small_example(self):
        f = indicator({0, 2}, 4)
        assert convolve(f, f) == (2, 0, 2, 0)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            convolve(indicator({0}, 4), indicator({0}, 6))

    def test_commutative_random(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rng.randint(1, 64)
            f = tuple(rng.randint(-5, 5) for _ in range(m))
            g = tuple(rng.randint(-5, 5) for _ in range(m))
            assert convolve(f, g) == convolve(g, f)

    def test_indicator_convolution_counts_intersections(self):
        # (Delta_A * Delta_B)(i) = |(i-A) n B|
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(1, 32)
            A = {rng.randrange(m) for _ in range(rng.randint(0, m))}
            B = {rng.randrange(m) for _ in range(rng.randint(0, m))}
            conv = convolve(indicator(A, m), indicator(B, m))
            for i in range(m):
                assert conv[i] == len({(i - a) % m for a in A} & B)


class TestDFT:
    def test_delta_zero_transforms_to_ones(self):
        fv = dft(indicator({0}, 6))
        assert all(abs(z - 1) < TOL for z in fv)

    def test_all_ones_concentrates(self):
        fv = dft((1,) * 6)
        assert abs(fv[0] - 6) < TOL
        assert all(abs(z) < TOL for z in fv[1:])

    def test_small_example(self):
        fv = dft(indicator({0, 2}, 4))
        expected = (2, 0, 2, 0)
        assert all(abs(a - b) < TOL for a, b in zip(fv, expected))

    def test_value_at_zero_is_set_size(self):
        fv = dft_of_set({1, 3, 4}, 9)
        assert abs(fv[0].real - 3) < TOL
        assert abs(fv[0].imag) < 1e-12

    def test_convolution_theorem_random(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(1, 128)
            f = tuple(rng.randint(0, 3) for _ in range(m))
            g = tuple(rng.randint(0, 3) for _ in range(m))
            lhs = dft(convolve(f, g))
            ff, gg = dft(f), dft(g)
            assert all(abs(lhs[z] - ff[z] * gg[z]) < 1e-6 * max(1, m)
                       for z in range(m))


class TestOrbits:
    def test_m6(self):
        orbits = dict(unit_orbits(6))
        assert orbits == {1: frozenset({0}), 2: frozenset({3}),
                          3: frozenset({2, 4}), 6: frozenset({1, 5})}

    def test_m4(self):
        orbits = dict(unit_orbits(4))
        assert orbits == {1: frozenset({0}), 2: frozenset({2}),
                          4: frozenset({1, 3})}

    @pytest.mark.parametrize("m", range(1, 65))
    def test_sizes_are_totients(self, m):
        from sympy import totient
        for r, members in unit_orbits(m):
            assert m % r == 0
            assert len(members) == totient(r)

    def test_union_of_orbits_has_integer_dft(self):
        # contrapositive form of the rationality lemma
        rng = random.Random(3)
        for m in range(1, 33):
            orbits = unit_orbits(m)
            for _ in range(5):
                chosen = [members for _, members in orbits if rng.random() < 0.5]
                A = set().union(*chosen) if chosen else set()
                for z in dft_of_set(A, m):
                    assert abs(z.imag) < 1e-9
                    assert abs(z.real - round(z.real)) < 1e-6


class TestTransversals:
    def test_transversal_true(self):
        assert is_transversal({0, 1}, 2, 4)

    def test_transversal_false(self):
        assert not is_transversal({0, 2}, 2, 4)

    def test_invalid_divisor(self):
        with pytest.raises(InvalidDivisorError):
            is_transversal({0}, 3, 4)

    def test_transversal_vanishing(self):
        # F Delta_{0,1}(2) = 1 + w^2 = 0 for m = 4
        assert abs(dft_of_set({0, 1}, 4)[2]) < TOL

    @pytest.mark.parametrize("m", [4, 6, 8, 9, 12])
    def test_vanishing_on_random_transversals(self, m):
        rng = random.Random(m)
        for r in range(2, m):
            if m % r:
                continue
            for _ in range(10):
                A = {i + r * rng.randrange(m // r) for i in range(r)}
                assert is_transversal(A, r, m)
                fv = dft_of_set(A, m)
                for mult in range(1, r):
                    if mult % r == 0:
                        continue
                    z = (mult * (m // r)) % m
                    if z:
                        assert abs(fv[z]) < 1e-8


class TestCosetProfiles:
    def test_example_m6(self):
        profile = coset_profile({1, 2, 4}, 3, 6)
        assert profile == (0, 2, 1)
        recon = profile_reconstruction(profile, 6)
        assert abs(recon - dft_of_set({1, 2, 4}, 6)[2]) < TOL

    def test_example_m4(self):
        assert coset_profile({0, 1}, 2, 4) == (1, 1)

    def test_counts_partition_the_set(self):
        rng = random.Random(2)
        for _ in range(100):
            m = rng.randint(1, 64)
            A = {rng.randrange(m) for _ in range(rng.randint(0, m))}
            for r in range(1, m + 1):
                if m % r:
                    continue
                assert sum(coset_profile(A, r, m)) == len(A)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_reconstruction_exhaustive_small(self, m):
        for mask in range(1 << m):
            A = {i for i in range(m) if mask >> i & 1}
            fv = dft_of_set(A, m)
            for r in range(1, m + 1):
                if m % r:
                    continue
                recon = profile_reconstruction(coset_profile(A, r, m), m)
                assert abs(recon - fv[(m // r) % m]) < TOL


class TestLemmas:
    def test_fourier_lemma_k4x2(self):
        spec = validate_spec(2, {1, 3}, {0, 1, 2, 3})
        g = build_graph(spec)
        arr = is_distance_regular(g, True)
        dp = distance_partition(spec, g)
        assert (arr.k, arr.lam, arr.mu) == (6, 4, 6)
        assert fourier.check_fourier_lemma(spec, dp, arr)

    def test_fourier_lemma_c4(self):
        spec = validate_spec(1, set(), {0, 1})
        g = build_graph(spec)
        arr = is_distance_regular(g, True)
        dp = distance_partition(spec, g)
        assert (arr.k, arr.lam, arr.mu) == (2, 0, 2)
        assert fourier.check_fourier_lemma(spec, dp, arr)

    @pytest.mark.parametrize("m", range(2, 25))
    def test_orbit_transversal_exhaustive(self, m):
        # every orbit-closed transversal A of (m/p)Z_m, p a prime divisor
        # of m, has p = 2 or A = pZ_m
        primes = [p for p in range(2, m + 1) if m % p == 0
                  and all(p % q for q in range(2, p))]
        orbits = [members for _, members in unit_orbits(m)]
        for p in primes:
            for mask in range(1 << len(orbits)):
                chosen = [orb for b, orb in enumerate(orbits) if mask >> b & 1]
                A = set().union(*chosen) if chosen else set()
                if len(A) != m // p or not is_transversal(A, m // p, m):
                    continue
                assert p == 2 or A == set(range(0, m, p)), (A, p)


class TestExactFourierLemma:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_float_form_on_survey_drgs(self, n):
        # Planted negatives: lam + 1 moves 2 1_R*1_T off lam 1_T (T is
        # never empty), and mu + 1 moves a side off mu 1_R2 or mu 1_T2
        # once the distance-2 shell is non-empty (d >= 2).
        checks = (fourier.check_fourier_lemma, float_fourier_lemma)
        instances = survey(n).drg_instances
        assert instances
        for inst in instances:
            dp = distance_partition(inst.spec, build_graph(inst.spec))
            arr = inst.array
            assert all(check(inst.spec, dp, arr) for check in checks), inst.spec
            negatives = [Params(arr.k, arr.lam + 1, arr.mu)]
            if arr.d >= 2:
                negatives.append(Params(arr.k, arr.lam, arr.mu + 1))
            for wrong in negatives:
                assert not any(check(inst.spec, dp, wrong) for check in checks), \
                    (inst.spec, wrong)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exact_verdict_is_float_verdict(self, data):
        # A violated identity leaves a DFT residual of at least 1 by
        # Parseval, so the float form at 1e-9 decides the same way.
        # Half the draws are a complement Dic_n \ H of a proper subgroup
        # moved by a random automorphism: a DRG with large R and T, and T
        # often not symmetric.
        n = data.draw(st.integers(1, 12), label="n")
        if data.draw(st.booleans(), label="subgroup complement"):
            order = data.draw(st.sampled_from(
                [d for d in range(1, 4 * n) if 4 * n % d == 0]), label="|H|")
            H = subgroup_of_order(n, order)
            params = data.draw(st.sampled_from(group.automorphism_params(n)),
                               label="(u, v)")
            S = [g for g in range(4 * n) if g not in H]
            R, T = group.transform_sets(params, n,
                                        {g for g in S if g < 2 * n},
                                        {g - 2 * n for g in S if g >= 2 * n})
        else:
            r_pairs = data.draw(st.sets(st.integers(1, n)), label="R pairs")
            t_pairs = data.draw(st.sets(st.integers(0, n - 1), min_size=1),
                                label="T pairs")
            R = {x for i in r_pairs for x in (i, -i)}
            T = {x for i in t_pairs for x in (i, i + n)}
        spec = validate_spec(n, R, T)
        if not spec.connected:
            return
        g = build_graph(spec)
        dp = distance_partition(spec, g)

        def common_neighbours(shell):
            """Of the base vertex and the least vertex of the shell."""
            return (g.rows[0] & g.rows[min(bit_members(shell))]).bit_count()

        # (lam, mu) as counted at the base vertex, then perturbed
        lam = common_neighbours(dp.shells[1]) + data.draw(st.integers(-1, 1))
        mu = (common_neighbours(dp.shells[2]) + data.draw(st.integers(-1, 1))
              if dp.diameter >= 2 else None)
        array = Params(spec.degree, lam, mu)
        assert fourier.check_fourier_lemma(spec, dp, array) \
            == float_fourier_lemma(spec, dp, array)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_verdicts_agree_on_planted_drgs(self, data):
        # Dic_n \ H for a proper subgroup H = <a^d> or <a^d, a^j b> is
        # complete multipartite, so distance-regular; moved by a random
        # (u, v) automorphism its T is often not -T, which is where a
        # T / -T mix-up in the counts shows.
        n = data.draw(st.integers(1, 32), label="n")
        m = 2 * n
        dihedral = [d for d in range(2, n + 1) if n % d == 0]
        if dihedral and data.draw(st.booleans(), label="H holds a^j b"):
            d = data.draw(st.sampled_from(dihedral), label="d")
            gens = [d, m + data.draw(st.integers(0, d - 1), label="j")]
        else:
            cyclic = [d for d in range(1, m + 1) if m % d == 0]
            gens = [data.draw(st.sampled_from(cyclic), label="d") % m]
        H = group.generated_subgroup(gens, n)
        params = data.draw(st.sampled_from(group.automorphism_params(n)),
                           label="(u, v)")
        R, T = group.transform_sets(params, n,
                                    {g for g in range(m) if g not in H},
                                    {g - m for g in range(m, 2 * m)
                                     if g not in H})
        spec = validate_spec(n, R, T)
        g = build_graph(spec)
        arr = is_distance_regular(g, True)
        dp = distance_partition(spec, g)
        negatives = [Params(arr.k, arr.lam + e, arr.mu) for e in (-1, 1)]
        if arr.d >= 2:
            negatives += [Params(arr.k, arr.lam, arr.mu + e) for e in (-1, 1)]
        for array in (arr, *negatives):
            verdict = fourier.check_fourier_lemma(spec, dp, array)
            assert verdict == float_fourier_lemma(spec, dp, array), array
            assert verdict == schoolbook_fourier_lemma(spec, dp, array), array
            assert verdict == (array is arr), array
