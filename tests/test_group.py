import itertools

import pytest

from dicirculant import group
from dicirculant.group import InvalidAutomorphismError
from oracles import InvalidOrderError, subgroup_of_order


def E(exp, flip=False, n=3):
    """The element a^exp b^flip of Dic_n as its int exp + 2n*flip."""
    return exp + 2 * n * flip


class TestMultiply:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_defining_relations(self, n):
        a, b = E(1, n=n), E(0, True, n=n)
        power = 0
        for _ in range(2 * n):
            power = group.multiply(power, a, n)
        assert power == 0
        assert group.multiply(b, b, n) == E(n, n=n)
        conjugate = group.multiply(group.multiply(b, a, n),
                                   group.inverse(b, n), n)
        assert conjugate == group.inverse(a, n) == E(2 * n - 1, n=n)
        table, elems = group.multiplication_table(n)
        assert list(elems) == list(range(4 * n))
        assert all(sorted(row) == list(elems) for row in table)

    def test_cyclic_addition(self):
        assert group.multiply(E(2), E(5), 3) == E(1)

    def test_beta_squared_is_alpha_n(self):
        assert group.multiply(E(0, True), E(0, True), 3) == E(3)

    def test_mixed_product(self):
        # a*b * a^2 = a^(1-2) b = a^5 b in Dic_3
        assert group.multiply(E(1, True), E(2), 3) == E(5, True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_regular_representation(self, n):
        # left-multiplication permutations must compose like the elements do
        elems = range(4 * n)
        perm = {g: [group.multiply(g, h, n) for h in elems] for g in elems}
        for g in elems:
            for h in elems:
                composed = [perm[g][perm[h][i]] for i in range(len(elems))]
                assert composed == perm[group.multiply(g, h, n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_associative_exhaustive(self, n):
        elems = range(4 * n)
        for a, b, c in itertools.product(elems, repeat=3):
            ab_c = group.multiply(group.multiply(a, b, n), c, n)
            a_bc = group.multiply(a, group.multiply(b, c, n), n)
            assert ab_c == a_bc


class TestInverse:
    def test_cyclic(self):
        assert group.inverse(E(4), 3) == E(2)

    def test_flip_examples(self):
        for g in (E(0, True), E(2, True)):
            inv = group.inverse(g, 3)
            assert group.multiply(g, inv, 3) == 0
            assert group.multiply(inv, g, 3) == 0
        assert group.inverse(E(0, True), 3) == E(3, True)
        assert group.inverse(E(2, True), 3) == E(5, True)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_two_sided_everywhere(self, n):
        for g in range(4 * n):
            inv = group.inverse(g, n)
            assert group.multiply(g, inv, n) == 0
            assert group.multiply(inv, g, n) == 0


class TestOrders:
    def test_unique_involution_examples(self):
        # the order of g is the order of the cyclic subgroup <g>
        assert len(group.generated_subgroup([E(3)], 3)) == 2
        assert len(group.generated_subgroup([E(1)], 3)) == 6
        assert len(group.generated_subgroup([E(0, True)], 3)) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exactly_one_element_of_order_two(self, n):
        involutions = [g for g in range(4 * n)
                       if g != 0 and group.multiply(g, g, n) == 0]
        assert involutions == [E(n, n=n)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_group_order_and_generation(self, n):
        assert len(group.multiplication_table(n)[1]) == 4 * n
        full = group.generated_subgroup([E(1, n=n), E(0, True, n=n)], n)
        assert len(full) == 4 * n


class TestSubgroups:
    def test_order2_subgroup(self):
        sub = subgroup_of_order(2, 2)
        assert sub == frozenset({0, E(2, n=2)})

    def test_quaternion_subgroup_of_dic3(self):
        sub = subgroup_of_order(3, 4)
        assert sub == frozenset({0, E(3), E(0, True), E(3, True)})

    def test_dicyclic_subgroup_of_dic6(self):
        sub = subgroup_of_order(6, 8)
        assert len(sub) == 8
        # closure under multiplication
        for a in sub:
            for b in sub:
                assert group.multiply(a, b, 6) in sub

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_divisor_of_4n_has_a_subgroup(self, n):
        for m in range(1, 4 * n + 1):
            if (4 * n) % m:
                continue
            sub = subgroup_of_order(n, m)
            assert len(sub) == m

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidOrderError):
            subgroup_of_order(3, 5)


class TestAutomorphisms:
    def test_non_unit_rejected(self):
        with pytest.raises(InvalidAutomorphismError):
            group.transform_sets((2, 0), 2,
                                 frozenset(), frozenset())

    def test_v_shift(self):
        R, T = group.transform_sets((1, 1), 3,
                                    frozenset({1, 5}), frozenset({0, 3}))
        assert R == frozenset({1, 5})
        assert T == frozenset({1, 4})

    def test_identity_params(self):
        R0, T0 = frozenset({1, 5}), frozenset({0, 3})
        assert group.transform_sets((1, 0), 3, R0, T0) \
            == (R0, T0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_params_are_homomorphisms(self, n):
        # a -> a^u, b -> a^v b: the map whose image sets transform_sets gives
        m = 2 * n

        def image(params, g):
            u, v = params
            exp, flip = g % m, g >= m
            return E((u * exp + v * flip) % m, flip, n)

        elems = range(4 * n)
        for params in group.automorphism_params(n):
            for g in elems:
                sets = group.transform_sets(params, n, {g % m}, {g % m})
                assert sets[g >= m] == {image(params, g) % m}
            for g in elems[:6]:
                for h in elems[:6]:
                    lhs = image(params, group.multiply(g, h, n))
                    rhs = group.multiply(image(params, g), image(params, h), n)
                    assert lhs == rhs
