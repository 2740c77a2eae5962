"""Reference implementations that only the tests call: the schoolbook
convolution on Z_m, the Cayley definition of the graph, a subgroup of
each order, the complement of each proper subgroup class, the halved
graphs of a bipartite graph, the coset-profile reconstruction of a DFT
value, the plain difference-set backtracking that starts from {0, 1}
and the least translate by sorting every translate that holds 0.  Each one checks a faster or more specific routine of the
package."""

import cmath

from dicirculant import classifier, group
from dicirculant.cayley import (Graph, bit_members, bitset, graph_from_edges,
                                validate_spec)
from dicirculant.group import generated_subgroup
from dicirculant.search import ParameterContradictionError, check_ds_parameters
from dicirculant.structure import all_pairs_distances, bipartition


class ModulusMismatchError(ValueError):
    pass


def convolve(f, g):
    """(f*g)(z) = sum_i f(i) g(z-i), exact over the integers."""
    if len(f) != len(g):
        raise ModulusMismatchError(f"{len(f)} != {len(g)}")
    m = len(f)
    return tuple(sum(f[i] * g[(z - i) % m] for i in range(m))
                 for z in range(m))


def definitional_graph(spec):
    """Adjacency straight from the Cayley definition g^-1 h in S.
    Used as an oracle against build_graph."""
    n = spec.n
    S = spec.R | {t + 2 * n for t in spec.T}
    inverses = (group.inverse(g, n) for g in range(4 * n))
    return Graph(bitset(h for h in range(4 * n)
                        if group.multiply(ginv, h, n) in S)
                 for ginv in inverses)


class InvalidOrderError(ValueError):
    """Requested subgroup order does not divide 4n."""


def subgroup_of_order(n, m):
    """One canonical subgroup of order m: cyclic <a^(2n/m)> when m | 2n,
    otherwise <a^(n/d), b> with d = m/4."""
    if m < 1 or (4 * n) % m != 0:
        raise InvalidOrderError(f"order {m} does not divide {4 * n}")
    if (2 * n) % m == 0:
        # a^(2n/m), reduced so that m = 1 gives the identity and not b
        return generated_subgroup([(2 * n) // m % (2 * n)], n)
    # m | 4n but m does not divide 2n forces 4 | m and (m/4) | n
    return generated_subgroup([n // (m // 4), 2 * n], n)


def subgroup_complements(n):
    """The spec of Dic_n minus H for each proper subgroup class H:
    H = <a^d> for each d | 2n (d = 2n gives the trivial subgroup), then
    H = <a^d, a^(d-1) b> for each d | n with d >= 2.  Each complement is
    distance-regular; the survey's DRG classes are expected to be these,
    one canonical form each."""
    m = 2 * n
    subgroups = [[d % m] for d in range(1, m + 1) if m % d == 0]
    subgroups += [[d, m + d - 1] for d in range(2, n + 1) if n % d == 0]
    for gens in subgroups:
        H = generated_subgroup(gens, n)
        yield validate_spec(n, [g for g in range(m) if g not in H],
                            [g - m for g in range(m, 2 * m) if g not in H])


class NotBipartiteError(ValueError):
    pass


def halved_graphs(g):
    """The distance-2 graph restricted to each part of the bipartition.
    Vertices of each half are its part members in increasing order."""
    parts = bipartition(g)
    if parts is None:
        raise NotBipartiteError("graph has an odd cycle")
    dist = all_pairs_distances(g)
    halves = []
    for part in parts:
        members = sorted(bit_members(part))
        pos = {v: i for i, v in enumerate(members)}
        edges = [(pos[u], pos[v]) for u in members for v in members
                 if u < v and dist[u][v] == 2]
        halves.append(graph_from_edges(len(members), edges))
    return tuple(halves)


def profile_reconstruction(counts, m):
    """sum_i e_i xi^i with xi = w^(m/r); equals (F Delta_A)(m/r)."""
    r = len(counts)
    xi = cmath.exp(2j * cmath.pi / m * (m // r)) if m > 1 else 1.0
    return sum(e * xi ** i for i, e in enumerate(counts))


def seeded_search_difference_sets(table, v, k, lam, limit=None):
    """Oracle for search_difference_sets: a plain backtracking over the
    elements, with none of its complement, multiplier and quotient cuts.

    All (v, k, lam) difference sets in the group given by `table`,
    up to right translation: only sets whose sorted index tuple is
    minimal among all right-translates Dg are returned, in increasing
    order of that tuple.  Backtracking over k-subsets with partial
    difference-count pruning.

    The search starts from {0, 1} ({0} when k = 1), because every
    returned set holds both.  For d in D the translate Dd^-1 holds 0,
    and a tuple without 0 sorts after it.  For k >= 2, lam >= 1, so
    1 = xy^-1 for some x, y in D, and Dy^-1 holds {0, 1}.  For the same
    reason the canonical test compares D only with the k - 1 translates
    Dd^-1, d in D minus 0: they are the translates that hold 0, and any
    other sorts after D.  The argument needs only a Latin square with
    identity 0, which validate_group_table enforces."""
    check_ds_parameters(v, k, lam)
    classifier.validate_group_table(table)
    if len(table) != v:
        raise ParameterContradictionError(f"group order {len(table)} != v = {v}")
    inv = classifier.inverses(table)
    quot = [[row[j] for j in inv] for row in table]  # quot[x][y] = x y^-1
    quot_t = [list(col) for col in zip(*quot)]  # quot_t[y][x] = x y^-1
    results = []
    counts = [0] * v
    chosen = [0, 1] if k >= 2 else [0]
    for x in chosen[1:]:
        counts[quot[x][0]] += 1
        counts[quot[0][x]] += 1
    if any(c > lam for c in counts):
        return results

    def is_canonical(D):
        key = sorted(D)
        return all(key <= sorted(quot[x][d] for x in D) for d in D[1:])

    def extend(start):
        if limit is not None and len(results) >= limit:
            return
        if len(chosen) == k:
            if all(c == lam for c in counts[1:]) and is_canonical(chosen):
                results.append(frozenset(chosen))
            return
        for nxt in range(start, v - (k - len(chosen)) + 1):
            row, col = quot[nxt], quot_t[nxt]
            deltas = [row[d] for d in chosen] + [col[d] for d in chosen]
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

    extend(len(chosen))
    return results


def sorted_least_translates(quot, sets):
    """Oracle for search._least_translates: the least right translate of
    each set D, the least of the translates Dy^-1, y in D, which hold 0,
    each built and sorted; one per translate class, in increasing order
    of its sorted tuple.  quot[x][y] = x y^-1."""
    least = {min(tuple(sorted(quot[x][y] for x in D)) for y in D) for D in sets}
    return [frozenset(D) for D in sorted(least)]
