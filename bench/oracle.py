"""Reference computations that the benchmark checks the package against.

Nothing here imports dicirculant.  The group law, Cayley graphs, the BFS
test for distance-regularity, orbit counts and difference-set counts are
written from their definitions, so a fault in the package cannot vouch
for itself.

Elements of Dic_n = <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1> are
indexed a^e b^f -> e + 2n*f (0 <= e < 2n, f in {0, 1}), the package's
vertex order.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd

# A brute-force difference-set count runs when C(v, k) * k^2 stays below this.
BRUTE_FORCE_WORK = 1_000_000


def mul(x, y, n):
    """Product in Dic_n, from the normal form a^e b^f with b a^j = a^-j b
    and b^2 = a^n."""
    m = 2 * n
    i, f = x % m, x // m
    j, g = y % m, y // m
    e = i - j if f else i + j
    if f and g:
        return (e + n) % m
    return e % m + m * (f ^ g)


def dicyclic_table(n):
    return [[mul(x, y, n) for y in range(4 * n)] for x in range(4 * n)]


def cyclic_table(v):
    return [[(x + y) % v for y in range(v)] for x in range(v)]


def bits(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def intersection_array(n, R, T, table):
    """(connected, (b, c) or None) for Cay(Dic_n, a^R u a^T b).

    One BFS from the identity.  A Cayley graph is vertex-transitive, so
    it is distance-regular iff every vertex at distance i from the
    identity has the same number c_i of neighbours at distance i - 1 and
    b_i at distance i + 1."""
    m = 2 * n
    gens = list(R) + [m + t for t in T]
    nbr = [0] * (4 * n)
    for x in range(4 * n):
        row = table[x]
        for s in gens:
            nbr[x] |= 1 << row[s]
    shells, seen = [1], 1
    while True:
        nxt = 0
        for x in bits(shells[-1]):
            nxt |= nbr[x]
        nxt &= ~seen
        if not nxt:
            break
        seen |= nxt
        shells.append(nxt)
    if seen != (1 << 4 * n) - 1:
        return False, None
    d = len(shells) - 1
    b, c = [], []
    for i, shell in enumerate(shells):
        below = shells[i - 1] if i else 0
        above = shells[i + 1] if i < d else 0
        counts = {((nbr[x] & below).bit_count(), (nbr[x] & above).bit_count())
                  for x in bits(shell)}
        if len(counts) != 1:
            return True, None
        c_i, b_i = counts.pop()
        if i:
            c.append(c_i)
        if i < d:
            b.append(b_i)
    return True, (tuple(b), tuple(c))


def sets_from_masks(n, r_mask, t_mask):
    """(R, T) from bit i of r_mask choosing the pair {i + 1, -(i + 1)} and
    bit i of t_mask choosing {i, i + n}."""
    m = 2 * n
    R = {r for i in range(n) if r_mask >> i & 1 for r in (i + 1, (m - i - 1) % m)}
    T = {t for i in range(n) if t_mask >> i & 1 for t in (i, i + n)}
    return R, T


def units(m):
    return [u for u in range(m) if gcd(u, m) == 1]


def _cycles(perm):
    seen, count = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
    return count


def burnside_classes(n):
    """Number of orbits of (R, T) -> (uR, uT + v) on all 4^n specs, by
    Burnside's lemma: the mean over (u, v) of 2^(cycles on R-pairs) *
    2^(cycles on T-pairs)."""
    m = 2 * n
    total = 0
    group = [(u, v) for u in units(m) for v in range(m)]
    for u, v in group:
        # R-pair {i, -i} is named by min(i, 2n - i) in 1..n
        r_perm = [min(u * i % m, -u * i % m) - 1 for i in range(1, n + 1)]
        # T-pair {i, i + n} is named by i mod n
        t_perm = [(u * i + v) % n for i in range(n)]
        total += 2 ** (_cycles(r_perm) + _cycles(t_perm))
    return total // len(group)


def survey_reference(n):
    """Everything a correct survey of Dic_n reports that the benchmark can
    know on its own: the lex-least (R, T) of every (u, v) orbit, how many
    are connected, and the distance-regular ones with their arrays."""
    m = 2 * n
    table = dicyclic_table(n)
    params = [(u, v) for u in units(m) for v in range(m)]
    seen, reps = set(), []
    for r_mask in range(1 << n):
        for t_mask in range(1 << n):
            R, T = sets_from_masks(n, r_mask, t_mask)
            key = (tuple(sorted(R)), tuple(sorted(T)))
            if key in seen:
                continue
            orbit = {(tuple(sorted(u * r % m for r in R)),
                      tuple(sorted((u * t + v) % m for t in T)))
                     for u, v in params}
            seen |= orbit
            reps.append(min(orbit))
    reps.sort()
    connected, drgs = 0, []
    for R, T in reps:
        ok, array = intersection_array(n, R, T, table)
        connected += ok
        if array is not None:
            drgs.append((list(R), list(T), list(array[0]), list(array[1])))
    return {"classes": len(reps), "connected": connected, "drgs": drgs}


def theorem_problem(tag, params, b, c, n):
    """Why (tag, params) contradicts the classification for a
    distance-regular dicirculant on Dic_n with array {b; c}, or None.

    Complete K_4n has d = 1.  Complete multipartite K_(t x m) has
    {(t-1)m, m-1; 1, (t-1)m}.  The third class is bipartite of diameter
    3, {k, k-1, k-mu; 1, mu, k}, and not antipodal, so mu < k - 1."""
    b, c, params = list(b), list(c), list(params)
    if tag == "CompleteGraph":
        if params == [4 * n] and b == [4 * n - 1] and c == [1]:
            return None
    elif tag == "CompleteMultipartite":
        if len(params) == 2:
            t, size = params
            k = (t - 1) * size
            if (t >= 2 and size >= 2 and t * size == 4 * n
                    and b == [k, size - 1] and c == [1, k]):
                return None
    elif tag == "BipartiteD3Family":
        if len(params) == 2:
            k, mu = params
            if 1 <= mu < k - 1 and b == [k, k - 1, k - mu] and c == [1, mu, k]:
                return None
    return f"tag {tag}{params} does not fit array {{{b};{c}}} on Dic_{n}"


def difference_counts(D, table, inv):
    counts = [0] * len(table)
    for g1 in D:
        for g2 in D:
            if g1 != g2:
                counts[table[g2][inv[g1]]] += 1
    return counts


def inverses(table):
    return [row.index(0) for row in table]


def is_difference_set(D, table, k, lam, inv=None):
    """Every non-identity g is g2 g1^-1 for exactly lam pairs in D."""
    counts = difference_counts(D, table, inv or inverses(table))
    return len(D) == k and all(x == lam for x in counts[1:])


def translate_class(D, table):
    """Least sorted tuple among the right translates Dg: a name for the
    class of D under right translation."""
    return min(tuple(sorted(table[d][g] for d in D)) for g in range(len(table)))


def brute_force_classes(table, k, lam):
    """The right-translation classes of all (v, k, lam) difference sets,
    by testing every k-subset; None when that is too much work."""
    v = len(table)
    if comb(v, k) * k * k > BRUTE_FORCE_WORK:
        return None
    inv = inverses(table)
    return {translate_class(D, table) for D in combinations(range(v), k)
            if is_difference_set(D, table, k, lam, inv)}
