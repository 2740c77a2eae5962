"""Exact arithmetic in the dicyclic group of order 4n.

Dic_n = <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>.  The element
a^e b^f (0 <= e < 2n, f in {0, 1}) is the int e + 2n*f, so 0 is the
identity, 0..2n-1 is <a> and 2n is b.  Subgroups are frozensets of these
ints and an automorphism is its (u, v) pair.
For n = 1 this degenerates to Z_4; everything here accepts n >= 1.
"""

from __future__ import annotations

from math import gcd


class InvalidAutomorphismError(ValueError):
    """The scaling parameter u is not a unit modulo 2n."""


def multiply(x, y, n):
    m = 2 * n
    if x < m:
        # a^i a^j b^f = a^(i+j) b^f
        return (x + y) % m + (y >= m) * m
    if y < m:
        # a^i b a^j = a^(i-j) b
        return (x - y) % m + m
    # a^i b a^j b = a^(i-j) b^2 = a^(i-j+n)
    return (x - y + n) % m


def inverse(x, n):
    m = 2 * n
    if x < m:
        return -x % m
    return (x + n) % m + m


def generated_subgroup(gens, n):
    """Closure of gens under multiplication."""
    members = {0}
    frontier = [0]
    steps = [s for g in gens for s in (g, inverse(g, n))]
    while frontier:
        g = frontier.pop()
        for s in steps:
            prod = multiply(g, s, n)
            if prod not in members:
                members.add(prod)
                frontier.append(prod)
    return frozenset(members)


def automorphism_params(n):
    """The automorphisms a -> a^u, b -> a^v b with u a unit of Z_2n and
    0 <= v < n, in a fixed order.  Any unit u works: the relations
    b^2 = a^n and b a b^-1 = a^-1 are preserved for every v.  v stops
    below n because u is odd and T = n + T, so (u, v + n) moves every
    valid connection set as (u, v) does."""
    m = 2 * n
    return [(u, v) for u in range(m) if gcd(u, m) == 1 for v in range(n)]


def transform_sets(params, n, R, T):
    """Image (uR, uT + v) of a connection set under the (u, v) automorphism."""
    u, v = params
    m = 2 * n
    if gcd(u, m) != 1:
        raise InvalidAutomorphismError(f"u={u} is not a unit mod {m}")
    return (frozenset((u * r) % m for r in R),
            frozenset((u * t + v) % m for t in T))


def multiplication_table(n):
    """Cayley table of Dic_n: table[x][y] = multiply(x, y, n).

    Returns (table, range(4n)), the second item listing the elements in
    row order.
    """
    elems = range(4 * n)
    return tuple(tuple(multiply(x, y, n) for y in elems) for x in elems), elems
