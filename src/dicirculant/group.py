"""Exact arithmetic in the dicyclic group of order 4n.

Dic_n = <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>.  Elements are
stored as (exponent mod 2n, flip) where flip marks a trailing b factor.
For n = 1 this degenerates to Z_4; everything here accepts n >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class InvalidOrderError(ValueError):
    """Requested subgroup order does not divide 4n."""


class InvalidAutomorphismError(ValueError):
    """The scaling parameter u is not a unit modulo 2n."""


@dataclass(frozen=True, order=True)
class Element:
    exp: int
    flip: bool

    def __repr__(self):
        if not self.flip:
            return "1" if self.exp == 0 else f"a^{self.exp}"
        return "b" if self.exp == 0 else f"a^{self.exp}*b"


IDENTITY = Element(0, False)


def elements(n):
    """All 4n elements, cyclic part first, in exponent order."""
    return [Element(e, f) for f in (False, True) for e in range(2 * n)]


def multiply(g, h, n):
    m = 2 * n
    if not g.flip:
        return Element((g.exp + h.exp) % m, h.flip)
    if not h.flip:
        # a^i b a^j = a^(i-j) b
        return Element((g.exp - h.exp) % m, True)
    # a^i b a^j b = a^(i-j) b^2 = a^(i-j+n)
    return Element((g.exp - h.exp + n) % m, False)


def inverse(g, n):
    m = 2 * n
    if not g.flip:
        return Element(-g.exp % m, False)
    return Element((g.exp + n) % m, True)


@dataclass(frozen=True)
class Subgroup:
    order: int
    members: frozenset


def generated_subgroup(gens, n):
    """Closure of gens under multiplication."""
    members = {IDENTITY}
    frontier = [IDENTITY]
    gens = list(gens)
    while frontier:
        g = frontier.pop()
        for s in gens:
            prod = multiply(g, s, n)
            if prod not in members:
                members.add(prod)
                frontier.append(prod)
            prod = multiply(g, inverse(s, n), n)
            if prod not in members:
                members.add(prod)
                frontier.append(prod)
    return Subgroup(len(members), frozenset(members))


def subgroup_of_order(n, m):
    """One canonical subgroup of order m: cyclic <a^(2n/m)> when m | 2n,
    otherwise <a^(n/d), b> with d = m/4."""
    if m < 1 or (4 * n) % m != 0:
        raise InvalidOrderError(f"order {m} does not divide {4 * n}")
    if (2 * n) % m == 0:
        return generated_subgroup([Element((2 * n) // m, False)], n)
    # m | 4n but m does not divide 2n forces 4 | m and (m/4) | n
    d = m // 4
    return generated_subgroup([Element(n // d, False), Element(0, True)], n)


@dataclass(frozen=True)
class AutomorphismParams:
    """a -> a^u, b -> a^v b.  Any unit u works: the relations
    b^2 = a^n and b a b^-1 = a^-1 are preserved for every v."""

    u: int
    v: int

    def validate(self, n):
        if gcd(self.u, 2 * n) != 1:
            raise InvalidAutomorphismError(f"u={self.u} is not a unit mod {2 * n}")


def automorphism_params(n):
    """All (u, v) with u a unit of Z_2n, in a fixed order."""
    m = 2 * n
    return [AutomorphismParams(u, v) for u in range(m) if gcd(u, m) == 1
            for v in range(m)]


def transform_sets(params, n, R, T):
    """Image (uR, uT + v) of a connection set under the (u, v) automorphism."""
    params.validate(n)
    m = 2 * n
    return (frozenset((params.u * r) % m for r in R),
            frozenset((params.u * t + params.v) % m for t in T))


def multiplication_table(n):
    """Cayley table of Dic_n as index tuples; identity has index 0.

    Returns (table, elems) with elems in elements(n) order, so
    table[i][j] is the index of elems[i] * elems[j].
    """
    elems = elements(n)
    index = {g: i for i, g in enumerate(elems)}
    table = tuple(tuple(index[multiply(g, h, n)] for h in elems) for g in elems)
    return table, elems
