"""The classification criteria for distance-regular dicirculants.

classify() uses only counting criteria and residue arithmetic on the
connection set (no graph is built), so the survey's comparison against
the BFS-based distance-regularity test is a genuine cross-check between
two independent code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import group
from .cayley import is_subgroup
from .fourier import PreconditionViolatedError

COMPLETE = "CompleteGraph"
MULTIPARTITE = "CompleteMultipartite"
BIPARTITE_D3 = "BipartiteD3Family"
NOT_DRG = "NotDistanceRegular"


class InvalidGroupTableError(ValueError):
    pass


class DisconnectedSpecError(ValueError):
    pass


@dataclass(frozen=True)
class Classification:
    tag: str
    params: tuple = ()
    evidence: tuple = ()

    def __repr__(self):
        inner = ",".join(map(str, self.params))
        return f"{self.tag}({inner})" if inner else self.tag


@dataclass(frozen=True)
class ConditionResult:
    holds: bool
    evidence: tuple = ()

    def __bool__(self):
        return self.holds


def condition_iii(spec):
    """The counting criterion for the bipartite diameter-3 family:
    n even, R and T non-empty sets of odd residues, |R n T| < n, and
    |R n (i+R)| + |T n (i+T)| = 2|(j+R) n T| = 2|R n T| for all even
    nonzero i, j.  Evidence records the first violation."""
    n = spec.n
    m = 2 * n
    if n % 2 != 0:
        return ConditionResult(False, ("n is odd",))
    if not spec.R or not spec.T:
        return ConditionResult(False, ("R or T empty",))
    if any(r % 2 == 0 for r in spec.R) or any(t % 2 == 0 for t in spec.T):
        return ConditionResult(False, ("R or T contains an even residue",))
    mu = 2 * len(spec.R & spec.T)
    if mu >= 2 * n:
        return ConditionResult(False, (f"|R n T| = {mu // 2} not < n = {n}",))
    for i in range(2, m, 2):
        shifted_r = {(i + r) % m for r in spec.R}
        shifted_t = {(i + t) % m for t in spec.T}
        count = len(spec.R & shifted_r) + len(spec.T & shifted_t)
        if count != mu:
            return ConditionResult(
                False, (f"i={i}: |R n (i+R)| + |T n (i+T)| = {count} != {mu}",))
        cross = 2 * len(shifted_r & spec.T)
        if cross != mu:
            return ConditionResult(
                False, (f"j={i}: 2|(j+R) n T| = {cross} != {mu}",))
    return ConditionResult(True, (f"mu = 2|R n T| = {mu}",))


def validate_group_table(table):
    """Sanity-check a multiplication table: square, Latin, identity at
    index 0.  Every row then holds 0, so every element has an inverse."""
    v = len(table)
    idx = set(range(v))
    for row in table:
        if len(row) != v or set(row) != idx:
            raise InvalidGroupTableError("table is not a Latin square")
    if any(table[0][i] != i or table[i][0] != i for i in range(v)):
        raise InvalidGroupTableError("index 0 is not an identity")


def inverses(table):
    """inv[i] is the j with table[i][j] = 0, the right inverse of i, for a
    table that passed validate_group_table."""
    return [row.index(0) for row in table]


def cyclic_table(m):
    return tuple(tuple((i + j) % m for j in range(m)) for i in range(m))


def difference_set_lambda(table, D) -> Optional[int]:
    """The common count lam such that every g != 1 arises exactly lam
    times as g2 * g1^-1 with g1, g2 in D; None if the counts are not
    constant.  For |D| in {0, 1, |G|-1, |G|} the set is trivial (see
    is_trivial_difference_set)."""
    validate_group_table(table)
    inv = inverses(table)
    counts = [0] * len(table)
    for g1 in D:
        for g2 in D:
            counts[table[g2][inv[g1]]] += 1
    nonidentity = set(counts[1:])
    if len(nonidentity) > 1:
        return None
    return nonidentity.pop() if nonidentity else 0


def is_trivial_difference_set(size, order):
    return size in (order, order - 1, 1, 0)


def condition_iii_prime_set(spec):
    """The element set a^(-1+R) u a^(-1+T) b viewed inside the index-2
    subgroup <a^2, b>, expressed as indices into the multiplication
    table of the dicyclic group of order 2n (parameter n/2)."""
    n = spec.n
    half = n // 2
    indices = set()
    for r in spec.R:
        # a^(r-1) = (a^2)^((r-1)/2), an exponent mod n in Dic_(n/2)
        indices.add(((r - 1) // 2) % n)
    for t in spec.T:
        indices.add(n + ((t - 1) // 2) % n)
    return frozenset(indices)


def condition_iii_prime(spec):
    """True iff a^(-1+R) u a^(-1+T) b is a non-trivial difference set in
    the dicyclic group <a^2, b> of order 2n."""
    n = spec.n
    if n % 2 != 0:
        raise PreconditionViolatedError("n must be even")
    if not spec.R or not spec.T:
        raise PreconditionViolatedError("R and T must be non-empty")
    if any(r % 2 == 0 for r in spec.R) or any(t % 2 == 0 for t in spec.T):
        raise PreconditionViolatedError("R and T must consist of odd residues")
    table, _ = group.multiplication_table(n // 2)
    D = condition_iii_prime_set(spec)
    lam = difference_set_lambda(table, D)
    if lam is None:
        return False
    return not is_trivial_difference_set(len(D), 2 * n)


def classify(spec):
    """Theorem-side classification of a connected spec: complete graph by
    degree count, complete multipartite when Dic_n minus the connection
    set is a subgroup (its cosets are the parts), the bipartite
    diameter-3 family by condition_iii, otherwise not distance-regular."""
    if not spec.connected:
        raise DisconnectedSpecError(repr(spec))
    n = spec.n
    if spec.degree == 4 * n - 1:
        return Classification(COMPLETE, (4 * n,),
                              ("degree |R|+|T| = 4n-1",))
    # a connected spec of degree < 4n-1 leaves a complement of order
    # m >= 2, a subgroup of index t >= 2 only if m divides 4n (Lagrange)
    m = 4 * n - spec.degree
    if 4 * n % m == 0 and is_subgroup(n, set(range(2 * n)) - spec.R,
                                      set(range(2 * n)) - spec.T):
        t = 4 * n // m
        return Classification(MULTIPARTITE, (t, m),
                              (f"complement is {t} disjoint K_{m}",))
    cond = condition_iii(spec)
    if cond.holds:
        k = spec.degree
        mu = 2 * len(spec.R & spec.T)
        return Classification(BIPARTITE_D3, (k, mu), cond.evidence)
    return Classification(NOT_DRG, (), cond.evidence)
