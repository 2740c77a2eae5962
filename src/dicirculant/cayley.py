"""Connection-set validation and dicirculant construction.

A dicirculant Dic(n, R, T) is the Cayley graph on Dic_n with connection
set a^R u a^T b, where 0 not in R, R = -R and T = n + T (mod 2n).
Vertices are indexed a^i -> i and a^i b -> 2n + i, the int that group
uses for the element, so element index and vertex index are the same.
Adjacency rows are stable across runs and safe to serialize.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd

from . import group

ZERO_IN_R = "ZeroInR"
R_NOT_SYMMETRIC = "RNotSymmetric"
T_NOT_HALF_PERIODIC = "TNotHalfPeriodic"


class SpecValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid connection set: " + ", ".join(self.violations))


class SpecParseError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class Graph:
    """Dense undirected graph; one Python-int bitset row per vertex."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(rows)

    @property
    def n_vertices(self):
        return len(self.rows)

    def degree(self, v):
        return self.rows[v].bit_count()

    def neighbors(self, v):
        return bit_members(self.rows[v])

    def edges(self):
        for u in range(self.n_vertices):
            for v in bit_members(self.rows[u]):
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)


def bit_members(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def bitset(members):
    out = 0
    for v in members:
        out |= 1 << v
    return out


def graph_from_edges(n_vertices, edges):
    rows = [0] * n_vertices
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(rows)


@dataclass(frozen=True)
class ConnectionSpec:
    n: int
    R: frozenset
    T: frozenset
    connected: bool = field(compare=False)

    @property
    def degree(self):
        return len(self.R) + len(self.T)

    def sorted_sets(self):
        return tuple(sorted(self.R)), tuple(sorted(self.T))

    def to_dict(self):
        r, t = self.sorted_sets()
        return {"n": self.n, "R": list(r), "T": list(t),
                "connected": self.connected}

    def __repr__(self):
        r, t = self.sorted_sets()
        return (f"n={self.n}; R={','.join(map(str, r))}; "
                f"T={','.join(map(str, t))}")


def spec_violations(n, R, T):
    """Names of violated structural constraints (connectivity excluded)."""
    m = 2 * n
    R = {r % m for r in R}
    T = {t % m for t in T}
    violations = []
    if 0 in R:
        violations.append(ZERO_IN_R)
    if R != {-r % m for r in R}:
        violations.append(R_NOT_SYMMETRIC)
    if T != {(t + n) % m for t in T}:
        violations.append(T_NOT_HALF_PERIODIC)
    return violations


def validate_spec(n, R, T):
    """Validated spec, or SpecValidationError naming each violated
    constraint.  Disconnected specs are accepted but flagged."""
    if n < 1:
        raise SpecValidationError(["NonPositiveN"])
    m = 2 * n
    R = frozenset(r % m for r in R)
    T = frozenset(t % m for t in T)
    violations = spec_violations(n, R, T)
    if violations:
        raise SpecValidationError(violations)
    return ConnectionSpec(n, R, T, generates_group(n, R, T))


def generates_group(n, R, T):
    """Whether a^R u a^T b generates Dic_n, by residue arithmetic.

    a^t b * (a^t0 b)^-1 = a^(t - t0), so the generated subgroup is
    <a^d, a^t0 b> with d = gcd(2n, R, T - t0), of order 4n/d; without T
    it lies in <a>.  Hence the set generates iff T is non-empty and d = 1,
    with d regrouped as gcd(gcd(2n, R), difference_gcd(T)).
    """
    return bool(T) and gcd(gcd(2 * n, *R), difference_gcd(T)) == 1


def difference_gcd(T):
    """gcd(T - min T); 0 for an empty T."""
    t0 = min(T, default=0)
    return gcd(*(t - t0 for t in T))


def is_subgroup(n, R, T):
    """Whether a^R u a^T b is a subgroup of Dic_n, by residue arithmetic.

    The cyclic part a^R must be <a^d> with d = gcd(2n, R), i.e. R = dZ_2n
    (so 0 in R).  A non-empty T must be the coset t0 + R, and since
    (a^t0 b)^2 = a^n, also d | n.
    """
    m = 2 * n
    d = gcd(m, *R)
    if set(R) != set(range(0, m, d)):
        return False
    if not T:
        return True
    t0 = min(T)
    return n % d == 0 and set(T) == {(t0 + r) % m for r in R}


def rotations(A, m):
    """The masks of i + A (mod m) for i = 0..m-1: the m-bit mask of A
    rotated left by i."""
    mask = bitset(A)
    doubled = mask | mask << m
    full = (1 << m) - 1
    return [doubled >> (m - i) & full for i in range(m)]


def build_graph(spec):
    """Adjacency from the neighbor formulas
    N(a^i) = a^(i+R) u a^(i+T) b and N(a^i b) = a^(i-T) u a^(i+R) b:
    row a^i is the masks of R and T rotated by i, and row a^i b the
    masks of -T and R."""
    m = 2 * spec.n
    r = rotations(spec.R, m)
    return Graph([ri | ti << m for ri, ti in zip(r, rotations(spec.T, m))]
                 + [si | ri << m for si, ri
                    in zip(rotations((-x % m for x in spec.T), m), r)])


def canonicalize(spec):
    """Lexicographically least (R, T) over the whole (u, v) family.

    This dedups up to the (u, v) automorphisms only; distinct canonical
    specs can still build isomorphic graphs.
    """
    best = spec.sorted_sets()
    for params in group.automorphism_params(spec.n):
        R, T = group.transform_sets(params, spec.n, spec.R, spec.T)
        key = (tuple(sorted(R)), tuple(sorted(T)))
        if key < best:
            best = key
    return ConnectionSpec(spec.n, frozenset(best[0]), frozenset(best[1]),
                          spec.connected)


# A residue list is comma-separated pieces, each empty or one decimal
# numeral with optional whitespace around it.
_LIST = r"(\s*\d*\s*(?:,\s*\d*\s*)*)"
# The spec grammar as a sequence of steps, each skipping leading whitespace.
_SPEC_STEPS = tuple(re.compile(r"\s*" + token) for token in
                    ("n", "=", r"(\d+)", ";", "R", "=", _LIST, ";",
                     "T", "=", _LIST, r"\Z"))
_SPACE = re.compile(r"\s*")
_PIECE = re.compile(r"[^,;]*")
_NUMERAL = re.compile(r"\d+")


def parse_spec(text):
    """Parse 'n=<int>; R=<comma list>; T=<comma list>' (whitespace-free
    or not); residues are reduced mod 2n.  A malformed spec is reported
    at the first character at which no valid spec can continue, or at
    the first digit of a numeral too long for int()."""
    captured, pos, after_list = [], 0, False
    for step in _SPEC_STEPS:
        match = step.match(text, pos)
        if match is None:
            pos = _SPACE.match(text, pos).end()
            piece = _PIECE.match(text, pos)[0].strip()
            raise SpecParseError(
                f"bad residue {piece!r}" if after_list and piece
                else "expected 'n=<int>; R=<list>; T=<list>'", pos)
        if step.groups:
            captured.append(match)
        pos, after_list = match.end(), step.pattern.endswith(_LIST)
    (n,), R, T = map(_numerals, captured)
    if n < 1:
        raise SpecParseError("n must be >= 1", captured[0].start(1))
    return validate_spec(n, R, T)


def _numerals(match):
    """The numerals in match's group, as ints; one longer than Python
    converts to an int is malformed, at its first digit."""
    out = []
    for numeral in _NUMERAL.finditer(match.string, *match.span(1)):
        try:
            out.append(int(numeral[0]))
        except ValueError:
            raise SpecParseError("numeral too long", numeral.start()) from None
    return out
