"""Exhaustive enumeration of connection specs, the full survey with its
classifier-vs-BFS cross-check, and backtracking difference-set search."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, product
from math import gcd, isqrt

from . import classifier, fourier, group, structure
from .cayley import (ConnectionSpec, SpecValidationError, build_graph,
                     difference_gcd, generates_group, is_subgroup,
                     rotations)
from .classifier import classify
from .metrics import (IntersectionArray, NotDRGWitness, distance_partition,
                      is_distance_regular)


class ParameterContradictionError(ValueError):
    pass


def enumerate_specs(n, dedup=True):
    """All valid (R, T) for this n, disconnected ones included (flagged
    on the spec).  R is built from the generator pairs {i, 2n-i}
    (1 <= i <= n; {n} is a singleton) and T from the pairs {i, n+i}
    (0 <= i <= n-1), so R = -R and T = n + T hold by construction.
    Specs come in key order, ascending (sorted R, sorted T), the order
    the survey reports.  With dedup only specs that equal their
    canonical form are emitted: one per (u, v) orbit.

    Every pair holds residues in 0..2n-1, no R pair holds 0, and each
    pair is closed under r -> -r or t -> n + t, so every union is a
    valid R or T as built and validate_spec would only copy it.  Each
    spec therefore shares its R and T with every other spec of the same
    mask.  Connectivity is read off two per-mask tables, one for each
    factor of generates_group: the spec generates Dic_n iff T is
    non-empty and gcd(gcd(2n, R), difference_gcd(T)) = 1.
    """
    if n < 1:
        raise SpecValidationError(["NonPositiveN"])
    m = 2 * n
    r_sets, t_sets = _pair_unions(n)
    r_gcds = [gcd(m, *R) for R in r_sets]
    t_gcds = list(map(difference_gcd, t_sets))
    r_order, t_order = _key_order(r_sets), _key_order(t_sets)
    masks = (_class_masks(n, r_order, t_order) if dedup
             else product(r_order, t_order))
    for r_mask, t_mask in masks:
        yield ConnectionSpec(n, r_sets[r_mask], t_sets[t_mask],
                             t_mask != 0
                             and gcd(r_gcds[r_mask], t_gcds[t_mask]) == 1)


def _pair_unions(n):
    """The R and T sets of every mask over the generator pairs, indexed
    by mask."""
    m = 2 * n
    r_pairs = [frozenset({i, m - i}) for i in range(1, n + 1)]
    t_pairs = [frozenset({i, i + n}) for i in range(n)]
    return (_subset_unions(r_pairs, frozenset()),
            _subset_unions(t_pairs, frozenset()))


def _subset_unions(parts, empty):
    """Union of the parts that each mask selects, indexed by mask."""
    unions = [empty]
    for part in parts:
        unions += [union | part for union in unions]
    return unions


def _key_order(sets):
    """The masks of `sets`, ascending by the sorted tuple of their set."""
    return sorted(range(len(sets)), key=lambda mask: sorted(sets[mask]))


def _class_masks(n, r_order, t_order):
    """(r_mask, t_mask) of the lex-least (sorted R, sorted T) in each
    orbit of the (u, v) family, in key order.

    The least key of an orbit has the least R of its u-orbit, and then
    the least T under the maps that fix that R.  So the R masks are
    walked in key order, the first unmarked one of each u-orbit is kept
    and its images marked.  The T masks kept for an R depend only on the
    set of maps that fix it, and few such sets occur (1 to 4 for
    n <= 14), so _least_t_masks walks the T masks once per distinct set
    and the list serves every later R with the same set.
    """
    m = 2 * n
    # (u, v) moves R pair i to the pair holding u*i and T pair i to
    # pair (u*i + v) mod n; the distinct maps as (R, T) bit permutations,
    # with the R permutation made once per u.
    params = group.automorphism_params(n)
    r_perms = {u: tuple(min(u * i % m, -u * i % m) - 1 for i in range(1, n + 1))
               for u in {u for u, _ in params}}
    maps = {(r_perms[u], tuple((u * i + v) % n for i in range(n)))
            for u, v in params}
    # per permutation, the image of every mask, in 2 bytes each up to
    # n = 16 and in 8 bytes after (no 2^n table with n > 64 fits in memory)
    typecode = "H" if n <= 16 else "Q"
    images = {perm: array(typecode, _subset_unions([1 << b for b in perm], 0))
              for perm in set(chain.from_iterable(maps))}
    t_kept = {}
    r_marked = bytearray(1 << n)
    for r_mask in r_order:
        if r_marked[r_mask]:
            continue
        fixing = set()
        for r_perm, t_perm in maps:
            image = images[r_perm][r_mask]
            r_marked[image] = 1
            if image == r_mask:
                fixing.add(t_perm)
        key = frozenset(fixing)
        if key not in t_kept:
            t_kept[key] = _least_t_masks(
                t_order, [images[t_perm] for t_perm in fixing])
        for t_mask in t_kept[key]:
            yield r_mask, t_mask


def _least_t_masks(t_order, t_tables):
    """The T masks, in key order, that come first in their orbit under
    the mask permutations `t_tables`: each unmarked mask is kept and its
    images marked, in a 2^n bytearray."""
    t_marked = bytearray(len(t_order))
    kept = []
    for t_mask in t_order:
        if t_marked[t_mask]:
            continue
        kept.append(t_mask)
        for t_table in t_tables:
            t_marked[t_table[t_mask]] = 1
    return kept


@dataclass(frozen=True)
class DrgInstance:
    spec: ConnectionSpec
    array: IntersectionArray
    classification: classifier.Classification
    bipartite: bool
    antipodal: bool
    primitive: bool
    fourier_ok: bool
    family: structure.FamilyTag


@dataclass(frozen=True)
class SpecRow:
    """One evaluated spec (a survey line): everything measured about it."""

    spec: ConnectionSpec
    drg: bool
    array: IntersectionArray = None
    classification: classifier.Classification = None
    instance: DrgInstance = None
    witness: NotDRGWitness = None

    @property
    def cross_check_failed(self):
        """The classifier and the BFS test disagree on a connected spec:
        the counterexample alarm."""
        return (self.spec.connected
                and (self.classification.tag != classifier.NOT_DRG) != self.drg)


def bfs_verdict(row):
    """The BFS side of a row as JSON values: a DRG's intersection array
    and a connected non-DRG's witness pair, each None when absent."""
    a, w = row.array, row.witness
    return {"intersection_array": {"b": list(a.b), "c": list(a.c)} if a else None,
            "witness": {"u": w.u, "v": w.v, "distance": w.distance,
                        "expected": list(w.expected),
                        "found": list(w.found)} if w else None}


@dataclass
class SurveyReport:
    n: int
    total_specs: int = 0
    connected_specs: int = 0
    canonical_classes: int = 0
    drg_instances: list = field(default_factory=list)
    cross_check_failures: list = field(default_factory=list)

    def to_dict(self):
        return {
            "schema_version": 1,
            "n": self.n,
            "total_specs": self.total_specs,
            "connected_specs": self.connected_specs,
            "canonical_classes": self.canonical_classes,
            "drg_instances": [
                {
                    "spec": inst.spec.to_dict(),
                    "intersection_array": {"b": list(inst.array.b),
                                           "c": list(inst.array.c)},
                    "classification": {"tag": inst.classification.tag,
                                       "params": list(inst.classification.params)},
                    "bipartite": inst.bipartite,
                    "antipodal": inst.antipodal,
                    "primitive": inst.primitive,
                    "fourier_ok": inst.fourier_ok,
                    "family": {"kind": inst.family.kind,
                               "params": list(inst.family.params),
                               "also": list(inst.family.also)},
                }
                for inst in self.drg_instances
            ],
            "cross_check_failures": list(self.cross_check_failures),
        }


def shell_flags(n, dp):
    """(antipodal, primitive) of Cay(Dic_n, S) from its distance partition.

    Since d(x, y) = d(1, x^-1 y) in a Cayley graph, the fibre of 1 is
    {1} u S_d and the distance-i graph is Cay(Dic_n, S_i), where
    S_i = a^R_i u a^T_i b.  So the graph is antipodal iff {1} u S_d is a
    subgroup, and primitive iff every shell S_1..S_d generates Dic_n.
    """
    d = dp.diameter
    antipodal = is_subgroup(n, dp.r_sets[0] | dp.r_sets[d], dp.t_sets[d])
    primitive = all(generates_group(n, dp.r_sets[i], dp.t_sets[i])
                    for i in range(1, d + 1))
    return antipodal, primitive


def evaluate_spec(spec):
    """BFS truth, classification, and structure flags for one spec, on
    the graph build_graph makes for it."""
    if not spec.connected:
        return SpecRow(spec, False)
    g = build_graph(spec)
    drg = is_distance_regular(g, vertex_transitive_hint=True)
    classification = classify(spec)
    if not isinstance(drg, IntersectionArray):
        return SpecRow(spec, False, None, classification, witness=drg)
    dp = distance_partition(spec, g)
    bip = all(drg.a(i) == 0 for i in range(drg.d + 1))
    antip, prim = shell_flags(spec.n, dp)
    fourier_ok = fourier.check_fourier_lemma(spec, dp, drg)
    family = structure.recognize_family(drg, g.n_vertices)
    instance = DrgInstance(spec, drg, classification, bip, antip, prim,
                           fourier_ok, family)
    return SpecRow(spec, True, drg, classification, instance)


def survey(n, dedup=True):
    """Run enumerate -> level-1 test -> build -> BFS DRG test ->
    classify -> structure analysis -> Fourier check over every connected
    spec, the build and what follows it only where level 1 is uniform;
    record every disagreement between the BFS truth and the classifier
    (there should be none).  Each row is folded into the report as it
    arrives and then dropped."""
    report = SurveyReport(n=n, total_specs=4 ** n)
    for row in survey_rows(n, dedup):
        report.canonical_classes += 1
        report.connected_specs += row.spec.connected
        if row.cross_check_failed:
            report.cross_check_failures.append({
                "spec": repr(row.spec),
                "bfs_drg": row.drg,
                "classifier_tag": row.classification.tag,
                "classifier_evidence": list(row.classification.evidence),
                **bfs_verdict(row),
            })
        if row.instance is not None:
            report.drg_instances.append(row.instance)
    if not dedup:
        report.canonical_classes = sum(1 for _ in enumerate_specs(n))
    return report


def survey_rows(n, dedup=True):
    """The row of evaluate_spec for each spec of enumerate_specs(n,
    dedup), in key order, one row at a time.  A connected spec whose
    level 1 is not uniform gets its row from _level_one_witness, and
    builds no graph; every other spec goes to evaluate_spec.  The
    rotation list and the sorted members of each R and T set are made
    once, by a memo local to the call."""
    m = 2 * n

    @cache
    def level_one_data(A):
        return rotations(A, m), sorted(A)

    for spec in enumerate_specs(n, dedup):
        witness = spec.connected and _level_one_witness(
            spec, level_one_data(spec.R), level_one_data(spec.T))
        yield (SpecRow(spec, False, None, classify(spec), witness=witness)
               if witness else evaluate_spec(spec))


def _level_one_witness(spec, r, t):
    """The NotDRGWitness that is_distance_regular gives for the
    connected `spec` when two vertices at distance 1 from the identity
    have unequal (c, a, b), else None.  r and t are (rotation list,
    sorted members) of R and T, rot[x] the mask of x + R or x + T.

    In a Cayley graph of degree k a vertex at distance 1 has c = 1 and
    b = k - 1 - a, where a counts its common neighbours with the
    identity: |R n (x + R)| + |T n (x + T)| for a^x, x in R, and
    |R n (x - T)| + |T n (x + R)| = 2|T n (x + R)| for a^x b, x in T,
    as R = -R.  The BFS meets level 1 in vertex order, R ascending and
    then 2n + T ascending, and its witness is the first vertex whose
    triple differs from the first vertex's: the first of R, or of T
    when R is empty."""
    (rot_r, sorted_r), (rot_t, sorted_t) = r, t
    r_mask, t_mask = rot_r[0], rot_t[0]
    first = None
    for x in sorted_r:
        a = (rot_r[x] & r_mask).bit_count() + (rot_t[x] & t_mask).bit_count()
        if a != first:
            if first is not None:
                return _unequal_level_one(spec, x, first, a)
            first = a
    m = 2 * spec.n
    for x in sorted_t:
        a = 2 * (rot_r[x] & t_mask).bit_count()
        if a != first:
            if first is not None:
                return _unequal_level_one(spec, m + x, first, a)
            first = a
    return None


def _unequal_level_one(spec, v, first, a):
    """The witness that level-1 vertex v has a common neighbours with
    the identity where the first level-1 vertex has `first`."""
    k = spec.degree
    return NotDRGWitness(0, v, 1, (1, first, k - 1 - first), (1, a, k - 1 - a))


def check_ds_parameters(v, k, lam):
    """ParameterContradictionError unless a (v, k, lam) difference set
    can exist by counting alone: v >= 1, 1 <= k <= v, lam >= 0, and
    k(k-1) = lam(v-1).  Needs no group table."""
    if v < 1 or not 1 <= k <= v:
        raise ParameterContradictionError(
            f"need v >= 1 and 1 <= k <= v, got v = {v}, k = {k}")
    if lam < 0:
        raise ParameterContradictionError(f"need lam >= 0, got lam = {lam}")
    if k * (k - 1) != lam * (v - 1):
        # a lam from the command line can have nearly as many digits as
        # Python converts to a string
        rhs = f"{lam * (v - 1)}" if lam < 10 ** 100 else f"{lam}*{v - 1}"
        raise ParameterContradictionError(
            f"k(k-1) = {k * (k - 1)} != lam(v-1) = {rhs}")


def search_difference_sets(table, v, k, lam, limit=None):
    """All (v, k, lam) difference sets in the group given by `table`,
    up to right translation: only sets whose sorted index tuple is
    minimal among all right-translates Dg are returned, in increasing
    order of that tuple.  `limit` takes a prefix of that full sorted
    answer; it never changes which search runs, nor shortens it.
    Backtracking over k-subsets with partial difference-count pruning,
    by orbits of multipliers or coset by coset.

    For k = 1 and k >= v - 1 the answer is known: every such k-set is a
    difference set, the translates of one set are all of them, and the
    least is {0, ..., k - 1}.

    The least translate holds 0, as Dd^-1 holds 0 for d in D and a tuple
    without 0 sorts after it.  Of two distinct sets of one size, the one
    holding the least element of their symmetric difference sorts first,
    so _least_translates finds it label by label: of the k translates
    Dd^-1, it keeps for g = 1, 2, ... those that hold g whenever one
    does, and sorts only the one left.  For 2 <= k <= v - 2, lam >= 1
    and g = 1 is xd^-1 for exactly lam pairs x, d in D, so lam
    translates survive g = 1 and the least holds 0 and 1 (L. D.
    Baumert, Cyclic Difference Sets, LNM 182 (1971)).

    Two theorems answer [] before any search.  Let n = k - lam.
    Schuetzenberger (M. P. Schuetzenberger, "A non-existence theorem for
    an infinite family of symmetrical block designs", Ann. Eugenics 14
    (1949)): a symmetric design with v even has n a perfect square, so
    with v even and n not a square no group holds a (v, k, lam) set.
    Turyn (R. J. Turyn, "Character sums and difference sets", Pacific J.
    Math. 15 (1965)): let v = 4u^2 with u = 2^d, d >= 1, and (k, lam) =
    (2u^2 - u, u^2 - u) or its complement (2u^2 + u, u^2 + u); given
    k(k-1) = lam(v-1), that is the same as v = 4n with n = u^2.
    An abelian group of order v holds such a set only if its exponent
    is at most 4u; R. E. Kraemer ("Proof of a conjecture on Hadamard
    2-groups", J. Combin. Theory Ser. A 63 (1993)) showed that every
    abelian group within the bound holds one.

    Three cuts shrink the search.  Each one drops only branches that
    hold no result, so the results are those of the backtracking over
    all k-subsets.

    Complement.  (G - C)g = G - Cg, so the translate classes of the
    (v, k, lam) sets and of their complements, the (v, v - k,
    v - 2k + lam) sets, correspond one to one.  A search with
    k < v < 2k searches the complement parameters instead, complements
    each set it finds and returns their least translates, sorted.

    Multiplier.  The Second Multiplier Theorem (E. S. Lander, Symmetric
    Designs: An Algebraic Approach, Cambridge University Press (1983);
    T. Beth, D. Jungnickel and H. Lenz, Design Theory, ch. VI): let D be
    a (v, k, lam) difference set in an abelian group G of exponent v*,
    and m a divisor of n with m > lam and gcd(m, v) = 1.  Let t be an
    integer such that, for each prime p dividing m, t = p^f (mod v*)
    for some f.  Then x -> x^t maps D onto a translate of D.  Hall's
    First Multiplier Theorem is the case of a prime m = p, t = p
    (M. Hall, "Cyclic projective planes", Duke Math. J. 14 (1947)).
    Let M be the group generated by these maps, and gcd(k, v) = 1 as
    well.  Then every translate class has a member fixed by M: Dg has
    product pi(D) g^k, and g -> g^k is a bijection of G, so exactly one
    member of the class has its elements multiply to the identity; its
    image under x -> x^t has product 1 too and is a translate of it, so
    it is the member itself.  A class can hold more than one M-fixed
    member: if D is fixed, (Dg)^t = Dg^t, which is Dg only for g^t = g,
    as Dh = D only for h the identity when lam < k; so the M-fixed
    members of D's class are the Dg with g fixed by every map.  Each
    M-fixed set is a union of orbits of M, so the search picks orbits
    instead of elements: it keeps every M-fixed set, maps each to its
    least translate and keeps one least translate per class, sorted.
    When every x -> x^t fixes every element, _multiplier_maps gives no
    map and the search takes the quotient path.

    Quotient.  A search on a table with no multiplier map works on the
    cosets of the normal subgroup N of _least_normal_subgroup, of order
    c: the smallest proper normal closure of an element of least prime
    order, or G itself, one coset, where no element has a proper one.
    Mapping DD^-1 = n + lam G onto G/N (E. S. Lander, Symmetric
    Designs, ch. 4; L. D. Baumert, Cyclic Difference Sets, LNM 182
    (1971)) gives the counts x_b = |D n Nb| on the m = v/c cosets:
    sum x_b = k, sum x_b^2 = n + lam c, and sum_b x_hb x_b = lam c for
    every coset h != N, hb taken in G/N, which need not be abelian.
    Right translation by z maps D n Nb onto Dz n Nbz, so it permutes the
    counts, and every translate class has a member whose largest count
    is on N; the image search keeps only count vectors with x_N
    largest.  It fills the cosets in order; with r cosets left, whose
    counts sum to s and their squares to q, each count is at most
    top = x_N, so s <= top r, q <= top s (x^2 <= top x) and
    s^2 <= r q (Cauchy-Schwarz), and a partial sum over b above lam c
    only grows.  Right translation by y in N keeps every coset
    (Nby = Nb, N being normal), so it keeps the counts; for d in
    D n Nb and e the least element of Nb, d^-1 e is in N, and Dd^-1 e
    holds e.  So every class has a member whose counts are an image,
    x_N largest, and that holds the least element of the first coset
    the lift fills in part, as the order of the cosets in the lift
    depends only on the counts.
    The lift chooses the cosets' elements in order of decreasing count,
    the full cosets first, with every difference count at most lam; a
    lift of k elements therefore counts each quotient lam times, as
    none exceeds lam and they sum to k(k-1) = lam(v-1).  On one coset
    the only image is (k), and the lift is that backtracking from the
    pinned 0.  _least_translates keeps one least translate per class."""
    check_ds_parameters(v, k, lam)
    classifier.validate_group_table(table)
    if len(table) != v:
        raise ParameterContradictionError(f"group order {len(table)} != v = {v}")
    if limit is not None and limit < 1:
        return []
    if k == 1 or k >= v - 1:
        return [frozenset(range(k))]
    n, u = k - lam, isqrt(k - lam)
    if v % 2 == 0 and u * u != n:  # Schuetzenberger
        return []
    if v == 4 * n and u >= 2 and u & (u - 1) == 0:  # Turyn
        exponent = _abelian_exponent(table)
        if exponent is not None and exponent > 4 * u:
            return []
    inv = classifier.inverses(table)
    quot = [[row[j] for j in inv] for row in table]  # quot[x][y] = x y^-1
    return _search(table, quot, v, k, lam)[:limit]


def _search(table, quot, v, k, lam):
    """The full sorted answer of search_difference_sets, on a table it
    has checked, with 2 <= k <= v - 2: the orbit search or the quotient
    search, on the complement parameters when k < v < 2k, and one
    _least_translates over everything found.  The complement parameters
    pass the same checks and exits, as they keep v and n = k - lam, and
    satisfy 2 <= v - k <= v - 2."""
    if k < v < 2 * k:
        everything = set(range(v))
        sets = [everything.difference(C)
                for C in _candidates(table, quot, v - k, v - 2 * k + lam)]
    else:
        sets = _candidates(table, quot, k, lam)
    return _least_translates(table, quot, sets)


def _candidates(table, quot, k, lam):
    """At least one member of every translate class of (v, k, lam) sets,
    as lists: the orbit unions when a multiplier map serves, otherwise
    the lifts of the quotient images."""
    maps = _multiplier_maps(table, len(table), k, lam)
    if maps:
        return _orbit_unions(quot, k, lam, maps)
    return _quotient_lifts(table, quot, k, lam, _least_normal_subgroup(table, quot))


def _least_translates(table, quot, sets):
    """The least right translate of each set D, one per translate class,
    as sets of the same class share it, in increasing order of its
    sorted tuple.  Of the translates Dy^-1, y in D, which hold 0, the
    least holds g for g = 1, 2, ... whenever one still running does
    (search_difference_sets); g is in Dy^-1 when gy is in D.  The
    running y narrow until one is left, or g passes v - 1 and those
    left give one translate; only that translate is built and sorted."""
    least = set()
    for D in sets:
        members = set(D)
        running = list(members)
        for g in range(1, len(table)):
            if len(running) == 1:
                break
            row = table[g]
            kept = [y for y in running if row[y] in members]
            if kept:
                running = kept
        y = running[0]
        least.add(tuple(sorted([quot[x][y] for x in members])))
    return [frozenset(D) for D in sorted(least)]


def _prime_factors(n):
    """The distinct primes dividing n >= 1, in increasing order."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _multiplier_maps(table, v, k, lam):
    """Maps x -> x^t, as lists, that generate the multipliers the Second
    Multiplier Theorem gives every (v, k, lam) set, one for each divisor
    m of n = k - lam with m > lam and gcd(m, v) = 1, the identity left
    out.  None unless the group is abelian, which the theorem needs, and
    gcd(k, v) = 1, which gives every translate class a member fixed by
    the group M of these maps: the orbit search keeps every M-fixed
    set, one least translate per class, and would miss a class that
    had none.

    The t of one m, taken mod the exponent e, are the units that lie in
    <p mod e> for every prime p | m.  They form a subgroup of the cyclic
    group <p0 mod e>, p0 the least such p, so the least power of p0
    among them generates them.  x -> x^t moves some element unless
    t = 1 (mod e), as some element has order e."""
    n = k - lam
    divisors = [m for m in range(max(lam + 1, 2), n + 1)
                if n % m == 0 and gcd(m, v) == 1]
    if not divisors or gcd(k, v) != 1:
        return []
    e = _abelian_exponent(table)
    if e is None:
        return []
    generators = set()
    for m in divisors:
        p0, *primes = _prime_factors(m)
        subgroups = [{pow(p, f, e) for f in range(e)} for p in primes]
        t = p0 % e
        while not all(t in powers for powers in subgroups):
            t = t * p0 % e
        generators.add(t)
    return [_power_map(table, t) for t in sorted(generators - {1})]


def _abelian_exponent(table):
    """The exponent of the group, None unless it is abelian.  Starting
    from e = v, e is divided by each prime p | v while p^2 divides it and
    every x^(e/p) is the identity; p itself divides the exponent by
    Cauchy's theorem, so a prime v is the exponent untested."""
    v = len(table)
    if any(table[x][y] != table[y][x] for x in range(v) for y in range(x)):
        return None
    e = v
    for p in _prime_factors(v):
        while e % (p * p) == 0 and not any(_power_map(table, e // p)):
            e //= p
    return e


def _power_map(table, t):
    """[x^t for every element x], t >= 0, by repeated squaring."""
    power, base = [0] * len(table), list(range(len(table)))
    while t:
        if t & 1:
            power = [table[a][b] for a, b in zip(power, base)]
        base = [table[b][b] for b in base]
        t >>= 1
    return power


def _orbit_unions(quot, k, lam, maps):
    """Every (v, k, lam) difference set that is a union of orbits of the
    group M generated by the permutations `maps`, that is every M-fixed
    set, as lists; a translate class can give more than one, and
    _least_translates keeps one least translate per class.  Backtracking
    over the orbits in order of their least element; a branch stops once
    a quotient is counted more than lam times, so a union that reaches k
    elements counts each quotient lam times."""
    orbits, seen = [], set()
    for x in range(len(quot)):
        if x not in seen:
            orbit = _orbit(x, maps)
            seen |= orbit
            orbits.append(sorted(orbit))
    results, counts, chosen = [], [0] * len(quot), []

    def extend(start):
        if len(chosen) == k:
            results.append(list(chosen))
            return
        for i in range(start, len(orbits)):
            orbit = orbits[i]
            if len(chosen) + len(orbit) > k:
                continue
            deltas = []
            for x in orbit:
                deltas += [quot[x][y] for y in chosen]
                deltas += [quot[y][x] for y in chosen]
                chosen.append(x)
            for s in deltas:
                counts[s] += 1
            if all(counts[s] <= lam for s in deltas):
                extend(i + 1)
            for s in deltas:
                counts[s] -= 1
            del chosen[-len(orbit):]

    extend(0)
    return results


def _orbit(x, maps):
    """The orbit of x under the group generated by the permutations
    `maps`, each a list, as a set."""
    orbit, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for image in (m[y] for m in maps):
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _least_normal_subgroup(table, quot):
    """N = <<g>>, the normal closure of an element g of prime order c:
    the subgroup its conjugates x g x^-1 generate, sorted.  c is the
    least prime below v at which some element of order c has a proper
    closure, and g, of order c, has the smallest closure, the least g
    on ties.  A closure holds <g>, so a normal <g> of order c, where one
    exists, is the N.  The whole group when no prime qualifies, as for a
    prime v or a simple group; the search then runs on one coset."""
    v = len(table)
    for c in _prime_factors(v):
        if c == v:
            break
        # the closure of g is the orbit of 0 under left products by its
        # conjugates quot[xg][x] = x g x^-1
        closures = [_orbit(0, [table[s] for s in
                               {quot[table[x][g]][x] for x in range(v)}])
                    for g, power in enumerate(_power_map(table, c))
                    if g and not power]
        proper = [closure for closure in closures if len(closure) < v]
        if proper:
            return sorted(min(proper, key=len))
    return list(range(v))


def _quotient_lifts(table, quot, k, lam, normal):
    """Every (v, k, lam) set D whose counts on the cosets of the normal
    subgroup `normal` are an image of _coset_images and that holds the
    least element of the first coset it meets in part, as lists: the
    lifts of the quotient cut of search_difference_sets, at least one
    member of every translate class.  The cosets of each image are
    filled in order of decreasing count, each by increasing
    combinations of its elements, and a branch stops once a quotient is
    counted more than lam times."""
    c = len(normal)
    cosets, coset_quot = _cosets(table, quot, normal)
    lifts, counts, chosen = [], [0] * len(table), []

    def fill(plan, pin, i, start, need):
        """Extend chosen by `need` elements of plan[i]'s coset from
        position start on, then by every later coset of the plan; the
        pinned coset's first element is its least."""
        if not need:
            i += 1
            if i == len(plan):
                lifts.append(list(chosen))
                return
            start, need = 0, plan[i][1]
        members = plan[i][0]
        stop = 1 if i == pin and not start else len(members) - need + 1
        for j in range(start, stop):
            y = members[j]
            deltas = [quot[y][d] for d in chosen] + [quot[d][y] for d in chosen]
            for s in deltas:
                counts[s] += 1
            if all(counts[s] <= lam for s in deltas):
                chosen.append(y)
                fill(plan, pin, i, j + 1, need - 1)
                chosen.pop()
            for s in deltas:
                counts[s] -= 1

    for image in _coset_images(coset_quot, c, k, lam):
        plan = sorted(((C, x) for C, x in zip(cosets, image) if x),
                      key=lambda part: -part[1])
        pin = next((i for i, (_, x) in enumerate(plan) if x < c), None)
        fill(plan, pin, 0, 0, plan[0][1])
    return lifts


def _cosets(table, quot, normal):
    """The cosets of the normal subgroup `normal`, each sorted, in order
    of their least elements (so coset 0 is the subgroup), and the
    quotient table of G/N on their indices: coset_quot[a][b] is the
    coset of xy^-1 for x in coset a and y in coset b."""
    coset_of, cosets = [None] * len(table), []
    for x in range(len(table)):
        if coset_of[x] is None:
            members = sorted(table[y][x] for y in normal)
            for y in members:
                coset_of[y] = len(cosets)
            cosets.append(members)
    return cosets, [[coset_of[quot[a[0]][b[0]]] for b in cosets] for a in cosets]


def _coset_images(coset_quot, c, k, lam):
    """Every count vector x on the cosets of a normal subgroup of order
    c that the quotient cut of search_difference_sets admits, lam >= 1,
    with x_N (coset 0) largest: sum x = k, sum x^2 = n + lam c and
    sum_b x_hb x_b = lam c for every coset h != 0, where
    coset_quot[a][b] is the coset ab^-1 of the quotient group.  The
    cosets are filled in order, each count from top = x_0 down to 0,
    and a branch stops when the remaining sum s and sum of squares q of
    the r unfilled cosets break s <= top r, q <= top s or s^2 <= r q,
    or a partial sum over b exceeds lam c."""
    m, target = len(coset_quot), lam * c
    cols = [list(col) for col in zip(*coset_quot)]
    sums, x, placed, images = [0] * m, [0] * m, [], []

    def fill(i, rest, squares, top):
        if i == m:
            if not rest and sums.count(target) == m - 1:
                images.append(tuple(x))
            return
        left = m - i - 1
        row, col = coset_quot[i], cols[i]
        for xi in range(min(top, rest), -1, -1):
            s, q = rest - xi, squares - xi * xi
            if q < 0 or s > top * left or q > top * s or s * s > left * q:
                continue
            if not xi:
                fill(i + 1, s, q, top)
                continue
            added = 0
            for b, xb in placed:
                p = xi * xb
                h, h_inv = row[b], col[b]
                sums[h] += p
                sums[h_inv] += p
                added += 1
                if sums[h] > target or sums[h_inv] > target:
                    break
            else:
                x[i] = xi
                placed.append((i, xi))
                fill(i + 1, s, q, top)
                placed.pop()
                x[i] = 0
            for b, xb in placed[:added]:
                sums[row[b]] -= xi * xb
                sums[col[b]] -= xi * xb

    squares = k - lam + target
    for top in range(min(c, k), 0, -1):
        if top * top <= squares:
            x[0] = top
            placed.append((0, top))
            fill(1, k - top, squares - top * top, top)
            placed.pop()
    return images
