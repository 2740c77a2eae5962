"""The benchmark's three workloads.

Each class builds its inputs through the package in __init__ (the work
setup_s times), computes its own reference answers in prepare(), and
runs one pass over its job in run_pass(index, timer), timing every
operation with timer.op().  Outputs are checked right after each
operation, outside the timed interval: problems go to .problems, and
operations that raise are counted in .failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from collections import defaultdict

from dicirculant import cayley, classifier, cli, group, search

import checks
import oracle

NOT_DRG = "NotDistanceRegular"


class Workload:
    def __init__(self):
        self.problems = []
        self.failed = 0

    def _failure(self, what):
        self.failed += 1
        sys.stderr.write(f"operation failed: {what}\n{traceback.format_exc()}")

    def finish(self):
        """Checks that span the whole run."""


class Survey(Workload):
    """The researcher's main job: a ladder of in-process
    `dicirculant survey --n k --format json` calls for k = 1..5.  The seed
    only orders the ladder.  Five rungs put the median call at k = 3."""

    LADDER = (1, 2, 3, 4, 5)

    def __init__(self, seed):
        super().__init__()
        self.order = list(self.LADDER)
        random.Random(seed).shuffle(self.order)

    def prepare(self):
        self.refs = {}
        for n in self.LADDER:
            self.refs[n] = oracle.survey_reference(n)
            self.refs[n]["burnside"] = oracle.burnside_classes(n)
        self.canonical_per_pass = sum(ref["burnside"] for ref in self.refs.values())

    def run_pass(self, index, timer):
        for n in self.order:
            out = io.StringIO()
            try:
                with timer.op(), contextlib.redirect_stdout(out):
                    code = cli.main(["survey", "--n", str(n), "--format", "json"])
            except Exception:
                self._failure(f"survey --n {n}")
                continue
            try:
                payload = json.loads(out.getvalue())
            except ValueError as exc:
                self.problems.append(f"survey --n {n}: output is not JSON: {exc}")
                continue
            self.problems += checks.survey_problems(n, code, payload, self.refs[n])


def _divisors(x):
    return [d for d in range(1, x + 1) if x % d == 0]


def planted_specs(n, rng):
    """S = Dic_n minus a subgroup H, for one H of each kind and order:
    the cyclic <a^d> (d | 2n; d = 2n gives H = 1 and the complete graph)
    and the dicyclic <a^d, b> (d | n, d >= 2).  A seeded automorphism
    a -> a^u, b -> a^v b moves each one, which keeps its class."""
    m = 2 * n
    subgroups = [(set(range(0, m, d)), set()) for d in _divisors(m)]
    subgroups += [(set(range(0, m, d)), set(range(0, m, d)))
                  for d in _divisors(n) if d >= 2]
    units = oracle.units(m)
    out = []
    for h_r, h_t in subgroups:
        u, v = rng.choice(units), rng.randrange(m)
        R = frozenset(u * r % m for r in set(range(m)) - h_r)
        T = frozenset((u * t + v) % m for t in set(range(m)) - h_t)
        order = len(h_r) + len(h_t)
        if order == 1:
            out.append((n, R, T, "CompleteGraph", [4 * n]))
        else:
            out.append((n, R, T, "CompleteMultipartite", [4 * n // order, order]))
    return out


class SpecEval(Workload):
    """One operation is search.evaluate_spec on one validated spec.  Per
    n in NS: RANDOM_PER_N seeded random connected specs that the
    benchmark's BFS finds not distance-regular, plus the planted
    complete and complete multipartite specs of planted_specs()."""

    NS = (8, 9, 10, 11, 12)
    RANDOM_PER_N = 60

    def __init__(self, seed):
        super().__init__()
        rng = random.Random(seed)
        cases = []
        for n in self.NS:
            table = oracle.dicyclic_table(n)
            drawn, random_cases = set(), []
            while len(random_cases) < self.RANDOM_PER_N:
                masks = (rng.getrandbits(n), rng.getrandbits(n))
                if masks in drawn:
                    continue
                drawn.add(masks)
                R, T = oracle.sets_from_masks(n, *masks)
                connected, array = oracle.intersection_array(n, R, T, table)
                if connected and array is None:
                    random_cases.append((n, frozenset(R), frozenset(T),
                                         NOT_DRG, []))
            cases += random_cases + planted_specs(n, rng)
        rng.shuffle(cases)
        self.specs = [cayley.validate_spec(n, R, T) for n, R, T, _, _ in cases]
        self.cases = cases

    def prepare(self):
        tables = {n: oracle.dicyclic_table(n) for n in self.NS}
        self.expected = []
        for n, R, T, tag, params in self.cases:
            array = None
            if tag != NOT_DRG:
                array = oracle.intersection_array(n, R, T, tables[n])[1]
                if array is None:
                    self.problems.append(f"planted n={n} R={sorted(R)} T={sorted(T)} "
                                         f"is not distance-regular")
            self.expected.append({"n": n, "R": R, "T": T, "array": array,
                                  "tag": tag, "params": params})

    def run_pass(self, index, timer):
        for spec, expected in zip(self.specs, self.expected):
            try:
                with timer.op():
                    row = search.evaluate_spec(spec)
            except Exception:
                self._failure(repr(spec))
                continue
            self.problems += checks.spec_row_problems(row, expected)


def relabel(table, rng):
    """The group of `table` under a random relabelling that keeps the
    identity at 0, and the map from new labels back to old ones."""
    v = len(table)
    rest = list(range(1, v))
    rng.shuffle(rest)
    new_of = [0] + rest
    out = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(v):
            out[new_of[i]][new_of[j]] = new_of[table[i][j]]
    old_of = [0] * v
    for old, new in enumerate(new_of):
        old_of[new] = old
    return tuple(map(tuple, out)), old_of


class DsSearch(Workload):
    """One operation is one search_difference_sets call.  Each pass
    relabels every group afresh (seeded by seed and pass index) and
    searches every entry of ENTRIES once."""

    # Eleven searches of well-separated sizes, so the median operation
    # is the one (13,9,6) search rather than the edge of a cluster of
    # similar ones.
    ENTRIES = (
        ("cyclic", 7, 3, 1), ("cyclic", 7, 4, 2),
        ("cyclic", 11, 5, 2), ("cyclic", 11, 6, 3),
        ("cyclic", 13, 4, 1), ("cyclic", 13, 9, 6),
        ("cyclic", 15, 8, 4),
        ("cyclic", 16, 6, 2),  # no cyclic (16,6,2) set exists
        ("dicyclic", 16, 6, 2), ("dicyclic", 16, 10, 6),
        ("cyclic", 19, 9, 4),
    )

    def __init__(self, seed):
        super().__init__()
        self.seed = seed
        self.tables = {}
        for kind, v, _, _ in self.ENTRIES:
            if (kind, v) not in self.tables:
                self.tables[kind, v] = (classifier.cyclic_table(v) if kind == "cyclic"
                                        else group.multiplication_table(v // 4)[0])

    def prepare(self):
        self.own = {}
        for kind, v in self.tables:
            own = oracle.cyclic_table(v) if kind == "cyclic" else oracle.dicyclic_table(v // 4)
            if [list(row) for row in self.tables[kind, v]] != own:
                self.problems.append(f"package table of the {kind} group of order {v} "
                                     f"is not the group's")
            self.own[kind, v] = own
        self.brute = {entry: oracle.brute_force_classes(self.own[entry[:2]], *entry[2:])
                      for entry in self.ENTRIES}
        self.counts_seen = defaultdict(set)

    def run_pass(self, index, timer):
        rng = random.Random(self.seed * 1_000_003 + index)
        relabelled = {key: relabel(table, rng) for key, table in self.tables.items()}
        for entry in self.ENTRIES:
            table, old_of = relabelled[entry[:2]]
            try:
                with timer.op():
                    found = search.search_difference_sets(table, *entry[1:])
            except Exception:
                self._failure(str(entry))
                continue
            self.counts_seen[entry].add(len(found))
            self.problems += checks.difference_set_problems(
                entry, [[old_of[x] for x in D] for D in found],
                self.own[entry[:2]], self.brute[entry])

    def finish(self):
        self.problems += checks.count_problems(self.counts_seen)


WORKLOADS = {"survey": Survey, "spec-eval": SpecEval, "ds-search": DsSearch}
