"""Output checks.  Each function returns a list of problems, empty when
the output is right.  The expected values come from oracle.py or from
how the benchmark built the input, never from a stored copy of the
package's own output."""

from __future__ import annotations

import oracle


def survey_problems(n, exit_code, payload, ref):
    """One `dicirculant survey --n n --format json` call.  `ref` is
    oracle.survey_reference(n) plus "burnside": oracle.burnside_classes(n)."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        if payload["schema_version"] != 1:
            problems.append(f"schema_version {payload['schema_version']}")
        (report,) = payload["surveys"]
        if report["n"] != n:
            problems.append(f"survey of n={report['n']}, asked for {n}")
        if report["total_specs"] != 4 ** n:
            problems.append(f"total_specs {report['total_specs']} != 4^{n}")
        if report["canonical_classes"] != ref["burnside"]:
            problems.append(f"canonical_classes {report['canonical_classes']} "
                            f"!= Burnside count {ref['burnside']}")
        if report["connected_specs"] != ref["connected"]:
            problems.append(f"connected_specs {report['connected_specs']} "
                            f"!= {ref['connected']}")
        got = [(inst["spec"]["R"], inst["spec"]["T"],
                inst["intersection_array"]["b"], inst["intersection_array"]["c"])
               for inst in report["drg_instances"]]
        if got != [tuple(drg) for drg in ref["drgs"]]:
            problems.append(f"n={n}: DRG instances {got} != {ref['drgs']}")
        for inst in report["drg_instances"]:
            cls, arr = inst["classification"], inst["intersection_array"]
            problem = oracle.theorem_problem(cls["tag"], cls["params"],
                                             arr["b"], arr["c"], n)
            if problem:
                problems.append(problem)
            if inst["fourier_ok"] is not True:
                problems.append(f"fourier_ok false for {inst['spec']}")
        if report["cross_check_failures"]:
            problems.append(f"cross-check failures {report['cross_check_failures']}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed survey output: {exc!r}")
    return problems


def spec_row_problems(row, expected):
    """One search.evaluate_spec result.  `expected` holds the spec's n, R
    and T, the oracle's array (None when not distance-regular) and the
    class the benchmark built it as."""
    n = expected["n"]
    problems = []
    if (row.spec.n, row.spec.R, row.spec.T) != (n, expected["R"], expected["T"]):
        problems.append(f"row is for {row.spec!r}, not the spec evaluated")
    array = (tuple(row.array.b), tuple(row.array.c)) if row.array is not None else None
    if row.drg != (expected["array"] is not None) or array != expected["array"]:
        problems.append(f"{row.spec!r}: drg={row.drg} array={array}, "
                        f"BFS reference says {expected['array']}")
    cls = row.classification
    if cls is None or (cls.tag, list(cls.params)) != (expected["tag"], expected["params"]):
        problems.append(f"{row.spec!r}: class {cls!r}, built as "
                        f"{expected['tag']}{expected['params']}")
    if expected["array"] is not None and cls is not None:
        problem = oracle.theorem_problem(cls.tag, cls.params, *expected["array"], n)
        if problem:
            problems.append(problem)
        if row.instance is None or row.instance.fourier_ok is not True:
            problems.append(f"{row.spec!r}: fourier_ok is not true")
    return problems


def difference_set_problems(entry, found, table, brute):
    """One search_difference_sets result, mapped back to the group's own
    labels.  `table` is the benchmark's table of the group and `brute`
    the brute-force classes (None where that count is too costly)."""
    _, _, k, lam = entry
    problems = []
    classes = []
    for D in found:
        if not oracle.is_difference_set(D, table, k, lam):
            problems.append(f"{entry}: {sorted(D)} is not a difference set")
        classes.append(oracle.translate_class(D, table))
    if len(set(classes)) != len(classes):
        problems.append(f"{entry}: two returned sets are right translates")
    if brute is not None and set(classes) != brute:
        problems.append(f"{entry}: {len(found)} classes, brute force finds {len(brute)}")
    return problems


def count_problems(counts_seen):
    """The number of classes must not depend on the labelling."""
    return [f"{entry}: class count differs across relabellings: {sorted(counts)}"
            for entry, counts in counts_seen.items() if len(counts) != 1]
