"""Shows that every output check passes the package's real output and
rejects a deliberately corrupted copy of it.  Run from the root of a
checkout:

    python3 bench/selftest.py

Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from dicirculant import cayley, classifier, cli, search  # noqa: E402
from dicirculant.metrics import IntersectionArray  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

failures = []


def expect(name, problems, want_problems):
    ok = bool(problems) == want_problems
    verdict = "rejects" if want_problems else "accepts"
    print(f"{'ok' if ok else 'FAIL'}: {verdict} {name}"
          + (f" ({problems[0]})" if problems and ok else ""))
    if not ok:
        failures.append(name)


def oracle_selftest():
    for n in (1, 2, 3):
        a, b, b_inv = 1, 2 * n, 3 * n  # a, b and b^-1 = a^n b
        elems = range(4 * n)
        assoc = all(oracle.mul(oracle.mul(x, y, n), z, n)
                    == oracle.mul(x, oracle.mul(y, z, n), n)
                    for x in elems for y in elems for z in elems)
        relations = (oracle.mul(b, b, n) == n and oracle.mul(b, b_inv, n) == 0
                     and oracle.mul(oracle.mul(b, a, n), b_inv, n) == 2 * n - 1)
        expect(f"group law of Dic_{n}", [] if assoc and relations
               else ["a relation of the presentation fails"], False)
    for n in (1, 2, 3, 4):
        burnside, orbits = oracle.burnside_classes(n), oracle.survey_reference(n)["classes"]
        expect(f"Burnside count {burnside} against orbit count {orbits} at n={n}",
               [] if burnside == orbits else ["counts differ"], False)


def survey_selftest():
    n = 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["survey", "--n", str(n), "--format", "json"])
    payload = json.loads(out.getvalue())
    ref = oracle.survey_reference(n)
    ref["burnside"] = oracle.burnside_classes(n)
    expect("survey output", checks.survey_problems(n, code, payload, ref), False)

    def corrupt(name, edit, exit_code=code):
        bad = copy.deepcopy(payload)
        edit(bad["surveys"][0], bad)
        expect(name, checks.survey_problems(n, exit_code, bad, ref), True)

    corrupt("survey with exit code 1", lambda s, p: None, exit_code=1)
    corrupt("survey with schema_version 2", lambda s, p: p.update(schema_version=2))
    corrupt("survey with total_specs off by one",
            lambda s, p: s.update(total_specs=s["total_specs"] + 1))
    corrupt("survey with canonical_classes off by one",
            lambda s, p: s.update(canonical_classes=s["canonical_classes"] - 1))
    corrupt("survey with connected_specs off by one",
            lambda s, p: s.update(connected_specs=s["connected_specs"] + 1))
    corrupt("survey missing a DRG instance", lambda s, p: s["drg_instances"].pop())
    corrupt("survey with a wrong intersection array",
            lambda s, p: s["drg_instances"][-1]["intersection_array"]["c"].__setitem__(0, 2))
    corrupt("survey with a tag the theorem forbids",
            lambda s, p: s["drg_instances"][0]["classification"].update(
                tag="BipartiteD3Family"))
    corrupt("survey with fourier_ok false",
            lambda s, p: s["drg_instances"][0].update(fourier_ok=False))
    corrupt("survey with a cross-check failure",
            lambda s, p: s["cross_check_failures"].append({"spec": "n=3; R=; T=0,3"}))


def spec_eval_selftest():
    n, rng = 4, random.Random(0)
    table = oracle.dicyclic_table(n)
    cases = [(n, frozenset({1, 7}), frozenset({0, 4}), workloads.NOT_DRG, [])]
    cases += workloads.planted_specs(n, rng)
    rows, expected = [], []
    for n_, R, T, tag, params in cases:
        connected, array = oracle.intersection_array(n_, R, T, table)
        expected.append({"n": n_, "R": R, "T": T, "array": array,
                         "tag": tag, "params": params})
        rows.append(search.evaluate_spec(cayley.validate_spec(n_, R, T)))
    expect("random spec with a DRG verdict", [] if expected[0]["array"] is None
           else ["benchmark's random example is distance-regular"], False)
    for row, exp in zip(rows, expected):
        expect(f"evaluate_spec row for {row.spec!r}", checks.spec_row_problems(row, exp), False)
    planted, plain, exp_p, exp_r = rows[-1], rows[0], expected[-1], expected[0]
    expect("row with the verdict flipped",
           checks.spec_row_problems(replace(plain, drg=True), exp_r), True)
    b, c = planted.array.b, planted.array.c
    expect("row with a wrong intersection array",
           checks.spec_row_problems(replace(planted, array=IntersectionArray(
               b, c[:-1] + (c[-1] + 1,))), exp_p), True)
    t, size = planted.classification.params
    expect("planted DRG with the wrong class",
           checks.spec_row_problems(replace(planted, classification=replace(
               planted.classification, params=(t + 1, size))), exp_p), True)
    expect("DRG row with fourier_ok false",
           checks.spec_row_problems(replace(planted, instance=replace(
               planted.instance, fourier_ok=False)), exp_p), True)
    expect("row for another spec", checks.spec_row_problems(rows[1], exp_p), True)


def ds_selftest():
    entry = ("cyclic", 13, 4, 1)
    table = oracle.cyclic_table(13)
    brute = oracle.brute_force_classes(table, 4, 1)
    found = [sorted(D) for D in search.search_difference_sets(
        classifier.cyclic_table(13), 13, 4, 1)]
    expect("difference sets of (13,4,1)",
           checks.difference_set_problems(entry, found, table, brute), False)
    bad = [list(D) for D in found]
    bad[0][-1] = (bad[0][-1] + 1) % 13
    expect("a set that is not a difference set",
           checks.difference_set_problems(entry, bad, table, brute), True)
    translate = [(d + 1) % 13 for d in found[0]]
    expect("two right translates of one set",
           checks.difference_set_problems(entry, found + [translate], table, None), True)
    expect("a class missing against brute force",
           checks.difference_set_problems(entry, found[1:], table, brute), True)
    expect("class counts that change with the labelling",
           checks.count_problems({entry: {len(found), len(found) - 1}}), True)


def tracer_selftest():
    spec = cayley.validate_spec(2, {1, 3}, {0, 1, 2, 3})
    original = search.evaluate_spec
    tracer = Tracer()
    tracer.install()
    try:
        search.evaluate_spec(spec)
    finally:
        tracer.uninstall()
    calls = tracer.calls
    traced = calls["search.evaluate_spec"] == 1 and calls["cayley.build_graph"] == 2
    expect("tracer counts at the layer boundaries",
           [] if traced and search.evaluate_spec is original
           else [f"calls {dict(calls)}"], False)


def main():
    oracle_selftest()
    survey_selftest()
    spec_eval_selftest()
    ds_selftest()
    tracer_selftest()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
