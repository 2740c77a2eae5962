"""Command-line front end.

Each cmd_* returns (exit code, JSON payload, text), the text as a
function, so that a JSON run never formats it.  `main` alone stamps
schema_version 1 on the payload, picks the payload or the text by
--format, writes it to stdout or --out, and turns a UsageError into
exit 2.  Exit codes: 0 success, 1 cross-check failure (a classify-vs-BFS
disagreement, i.e. a classification-theorem alarm) and nothing else,
2 usage error (bad arguments, an invalid or oversized spec or numeral,
an oversized survey n or search-ds order, an unwritable --out).
In JSON, sets are sorted integer arrays and complex values are [re, im]
pairs rounded to 12 digits.  Text output is human-oriented and not a
stable contract.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import classifier, fourier, group, search
from .cayley import SpecParseError, SpecValidationError, parse_spec
from .classifier import classify

EXIT_OK = 0
EXIT_CROSS_CHECK = 1
EXIT_USAGE = 2

# survey(n) evaluates one spec per (u, v) class of 4^n and keeps no row;
# on a 2-vCPU x86 VM, in a fresh process, two runs each, n = 11 takes
# 0.7-0.9 s and 20 MB, n = 12 3.8-4.8 s and 25 MB, and n = 13 6.5-8.2 s
# and 35 MB; the enumeration's tables take most of the memory.  n = 14
# has about four times the specs of n = 13.
MAX_SURVEY_N = 13
# --no-dedup evaluates all 4^n specs, and only CSV keeps their rows, as
# text: n = 8 takes 4-5 s and 31 MB on the same VM, and n = 9 takes 16 s
# and 18 MB in JSON, and 21 s and 65 MB in CSV.
MAX_NO_DEDUP_N = 8
# the graph and fourier's float dft cost n^2; at n = 512 on a 2-vCPU
# x86 VM check takes 0.11-0.15 s and fourier 0.47-0.61 s.
MAX_SPEC_N = 512
# search-ds builds an order^2 group table once (v, k, lam) pass counting:
# on a 2-vCPU x86 VM the dicyclic one takes 2.4 s at order 1,024 and 9 s
# at 2,048, and the cyclic one at order 2,000 takes 156 MB.
MAX_DS_ORDER = 1024

# A usage message writes a size out only while it is short: Python
# converts at most 4,300 digits of an int to a string by default, and
# the number that fixes the size may have nearly that many.

CSV_COLUMNS = ["n", "R", "T", "connected", "drg", "array", "class",
               "bipartite", "antipodal", "primitive", "fourier_ok"]


def round_complex(z):
    return [round(z.real, 12), round(z.imag, 12)]


def _parse_spec_arg(text):
    try:
        spec = parse_spec(text)
    except SpecParseError as exc:
        raise UsageError(f"malformed spec: {exc}")
    except SpecValidationError as exc:
        raise UsageError("invalid spec: " + ", ".join(exc.violations))
    if spec.n > MAX_SPEC_N:
        vertices = f"{4 * spec.n:,}" if spec.n < 10 ** 100 else f"4 x {spec.n}"
        raise UsageError(f"n = {spec.n} means a graph on {vertices} "
                         f"vertices; spec commands stop at n = {MAX_SPEC_N}")
    return spec


class UsageError(Exception):
    pass


def cmd_check(args):
    spec = _parse_spec_arg(args.spec)
    payload = {"spec": spec.to_dict()}
    exit_code = EXIT_OK
    if not spec.connected:
        payload["connected"] = False
        payload["note"] = "disconnected; distance-regularity undefined"
    else:
        row = search.evaluate_spec(spec)
        payload["drg"] = row.drg
        payload.update(search.bfs_verdict(row))
        if row.drg:
            del payload["witness"]
        payload["classification"] = {"tag": row.classification.tag,
                                     "params": list(row.classification.params)}
        if row.cross_check_failed:
            payload["cross_check_failure"] = True
            exit_code = EXIT_CROSS_CHECK

    def text():
        lines = [f"spec: {spec!r}", f"connected: {spec.connected}"]
        if spec.connected:
            lines.append(f"drg: {row.drg}")
            if row.array:
                lines.append(f"array: {row.array!r}")
            lines.append(f"class: {row.classification!r}")
            if exit_code:
                lines.append("CROSS-CHECK FAILURE: classifier disagrees with BFS")
        return "\n".join(lines) + "\n"
    return exit_code, payload, text


def cmd_classify(args):
    spec = _parse_spec_arg(args.spec)
    if not spec.connected:
        raise UsageError("spec is disconnected; classification undefined")
    classification = classify(spec)
    payload = {"spec": spec.to_dict(),
               "classification": {"tag": classification.tag,
                                  "params": list(classification.params),
                                  "evidence": list(classification.evidence)}}
    return EXIT_OK, payload, lambda: (f"{classification!r}\n  evidence: "
                                      + "; ".join(classification.evidence)
                                      + "\n")


def _survey_csv(ns, dedup):
    """The CSV text of every row of each survey, and the number of
    cross-check failures among them."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    failures = 0
    for n in ns:
        for row in search.survey_rows(n, dedup):
            failures += row.cross_check_failed
            r, t = row.spec.sorted_sets()
            inst = row.instance
            writer.writerow([
                row.spec.n,
                " ".join(map(str, r)),
                " ".join(map(str, t)),
                row.spec.connected,
                row.drg,
                repr(row.array) if row.array else "",
                repr(row.classification) if row.classification else "",
                inst.bipartite if inst else "",
                inst.antipodal if inst else "",
                inst.primitive if inst else "",
                inst.fourier_ok if inst else "",
            ])
    return buf.getvalue(), failures


def cmd_survey(args):
    ns = _requested_ns(args)
    dedup = not args.no_dedup
    # CSV keeps every row; the reports keep only the DRG rows
    if args.format == "csv":
        csv_text, failures = _survey_csv(ns, dedup)
        return EXIT_CROSS_CHECK if failures else EXIT_OK, None, lambda: csv_text
    reports = [search.survey(n, dedup=dedup) for n in ns]
    failures = sum(len(r.cross_check_failures) for r in reports)

    def text():
        lines = []
        for report in reports:
            lines.append(f"n={report.n}: {report.total_specs} specs, "
                         f"{report.canonical_classes} canonical, "
                         f"{report.connected_specs} connected, "
                         f"{len(report.drg_instances)} DRG")
            for inst in report.drg_instances:
                lines.append(f"  {inst.spec!r} -> {inst.array!r} "
                             f"{inst.classification!r} family={inst.family!r}")
            if report.cross_check_failures:
                lines.append(f"  CROSS-CHECK FAILURES: "
                             f"{report.cross_check_failures}")
        return "\n".join(lines) + "\n"
    return (EXIT_CROSS_CHECK if failures else EXIT_OK,
            {"surveys": [r.to_dict() for r in reports]}, text)


def _requested_ns(args):
    """The range of n to survey; the upper end is checked against its
    bound before anything is built."""
    if args.n_range is None:
        if args.n < 1:
            raise UsageError("--n must be >= 1")
        a = b = args.n
    else:
        try:
            a, b = map(int, args.n_range.split(".."))
        except ValueError:
            raise UsageError("--n-range expects A..B")
        if a < 1 or b < a:
            raise UsageError("--n-range expects 1 <= A <= B")
    bound, what = ((MAX_NO_DEDUP_N, "--no-dedup surveys") if args.no_dedup
                   else (MAX_SURVEY_N, "surveys"))
    if b > bound:
        specs = f"{4 ** b:,}" if b < 100 else f"4^{b}"
        raise UsageError(f"n = {b} means {specs} specs; "
                         f"{what} stop at n = {bound}")
    return range(a, b + 1)


def cmd_search_ds(args):
    if args.order > MAX_DS_ORDER:
        entries = (f"{args.order ** 2:,}" if args.order < 10 ** 100
                   else f"{args.order:,}^2")
        raise UsageError(f"--order {args.order:,} means a group table of "
                         f"{entries} entries; search-ds stops at "
                         f"order {MAX_DS_ORDER:,}")
    if args.limit is not None and args.limit < 1:
        raise UsageError("--limit must be >= 1")
    if args.group == "dicyclic" and args.order % 4 != 0:
        raise UsageError("dicyclic groups have order 4n")
    try:
        search.check_ds_parameters(args.order, args.k, args.lam)
        table = (classifier.cyclic_table(args.order) if args.group == "cyclic"
                 else group.multiplication_table(args.order // 4)[0])
        sets = search.search_difference_sets(table, args.order, args.k,
                                             args.lam, limit=args.limit)
    except search.ParameterContradictionError as exc:
        raise UsageError(str(exc))
    payload = {"group": {"kind": args.group, "order": args.order},
               "v": args.order, "k": args.k, "lam": args.lam,
               "difference_sets": [sorted(D) for D in sets]}
    lines = [f"{len(sets)} difference set class(es) for "
             f"({args.order},{args.k},{args.lam}) in {args.group} group"]
    lines += ["  {" + ",".join(map(str, sorted(D))) + "}" for D in sets]
    return EXIT_OK, payload, lambda: "\n".join(lines) + "\n"


def cmd_fourier(args):
    spec = _parse_spec_arg(args.spec)
    m = 2 * spec.n
    r = fourier.dft_of_set(spec.R, m)
    t = fourier.dft_of_set(spec.T, m)
    orbits = fourier.unit_orbits(m)
    payload = {
        "spec": spec.to_dict(),
        "dft_R": [round_complex(z) for z in r],
        "dft_T": [round_complex(z) for z in t],
        "unit_orbits": [{"order": order, "members": sorted(members)}
                        for order, members in orbits],
        "transversals": {
            str(div): {"R+0": fourier.is_transversal(set(spec.R) | {0}, div, m),
                       "T": fourier.is_transversal(spec.T, div, m)}
            for div in range(1, m + 1) if m % div == 0
        },
    }
    instance = search.evaluate_spec(spec).instance
    if instance is not None:
        payload["fourier_lemma_ok"] = instance.fourier_ok

    def text():
        lines = [f"spec: {spec!r}",
                 "dft R: " + " ".join(f"{z[0]:+.4f}{z[1]:+.4f}i"
                                      for z in payload["dft_R"]),
                 "dft T: " + " ".join(f"{z[0]:+.4f}{z[1]:+.4f}i"
                                      for z in payload["dft_T"])]
        if instance is not None:
            lines.append(f"fourier lemma: {instance.fourier_ok}")
        return "\n".join(lines) + "\n"
    return EXIT_OK, payload, text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dicirculant",
        description="Distance-regular Cayley graphs on dicyclic groups: "
                    "construction, classification, and exhaustive surveys.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_arg=False, formats=("json", "text")):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=formats, default="text")
        if spec_arg:
            p.add_argument("spec", help="'n=<int>; R=<list>; T=<list>'")

    p_check = sub.add_parser("check", help="validate, build, test, classify one spec")
    common(p_check, spec_arg=True)
    p_check.set_defaults(func=cmd_check)

    p_classify = sub.add_parser("classify", help="classifier only, with evidence")
    common(p_classify, spec_arg=True)
    p_classify.set_defaults(func=cmd_classify)

    p_survey = sub.add_parser("survey", help="full survey per n")
    common(p_survey, formats=("json", "csv", "text"))
    n_choice = p_survey.add_mutually_exclusive_group(required=True)
    n_choice.add_argument("--n", type=int)
    n_choice.add_argument("--n-range", metavar="A..B")
    p_survey.add_argument("--no-dedup", action="store_true",
                          help="survey all specs, not canonical representatives")
    p_survey.set_defaults(func=cmd_survey)

    p_ds = sub.add_parser("search-ds", help="difference-set search")
    common(p_ds)
    p_ds.add_argument("--group", choices=["cyclic", "dicyclic"], required=True)
    p_ds.add_argument("--order", type=int, required=True)
    p_ds.add_argument("--k", type=int, required=True)
    p_ds.add_argument("--lam", type=int, required=True)
    p_ds.add_argument("--limit", type=int, default=None)
    p_ds.set_defaults(func=cmd_search_ds)

    p_fourier = sub.add_parser("fourier",
                               help="DFT / orbit / transversal diagnostics")
    common(p_fourier, spec_arg=True)
    p_fourier.set_defaults(func=cmd_fourier)

    return parser


@functools.cache
def _parser():
    """build_parser(), built on first use and then shared by every call:
    parse_args returns a fresh namespace and keeps nothing from earlier
    calls, so sharing saves the rebuild without carrying state."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        exit_code, payload, text = args.func(args)
        if args.format == "json":
            text = json.dumps({"schema_version": 1, **payload}, sort_keys=True,
                              separators=(",", ":")) + "\n"
        else:
            text = text()
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out}: {exc.strerror}")
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
