import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicirculant import classifier, cli, group, search
from dicirculant.classifier import Classification
from dicirculant.cli import EXIT_CROSS_CHECK, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_multipartite_text(self, capsys):
        code, out, _ = run(capsys, "check", "n=2; R=1,3; T=0,1,2,3")
        assert code == EXIT_OK
        assert "drg: True" in out
        assert "CompleteMultipartite(4,2)" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "json",
                           "n=2; R=1,3; T=0,1,2,3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["spec"] == {"n": 2, "R": [1, 3], "T": [0, 1, 2, 3],
                                   "connected": True}
        assert payload["intersection_array"] == {"b": [6, 1], "c": [1, 6]}

    def test_witness_reported(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "json",
                           "n=4; R=1,7; T=1,5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["drg"] is False
        assert payload["witness"]["distance"] == 2
        assert payload["classification"]["tag"] == "NotDistanceRegular"

    def test_invalid_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "n=2; R=1; T=0,2")
        assert code == EXIT_USAGE
        assert "RNotSymmetric" in err

    def test_garbage_is_usage_error(self, capsys):
        # the first character at which no valid spec can continue
        for text, position in [("whatever", 0), ("n=2; R=²; T=0,2", 7),
                               ("n=2; R=1,3, T=0,2", 12), ("n=x; R=1; T=0", 2),
                               ("n=2; Q=1; T=0", 5)]:
            code, out, err = run(capsys, "check", text)
            assert code == EXIT_USAGE and out == "", text
            assert "malformed" in err and f"(at position {position})" in err

    def test_disconnected_noted(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "json", "n=2; R=2; T=")
        assert code == EXIT_OK
        assert json.loads(out)["connected"] is False

    @pytest.mark.parametrize("command", ["check", "classify", "fourier"])
    def test_oversized_spec_is_usage_error(self, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated despite the size bound")
        monkeypatch.setattr(search, "evaluate_spec", refuse)
        monkeypatch.setattr(cli, "classify", refuse)
        code, out, err = run(capsys, command, "n=513; R=1,1025; T=0,513")
        assert code == EXIT_USAGE and out == ""
        assert f"{4 * 513:,} vertices" in err
        assert cli._parse_spec_arg("n=512; R=1,1023; T=0,512").n \
            == cli.MAX_SPEC_N

    # CPython converts at most 4,300 digits between int and str by default
    @pytest.mark.parametrize("command", ["check", "classify", "fourier"])
    @pytest.mark.parametrize("spec, position", [
        ("n=" + "9" * 5000 + "; R=1; T=0", 2),
        ("n=2; R=1, " + "9" * 5000 + "; T=0", 10),
        ("n=2; R=2; T=0,2," + "7" * 5000, 16)], ids=["n", "R", "T"])
    def test_oversized_numeral_is_malformed(self, capsys, monkeypatch, command,
                                            spec, position):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated an oversized numeral")
        monkeypatch.setattr(search, "evaluate_spec", refuse)
        monkeypatch.setattr(cli, "classify", refuse)
        code, out, err = run(capsys, command, spec)
        assert code == EXIT_USAGE and out == ""
        assert f"malformed spec: numeral too long (at position {position})" in err

    @pytest.mark.parametrize("command", ["check", "classify", "fourier"])
    def test_oversized_message_for_the_longest_n(self, capsys, monkeypatch,
                                                 command):
        # n has 4,300 digits and 4n one more; T = {0, n} makes a valid spec
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated despite the size bound")
        monkeypatch.setattr(search, "evaluate_spec", refuse)
        monkeypatch.setattr(cli, "classify", refuse)
        n = "9" * 4300
        code, out, err = run(capsys, command, f"n={n}; R=; T=0,{n}")
        assert code == EXIT_USAGE and out == ""
        assert f"spec commands stop at n = {cli.MAX_SPEC_N}" in err


class TestClassify:
    def test_evidence_in_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "json",
                           "n=4; R=1,7; T=1,5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["classification"]["tag"] == "NotDistanceRegular"
        assert payload["classification"]["evidence"]

    def test_disconnected_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "n=2; R=2; T=")
        assert code == EXIT_USAGE
        assert "disconnected" in err


class TestSurvey:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "2")
        assert code == EXIT_OK
        assert "n=2: 16 specs, 12 canonical, 6 connected, 4 DRG" in out

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "survey", "--n", "3", "--format", "json")
        code2, out2, _ = run(capsys, "survey", "--n", "3", "--format", "json")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["surveys"][0]["n"] == 3
        assert payload["surveys"][0]["cross_check_failures"] == []

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "2", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == cli.CSV_COLUMNS
        assert len(rows) == 1 + 12  # header + canonical specs

    def test_n_range(self, capsys):
        code, out, _ = run(capsys, "survey", "--n-range", "1..2",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [s["n"] for s in payload["surveys"]] == [1, 2]

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "survey", "--n-range", "3..1")
        assert code == EXIT_USAGE

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "survey")
        assert code == EXIT_USAGE

    def test_n_with_n_range_is_usage_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("surveyed with both --n and --n-range")
        monkeypatch.setattr(search, "survey", refuse)
        code, out, err = run(capsys, "survey", "--n", "3", "--n-range", "1..2")
        assert code == EXIT_USAGE and out == ""
        assert "not allowed with" in err

    @pytest.mark.parametrize("argv", [["--n", "15"], ["--n-range", "1..15"]])
    def test_oversized_n_is_usage_error(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated despite the size bound")
        monkeypatch.setattr(search, "survey", refuse)
        monkeypatch.setattr(search, "enumerate_specs", refuse)
        code, out, err = run(capsys, "survey", *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"{4 ** 15:,} specs" in err

    @pytest.mark.parametrize("argv", [
        ["--n", "10000"], ["--n-range", "1..10000"], ["--n-range", "1..1000000"],
        ["--no-dedup", "--n-range", "2..1000000"]])
    def test_far_oversized_n_is_usage_error(self, capsys, monkeypatch, argv):
        # 4^n has more digits than Python converts to a string, and the
        # bound is checked before any list of n is built
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated despite the size bound")
        monkeypatch.setattr(search, "survey", refuse)
        monkeypatch.setattr(search, "enumerate_specs", refuse)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "survey", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and out == ""
        assert f"n = {argv[-1].split('..')[-1]} means 4^" in err
        assert peak < 1_000_000

    def test_n14_is_accepted(self, capsys, monkeypatch):
        surveyed = []

        def stub(n, dedup=True):
            surveyed.append((n, dedup))
            return search.SurveyReport(n=n)
        monkeypatch.setattr(search, "survey", stub)
        code, out, _ = run(capsys, "survey", "--n", "14", "--format", "json")
        assert code == EXIT_OK and surveyed == [(14, True)]
        assert json.loads(out)["surveys"][0]["n"] == 14

    @pytest.mark.parametrize("argv", [["--n", "9"], ["--n-range", "1..9"]])
    def test_oversized_no_dedup_is_usage_error(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated despite the --no-dedup bound")
        monkeypatch.setattr(search, "survey", refuse)
        monkeypatch.setattr(search, "enumerate_specs", refuse)
        code, out, err = run(capsys, "survey", "--no-dedup", *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"{4 ** 9:,} specs" in err
        assert f"n = {cli.MAX_NO_DEDUP_N}" in err

    def test_bad_workers_is_usage_error(self, capsys):
        # surveys run in one process, so --workers is an unknown flag
        for workers in ("0", "1"):
            code, _, _ = run(capsys, "survey", "--n", "2", "--workers", workers)
            assert code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "survey", "--n", "2", "--format", "json",
                           "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["schema_version"] == 1

    @pytest.mark.parametrize("argv", [["survey", "--n", "2"],
                                      ["check", "n=2; R=1,3; T=0,1,2,3"]])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_USAGE and out == ""
        assert str(target) in err

    def test_forced_disagreement_exits_one(self, capsys, monkeypatch):
        # fault injection: a classifier that calls everything non-DRG must
        # trip the cross-check exit code, in survey and in check alike
        code, _, _ = run(capsys, "survey", "--n", "2", "--format", "csv")
        assert code == EXIT_OK
        monkeypatch.setattr(
            search, "classify",
            lambda spec: Classification("NotDistanceRegular", (), ("forced",)))
        code, out, _ = run(capsys, "survey", "--n", "2")
        assert code == EXIT_CROSS_CHECK
        assert "CROSS-CHECK FAILURES" in out
        code, _, _ = run(capsys, "survey", "--n", "2", "--format", "csv")
        assert code == EXIT_CROSS_CHECK
        spec = "n=2; R=1,3; T=0,1,2,3"
        code, out, _ = run(capsys, "survey", "--n", "2", "--format", "json")
        assert code == EXIT_CROSS_CHECK
        records = json.loads(out)["surveys"][0]["cross_check_failures"]
        assert next(r for r in records if r["spec"] == spec) == {
            "spec": spec, "bfs_drg": True,
            "classifier_tag": "NotDistanceRegular",
            "classifier_evidence": ["forced"],
            "intersection_array": {"b": [6, 1], "c": [1, 6]},
            "witness": None}
        code, out, _ = run(capsys, "check", "--format", "json", spec)
        assert code == EXIT_CROSS_CHECK
        assert json.loads(out)["cross_check_failure"] is True
        code, out, _ = run(capsys, "check", "--format", "text", spec)
        assert code == EXIT_CROSS_CHECK
        assert "CROSS-CHECK FAILURE: classifier disagrees with BFS\n" in out

    def test_forced_drg_record_carries_witness(self, capsys, monkeypatch):
        # the other direction: a classifier that calls everything complete
        monkeypatch.setattr(
            search, "classify",
            lambda spec: Classification("CompleteGraph", (4 * spec.n,),
                                        ("forced",)))
        code, out, _ = run(capsys, "survey", "--n", "2", "--format", "json")
        assert code == EXIT_CROSS_CHECK
        records = json.loads(out)["surveys"][0]["cross_check_failures"]
        record = next(r for r in records if r["spec"] == "n=2; R=2; T=0,1,2,3")
        assert record["bfs_drg"] is False
        assert record["intersection_array"] is None
        assert record["classifier_evidence"] == ["forced"]
        code, out, _ = run(capsys, "check", "--format", "json", record["spec"])
        assert code == EXIT_CROSS_CHECK
        assert record["witness"] == json.loads(out)["witness"] == {
            "u": 0, "v": 4, "distance": 1,
            "expected": [1, 4, 0], "found": [1, 2, 2]}


class TestSearchDS:
    def test_fano_json(self, capsys):
        code, out, _ = run(capsys, "search-ds", "--group", "cyclic",
                           "--order", "7", "--k", "3", "--lam", "1",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["difference_sets"] == [[0, 1, 3], [0, 1, 5]]

    def test_contradictory_parameters(self, capsys):
        code, _, err = run(capsys, "search-ds", "--group", "cyclic",
                           "--order", "7", "--k", "3", "--lam", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("order", ["0", "7"])
    def test_empty_set_is_usage_error(self, capsys, order):
        code, out, _ = run(capsys, "search-ds", "--group", "cyclic",
                           "--order", order, "--k", "0", "--lam", "0")
        assert code == EXIT_USAGE and out == ""

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_usage_error(self, capsys, monkeypatch, limit):
        def refuse(*args, **kwargs):
            raise AssertionError("built a group table for an invalid --limit")
        monkeypatch.setattr(classifier, "cyclic_table", refuse)
        code, out, err = run(capsys, "search-ds", "--group", "cyclic",
                             "--order", "7", "--k", "3", "--lam", "1",
                             "--limit", limit)
        assert code == EXIT_USAGE and out == ""
        assert "--limit" in err

    @pytest.mark.parametrize("kind", ["cyclic", "dicyclic"])
    def test_oversized_order_is_usage_error(self, capsys, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("built a group table despite the size bound")
        monkeypatch.setattr(classifier, "cyclic_table", refuse)
        monkeypatch.setattr(group, "multiplication_table", refuse)
        monkeypatch.setattr(search, "search_difference_sets", refuse)
        order = str(cli.MAX_DS_ORDER + 4)
        code, out, err = run(capsys, "search-ds", "--group", kind,
                             "--order", order, "--k", "3", "--lam", "1")
        assert code == EXIT_USAGE and out == ""
        assert f"stops at order {cli.MAX_DS_ORDER:,}" in err
        # the bound itself is accepted
        monkeypatch.setattr(classifier, "cyclic_table", lambda v: None)
        monkeypatch.setattr(group, "multiplication_table", lambda n: (None, None))
        monkeypatch.setattr(search, "search_difference_sets", lambda *a, **k: [])
        code, _, _ = run(capsys, "search-ds", "--group", kind, "--order",
                         str(cli.MAX_DS_ORDER), "--k", "1", "--lam", "0")
        assert code == EXIT_OK

    @pytest.mark.parametrize("order, lam, message", [
        ("9" * 4300, "1", "stops at order 1,024"),
        ("7", "9" * 4300, "k(k-1) = 6 != lam(v-1) = 9999")],
        ids=["order", "lam"])
    def test_far_oversized_number_is_usage_error(self, capsys, monkeypatch,
                                                 order, lam, message):
        # 4,300 digits, as many as CPython converts between int and str
        # by default; the size or product named in the message has more
        def refuse(*args, **kwargs):
            raise AssertionError("built a group table despite the bounds")
        monkeypatch.setattr(classifier, "cyclic_table", refuse)
        monkeypatch.setattr(search, "search_difference_sets", refuse)
        code, out, err = run(capsys, "search-ds", "--group", "cyclic",
                             "--order", order, "--k", "3", "--lam", lam)
        assert code == EXIT_USAGE and out == ""
        assert message in err

    @pytest.mark.parametrize("kind", ["cyclic", "dicyclic"])
    @pytest.mark.parametrize("k, lam, message", [("3", "1", "k(k-1)"),
                                                 ("0", "0", "1 <= k <= v")])
    def test_parameters_checked_before_table(self, capsys, monkeypatch, kind,
                                             k, lam, message):
        def refuse(*args, **kwargs):
            raise AssertionError("built a group table for impossible parameters")
        monkeypatch.setattr(classifier, "cyclic_table", refuse)
        monkeypatch.setattr(group, "multiplication_table", refuse)
        monkeypatch.setattr(classifier, "validate_group_table", refuse)
        code, out, err = run(capsys, "search-ds", "--group", kind,
                             "--order", "1024", "--k", k, "--lam", lam)
        assert code == EXIT_USAGE and out == ""
        assert message in err

    @pytest.mark.parametrize("order", ["1", "7"])
    def test_negative_lambda_is_usage_error(self, capsys, monkeypatch, order):
        def refuse(*args, **kwargs):
            raise AssertionError("built a group table for a negative lambda")
        monkeypatch.setattr(classifier, "cyclic_table", refuse)
        code, out, err = run(capsys, "search-ds", "--group", "cyclic",
                             "--order", order, "--k", "1", "--lam", "-3")
        assert code == EXIT_USAGE and out == ""
        assert "lam >= 0" in err

    @pytest.mark.parametrize("k, lam, limit", [
        ("1023", "1022", ["--limit", "1"]), ("1023", "1022", []),
        ("1024", "1024", ["--limit", "1"]), ("1024", "1024", [])],
        ids=["v-1-limit", "v-1", "v-limit", "v"])
    def test_k_at_least_order_minus_one_at_the_bound(self, capsys, k, lam, limit):
        # one class, the least k-set, without a search as deep as k
        code, out, _ = run(capsys, "search-ds", "--group", "cyclic", "--order",
                           "1024", "--k", k, "--lam", lam, "--format", "json",
                           *limit)
        assert code == EXIT_OK
        assert json.loads(out)["difference_sets"] == [list(range(int(k)))]

    def test_limit_keeps_the_quotient_path(self, capsys):
        # Dic_14 has no multiplier map; the cosets of its centre show
        # that no (56, 11, 2) set exists, and --limit keeps that path
        code, out, _ = run(capsys, "search-ds", "--group", "dicyclic",
                           "--order", "56", "--k", "11", "--lam", "2",
                           "--limit", "1", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["difference_sets"] == []

    def test_dicyclic_order_must_be_multiple_of_four(self, capsys):
        code, _, err = run(capsys, "search-ds", "--group", "dicyclic",
                           "--order", "6", "--k", "3", "--lam", "1")
        assert code == EXIT_USAGE
        assert "order 4n" in err


class TestFourier:
    def test_json_complex_pairs(self, capsys):
        code, out, _ = run(capsys, "fourier", "--format", "json",
                           "n=2; R=1,3; T=0,2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(len(z) == 2 for z in payload["dft_R"])
        # F Delta_R(0) = |R|
        assert payload["dft_R"][0] == [2, 0]
        assert {"order": 4, "members": [1, 3]} in payload["unit_orbits"]
        assert payload["fourier_lemma_ok"] is True

    def test_tolerance_is_an_unknown_flag(self, capsys):
        for argv in (["survey", "--n", "1", "--tolerance", "1e-9"],
                     ["fourier", "--tolerance", "1e-9", "n=2; R=1,3; T=0,2"]):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE and out == "", argv
            assert "unrecognized arguments" in err, argv

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE


SPEC = "n=2; R=1,3; T=0,1,2,3"
DS_ARGS = ["search-ds", "--group", "cyclic", "--order", "7", "--k", "3",
           "--lam", "1"]
# Each pair is a call followed by one that could see what the first left in
# a shared parser: a flag, an error, a non-default format, an option value.
PARSER_REUSE_CALLS = [
    ["survey", "--no-dedup", "--n", "2"], ["survey", "--n", "2"],
    ["survey", "--n", "2", "--n-range", "1..2"], ["check", SPEC],
    ["check", "--n", "2"], ["check", SPEC],
    ["check", "--format", "json", SPEC], ["check", SPEC],
    ["survey", "--format", "csv", "--n", "1"], ["survey", "--n", "1"],
    DS_ARGS + ["--limit", "1"], DS_ARGS,
]


@pytest.mark.parametrize("argv", [["check", SPEC], ["classify", SPEC],
                                  ["fourier", SPEC], DS_ARGS],
                         ids=lambda argv: argv[0])
def test_csv_format_is_survey_only(capsys, argv):
    code, out, err = run(capsys, *argv[:1], "--format", "csv", *argv[1:])
    assert code == EXIT_USAGE and out == "", argv
    assert "invalid choice: 'csv'" in err, argv


def test_shared_parser_matches_fresh_parser(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting_build():
        builds.append(1)
        return build_parser()
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    shared = [run(capsys, *argv) for argv in PARSER_REUSE_CALLS]
    assert len(builds) == 1
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_parser", counting_build)
    fresh = [run(capsys, *argv) for argv in PARSER_REUSE_CALLS]
    assert len(builds) == 1 + len(PARSER_REUSE_CALLS)
    codes = [code for code, _, _ in shared]
    assert codes == [EXIT_OK] * 2 + [EXIT_USAGE, EXIT_OK] * 2 + [EXIT_OK] * 6
    for argv, got, want in zip(PARSER_REUSE_CALLS, shared, fresh):
        assert got == want, argv


def test_cli_import_stays_light():
    # the CLI needs neither a process pool nor networkx to start
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import dicirculant.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing', 'networkx'}"
            " & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


def test_python_m_runs_the_cli(capsys):
    # `python -m dicirculant` is cli.main: same stdout, same exit code
    argv = ["search-ds", "--group", "cyclic", "--order", "7", "--k", "3",
            "--lam", "1", "--format", "json"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "dicirculant", *argv],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == run(capsys, *argv)[:2]
    assert result.returncode == EXIT_OK


NETWORKX_FREE_CALLS = [
    ["survey", "--n-range", "1..5", "--format", "json"],
    ["check", SPEC],
    ["classify", SPEC],
    ["fourier", SPEC],
]


def test_runs_without_networkx(capsys):
    # networkx is no dependency: with its import blocked, every command
    # prints what a normal run prints and exits the same way
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (f"import contextlib, io, json, sys; sys.path.insert(0, {src!r}); "
            "sys.modules['networkx'] = None; from dicirculant import cli\n"
            "results = []\n"
            f"for argv in {NETWORKX_FREE_CALLS!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        results.append([cli.main(argv), out.getvalue()])\n"
            "print(json.dumps(results))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    blocked = json.loads(result.stdout)
    normal = [list(run(capsys, *argv)[:2]) for argv in NETWORKX_FREE_CALLS]
    assert blocked == normal
    assert [code for code, _ in normal] == [EXIT_OK] * 4


def quiet_main(argv):
    """main(argv) with its stdout and stderr captured: (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


VALID_SPECS = [repr(spec) for n in range(1, 5)
               for spec in search.enumerate_specs(n, dedup=False)]
# Up to 6,000 digits: beyond the 4,300 that CPython converts by default
DIGIT_RUNS = st.builds(lambda head, k: head + "9" * k,
                       st.text("0123456789", min_size=1, max_size=10),
                       st.integers(0, 6000))
SPEC_TEXTS = st.one_of(
    st.text(max_size=40),
    st.sampled_from(VALID_SPECS),
    st.builds(str.format, st.sampled_from(["n={}; R=1; T=0", "n=2; R={}; T=0,2",
                                           "n=2; R=2; T=0,2,{}", "n={}; R=; T=",
                                           "{}"]), DIGIT_RUNS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(["check", "classify", "fourier"]),
       fmt=st.sampled_from(["json", "text"]), spec=SPEC_TEXTS)
def test_spec_commands_exit_zero_or_two(command, fmt, spec):
    code, out = quiet_main([command, "--format", fmt, spec])
    assert code in (EXIT_OK, EXIT_USAGE)
    assert code == EXIT_OK or out == ""


OUT_OF_RANGE_N = st.one_of(st.integers(max_value=0).map(str),
                           st.integers(min_value=cli.MAX_SURVEY_N + 1).map(str),
                           DIGIT_RUNS.map(lambda d: "14" + d))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(option=st.sampled_from(["--n", "--n-range"]), n=OUT_OF_RANGE_N,
       low=st.integers(-3, 20), no_dedup=st.booleans(),
       fmt=st.sampled_from(["json", "csv", "text"]))
def test_out_of_range_survey_exits_two(option, n, low, no_dedup, fmt):
    def refuse(*args, **kwargs):
        raise AssertionError("surveyed an out-of-range n")
    argv = ["survey", option, n if option == "--n" else f"{low}..{n}",
            "--format", fmt] + ["--no-dedup"] * no_dedup
    with pytest.MonkeyPatch.context() as patch:
        for name in ("survey", "survey_rows", "enumerate_specs"):
            patch.setattr(search, name, refuse)
        assert quiet_main(argv) == (EXIT_USAGE, "")


@pytest.mark.parametrize("argv", [
    ["check", "--format", "json", "n=4; R=1,7; T=1,5"],
    ["check", "--format", "text", SPEC],
    ["classify", "--format", "json", SPEC],
    ["classify", "--format", "text", "n=4; R=1,7; T=1,5"],
    ["fourier", "--format", "json", SPEC],
    ["fourier", "--format", "text", SPEC],
    ["survey", "--format", "json", "--n-range", "1..3"],
    ["survey", "--format", "csv", "--n-range", "1..3"],
    ["survey", "--format", "text", "--n-range", "1..3"],
    DS_ARGS + ["--format", "json"],
    DS_ARGS + ["--format", "text"],
], ids=lambda argv: "-".join(argv[:3]))
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()
