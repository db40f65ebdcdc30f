import csv
import json
from fractions import Fraction
from math import comb

import pytest

from propconn import cli, families, formulas
from propconn.cli import (EXIT_DISCREPANCY, EXIT_INFEASIBLE, EXIT_OK,
                          EXIT_USAGE, main)
from propconn.enumeration import MAX_CANONICAL_VERTICES
from propconn.formats import parse_graph6, serialize_edge_list
from propconn.graph import MAX_VERTICES, path
from propconn.solver import (MAX_EDGE_SOLVER_VERTICES,
                             MAX_VERTEX_SOLVER_VERTICES, copec_value)

from conftest import forget_family_profiles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_complete(capsys):
    code, out, _ = run(capsys, "formula", "--class", "complete", "--n", "5",
                       "--r", "1/2", "--mode", "vertex")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["value"] == 3
    assert report["inputs"]["r"] == "1/2"


def test_formula_cycle_reports_both_variants(capsys):
    expected = {
        "vertex": ("cycle_vertex_original_order", 3,
                   {"cycle_vertex_original_order": 3,
                    "cycle_vertex_reduced_order": 4}),
        "edge": ("cycle_edge_arc_cover", 4,
                 {"cycle_edge_arc_cover": 4, "cycle_edge_path_reduction": 4}),
    }
    for mode, (method, value, variants) in expected.items():
        code, out, _ = run(capsys, "formula", "--class", "cycle", "--n", "8",
                           "--r", "1/4", "--mode", mode)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["variants"] == variants
        assert report["method"] == method and report["value"] == value
    code, out, _ = run(capsys, "formula", "--class", "complete-bipartite",
                       "--a", "2", "--b", "3", "--r", "1/2", "--mode", "edge")
    assert code == EXIT_USAGE and out == ""


def test_compute_path_witness(tmp_path, capsys):
    graph_file = tmp_path / "p4.el"
    graph_file.write_text(serialize_edge_list(path(4)))
    code, out, _ = run(capsys, "compute", "--graph", str(graph_file),
                       "--r", "1/2", "--mode", "vertex", "--witness")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["value"] == 1 and report["witness"] == [1]


def test_compute_method_names_the_algorithm_that_ran(tmp_path, capsys):
    graph_file = tmp_path / "p4.el"
    graph_file.write_text(serialize_edge_list(path(4)))
    methods = {}
    for mode in ("vertex", "edge"):
        code, out, _ = run(capsys, "compute", "--graph", str(graph_file),
                           "--r", "1/2", "--mode", mode, "--witness")
        assert code == EXIT_OK
        report = json.loads(out)
        methods[mode] = report["method"]
    assert methods == {"vertex": "branch-and-bound", "edge": "partition-dp"}
    assert report["value"] == 1 and report["witness"] == [[1, 2]]


def test_compute_edge_over_solver_limit_exit_code(tmp_path, capsys):
    graph_file = tmp_path / "long-path.el"
    graph_file.write_text(serialize_edge_list(path(MAX_EDGE_SOLVER_VERTICES + 1)))
    code, out, err = run(capsys, "compute", "--graph", str(graph_file),
                         "--r", "1/2", "--mode", "edge")
    assert code == EXIT_USAGE
    assert out == "" and "edge solver bound" in err


def test_compute_vertex_over_solver_limit_exit_code(tmp_path, capsys):
    graph_file = tmp_path / "long-path.el"
    graph_file.write_text(
        serialize_edge_list(path(MAX_VERTEX_SOLVER_VERTICES + 1)))
    code, out, err = run(capsys, "compute", "--graph", str(graph_file),
                         "--r", "1/2", "--mode", "vertex")
    assert code == EXIT_USAGE
    assert out == "" and "vertex solver bound" in err


def test_compute_infeasible_exit_code(tmp_path, capsys):
    graph_file = tmp_path / "k1.el"
    graph_file.write_text("n 1\n")
    code, out, err = run(capsys, "compute", "--graph", str(graph_file),
                         "--r", "1/2", "--mode", "edge")
    assert code == EXIT_INFEASIBLE
    assert json.loads(out)["infeasible"] is True
    assert "infeasible" in err
    code, out, _ = run(capsys, "compute", "--graph", str(graph_file),
                       "--r", "1/2", "--mode", "edge", "--witness")
    assert code == EXIT_INFEASIBLE
    assert json.loads(out)["witness"] == []


def test_edge_statistics_at_zero_threshold_exit_infeasible(tmp_path, capsys):
    # floor(3/4) = 0: edge removal cannot shrink order-1 components, so the
    # edge statistics are refused up front with compute's reason
    graph_file = tmp_path / "k1.el"
    graph_file.write_text("n 1\n")
    _, _, reason = run(capsys, "compute", "--graph", str(graph_file),
                       "--r", "1/2", "--mode", "edge")
    out_file = tmp_path / "scan.csv"
    for stat in ("coemin", "coemax"):
        for extra in ((), ("--enumerate",)):
            code, out, err = run(capsys, "extremal", "--n", "3", "--m", "1",
                                 "--r", "1/4", "--stat", stat, *extra)
            assert (code, err) == (EXIT_INFEASIBLE, reason)
            report = json.loads(out)
            assert report["infeasible"] is True
            assert report["inputs"]["stat"] == stat
            assert (report["value"], report["method"]) == (None, None)
            code, out, err = run(capsys, "scan", "--n", "3", "--r", "1/4",
                                 "--stat", stat, "--all-m", *extra,
                                 "--out", str(out_file))
            assert (code, out, err) == (EXIT_INFEASIBLE, "", reason)
            assert not out_file.exists()
    # the vertex statistics keep their answers at floor(r*n) = 0: every
    # vertex must go
    for stat, method in (("covmin", "formula"), ("covmax", "tail")):
        code, out, err = run(capsys, "extremal", "--n", "3", "--m", "1",
                             "--r", "1/4", "--stat", stat)
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert (report["value"], report["method"]) == (3, method)


def test_vertex_statistics_at_zero_threshold_match_enumeration(tmp_path,
                                                               capsys):
    # floor(3/4) = 0: every graph of G(3, m) has vertex value 3, and the
    # covmin witness, the first m pairs of K_3, is the enumeration's
    for stat in ("covmin", "covmax"):
        code, out, err = run(capsys, "extremal", "--n", "3", "--m", "1",
                             "--r", "1/4", "--stat", stat, "--enumerate")
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert report["value"] == report["enumeration"]["value"] == 3
        assert report["discrepancies"] == []
        if stat == "covmin":
            assert report["witness"] == report["enumeration"]["witness"]
        rows = {}
        for extra in ((), ("--enumerate",)):
            out_file = tmp_path / f"scan-{stat}-{len(extra)}.csv"
            code, _, err = run(capsys, "scan", "--n", "3", "--r", "1/4",
                               "--stat", stat, "--all-m", "--witness", *extra,
                               "--out", str(out_file))
            assert (code, err) == (EXIT_OK, "")
            with open(out_file, newline="") as handle:
                rows[extra] = list(csv.DictReader(handle))
        assert [row["value"] for row in rows["--enumerate",]] == ["3"] * 4
        assert [row["value"] for row in rows[()]] == ["3"] * 4
        if stat == "covmin":
            assert ([row["witness_graph6"] for row in rows[()]]
                    == [row["witness_graph6"] for row in rows["--enumerate",]])


def test_compute_rejects_decimal_ratio(tmp_path, capsys):
    graph_file = tmp_path / "p4.el"
    graph_file.write_text(serialize_edge_list(path(4)))
    code, _, err = run(capsys, "compute", "--graph", str(graph_file),
                       "--r", "0.5", "--mode", "vertex")
    assert code == EXIT_USAGE


def test_extremal_formula_and_enumeration(capsys):
    code, out, _ = run(capsys, "extremal", "--n", "6", "--m", "10",
                       "--r", "1/2", "--stat", "coemin")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["value"] == 4 and report["method"] == "formula"
    code, out, _ = run(capsys, "extremal", "--n", "5", "--m", "6",
                       "--r", "1/2", "--stat", "covmax", "--enumerate")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["method"] == "enumeration"
    witness = parse_graph6(report["enumeration"]["witness"])
    assert witness.n == 5 and witness.m == 6


# Closed-form witnesses as printed without --enumerate, recorded from the
# implementation they pin: covmin with k = 0 and k >= 1 dominating vertices,
# coemin below and above max_failure_edges (12 at (8, 1/2), 9 at (n, 1/3)).
@pytest.mark.parametrize("stat, n, m, r, value, witness", [
    ("covmin", 8, 10, "1/2", 0, "G@KyEC"),
    ("covmin", 7, 9, "1/2", 1, "F?C^w"),
    ("covmin", 9, 24, "1/3", 3, "H?C^~~~"),
    ("covmin", 10, 30, "1/3", 3, "I@LAN~~~w"),
    ("coemin", 8, 10, "1/2", 0, "G@KyEC"),
    ("coemin", 10, 5, "1/3", 0, "I????CBB?"),
    ("coemin", 9, 24, "1/3", 15, "HJ]CN~~"),
    ("coemin", 10, 30, "1/3", 21, "I@LAN~~~w"),
])
def test_closed_form_witnesses_are_pinned(capsys, stat, n, m, r, value,
                                          witness):
    code, out, _ = run(capsys, "extremal", "--n", str(n), "--m", str(m),
                       "--r", r, "--stat", stat)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["method"] == "formula"
    assert (report["value"], report["witness"]) == (value, witness)


def test_scan_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--n", "5", "--r", "1/2",
                       "--stat", "coemin", "--all-m", "--out", str(out_file),
                       "--witness")
    assert code == EXIT_OK
    with open(out_file, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 11
    assert rows[0].keys() == {"n", "m", "r", "stat", "value", "method",
                              "witness_graph6"}
    for row in rows:
        assert row["r"] == "1/2" and row["method"] == "formula"
        witness = parse_graph6(row["witness_graph6"])
        assert witness.m == int(row["m"])
        assert copec_value(witness, 2) == int(row["value"])


def test_scan_tail_leaves_unknown_blank(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--n", "6", "--r", "1/2",
                     "--stat", "covmax", "--all-m", "--out", str(out_file))
    assert code == EXIT_OK
    with open(out_file, newline="") as handle:
        rows = {int(row["m"]): row for row in csv.DictReader(handle)}
    assert rows[2]["value"] == "0" and rows[2]["method"] == "tail"
    assert rows[8]["value"] == "" and rows[8]["method"] == "unknown"
    assert rows[15]["value"] == "3" and rows[15]["method"] == "tail"


def test_closed_form_over_canonical_bound_exits_before_writing(tmp_path,
                                                               capsys):
    # Only a printed witness needs a canonical search; the values are
    # arithmetic, so a value-only scan runs up to the graph order bound.
    n = str(MAX_CANONICAL_VERTICES + 1)
    out_file = tmp_path / "scan.csv"
    for stat in ("covmin", "coemin"):
        code, out, err = run(capsys, "extremal", "--n", n, "--m", "0",
                             "--r", "1/2", "--stat", stat)
        assert code == EXIT_USAGE
        assert out == "" and "canonical search supports" in err
        code, out, err = run(capsys, "scan", "--n", n, "--r", "1/2",
                             "--stat", stat, "--all-m", "--witness",
                             "--out", str(out_file))
        assert code == EXIT_USAGE
        assert out == "" and "canonical search supports" in err
        assert not out_file.exists()
        for order in (MAX_CANONICAL_VERTICES + 1, MAX_VERTICES):
            code, out, err = run(capsys, "scan", "--n", str(order),
                                 "--r", "1/2", "--stat", stat, "--all-m",
                                 "--out", str(out_file))
            assert code == EXIT_OK and err == ""
            with open(out_file, newline="") as handle:
                rows = list(csv.DictReader(handle))
            out_file.unlink()
            assert len(rows) == comb(order, 2) + 1
            closed_form = getattr(families, stat)
            for m, row in enumerate(rows):
                assert int(row["m"]) == m and row["method"] == "formula"
                assert int(row["value"]) == closed_form(order, m,
                                                        Fraction(1, 2))
                assert row["witness_graph6"] == ""


def test_scan_over_graph_order_bound_exits_before_writing(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    for stat in ("covmin", "coemin", "covmax", "coemax"):
        code, out, err = run(capsys, "scan", "--n", str(MAX_VERTICES + 1),
                             "--r", "1/2", "--stat", stat, "--all-m",
                             "--out", str(out_file))
        assert code == EXIT_USAGE
        assert out == "" and "graph order bound" in err
        assert not out_file.exists()
        # extremal refuses the same orders up front, tails included
        code, out, err = run(capsys, "extremal", "--n", str(MAX_VERTICES + 1),
                             "--m", "0", "--r", "1/2", "--stat", stat)
        assert code == EXIT_USAGE
        assert out == "" and "graph order bound" in err


def test_closed_form_witnesses_are_built_only_where_printed(
        tmp_path, capsys, monkeypatch):
    # An enumerated scan prints the enumeration's witnesses, and a scan
    # without --witness prints none; only a closed-form --witness scan
    # canonicalizes the closed-form witness of each of its C(6, 2) + 1 rows.
    searches = []
    search = families.canonical_graph

    def counted(g):
        searches.append(g)
        return search(g)

    monkeypatch.setattr(families, "canonical_graph", counted)
    out_file = str(tmp_path / "scan.csv")
    for stat in ("covmin", "coemin"):
        for flags, expected in ((("--enumerate", "--witness"), 0),
                                ((), 0), (("--witness",), 16)):
            searches.clear()
            code, _, _ = run(capsys, "scan", "--n", "6", "--r", "1/2",
                             "--stat", stat, "--all-m", "--out", out_file,
                             *flags)
            assert code == EXIT_OK
            assert len(searches) == expected, (stat, flags)


def test_all_m_sweeps_report_the_per_m_results_in_ascending_m(
        tmp_path, capsys, monkeypatch):
    # The sweeps solve from the top level down; each must still report, in
    # ascending m, what one-level commands report from fresh caches.  A
    # coemin closed form off by one at odd m makes the mismatch lines and
    # exit code 3 part of the comparison.
    coemin = families.coemin

    def skewed(n, m, r):
        return coemin(n, m, r) + 1 if m % 2 else coemin(n, m, r)

    monkeypatch.setattr(families, "coemin", skewed)
    levels = range(16)
    conjectures = (("--name", "equal-partition", "--k", "2"),
                   ("--name", "equal-partition", "--k", "3"),
                   ("--name", "coemax-bound"))
    forget_family_profiles(monkeypatch)
    scans = {}
    for stat in ("coemin", "covmax", "coemax"):
        out_file = tmp_path / f"scan-{stat}.csv"
        code, _, err = run(capsys, "scan", "--n", "6", "--r", "1/3",
                           "--stat", stat, "--all-m", "--enumerate",
                           "--witness", "--out", str(out_file))
        with open(out_file, newline="") as handle:
            scans[stat] = (code, list(csv.DictReader(handle)), err)
    sweeps = {}
    for name in conjectures:
        code, out, _ = run(capsys, "conjecture", *name, "--n", "6", "--all-m")
        assert code == EXIT_OK
        sweeps[name] = json.loads(out)

    forget_family_profiles(monkeypatch)
    for stat, (code, rows, err) in scans.items():
        expected_code, expected_rows, expected_err = EXIT_OK, [], ""
        for m in levels:
            m_code, out, _ = run(capsys, "extremal", "--n", "6", "--m", str(m),
                                 "--r", "1/3", "--stat", stat, "--enumerate")
            report = json.loads(out)
            expected_code = max(expected_code, m_code)
            expected_rows.append({
                "n": "6", "m": str(m), "r": "1/3", "stat": stat,
                "value": str(report["enumeration"]["value"]),
                "method": "enumeration",
                "witness_graph6": report["enumeration"]["witness"]})
            for d in report["discrepancies"]:
                expected_err += (f"mismatch at m={m}: formula {d['formula']}, "
                                 f"enumeration {d['enumeration']}\n")
        assert (code, rows, err) == (expected_code, expected_rows,
                                     expected_err), stat
    assert scans["coemin"][0] == EXIT_DISCREPANCY
    assert scans["coemin"][2].count("mismatch") == 8
    for name, verdicts in sweeps.items():
        per_m = []
        for m in levels:
            code, out, _ = run(capsys, "conjecture", *name, "--n", "6",
                               "--m", str(m))
            assert code == EXIT_OK
            per_m += json.loads(out)
        assert verdicts == per_m, name


def test_verify_exits_clean_on_proven_formulas(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "7",
                       "--r-grid", "1/4,1/3,1/2,2/3,3/4")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["failed_proven"] == []
    assert report["checked"] > 100
    # the reduced-order cycle variant mismatches are reported, not fatal
    assert any(w["formula"] == "cycle_vertex_reduced_order"
               for w in report["reported_variants"])
    assert report["piecewise_mismatches"]


def test_verify_entries_are_pinned(capsys):
    # README's adjudication table: which instances verify checks is decided
    # by the closed forms' own domains, and these counts and labels pin it.
    # The piecewise cross-check covers every n up to --n-max.
    code, out, _ = run(capsys, "verify", "--n-max", "10",
                       "--r-grid", "1/4,1/3,1/2,2/3,3/4")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["checked"] == 371 and report["failed_proven"] == []
    assert len(report["piecewise_mismatches"]) == 244
    code, out, _ = run(capsys, "verify", "--n-max", "8",
                       "--r-grid", "1/4,1/3,1/2,2/3,3/4")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["checked"] == 266 and report["failed_proven"] == []
    assert len(report["piecewise_mismatches"]) == 113
    assert [w["instance"] for w in report["reported_variants"]] == [
        "cycle(n=4, r=1/4, vertex)", "cycle(n=8, r=1/4, vertex)",
        "cycle(n=3, r=1/3, vertex)", "cycle(n=6, r=1/3, vertex)",
        "cycle(n=3, r=2/3, vertex)", "cycle(n=3, r=3/4, vertex)",
        "cycle(n=4, r=3/4, vertex)"]
    assert {w["formula"] for w in report["reported_variants"]} == {
        "cycle_vertex_reduced_order"}


def test_verify_exits_3_when_a_settled_formula_disagrees(capsys, monkeypatch):
    def off_by_one(n, r):
        result = formulas.copvc_path(n, r)
        return result._replace(value=result.value + 1)

    monkeypatch.setitem(formulas.FORMULAS, ("path", "vertex"), (off_by_one,))
    code, out, err = run(capsys, "verify", "--n-max", "4", "--r-grid", "1/2")
    assert code == EXIT_DISCREPANCY
    failed = json.loads(out)["failed_proven"]
    assert failed[0]["instance"] == "path(n=2, r=1/2, vertex)"
    assert "3 settled formula(s) disagree with the exact solver" in err


def test_verify_rejects_n_max_over_edge_solver_bound(capsys):
    n_max = str(MAX_EDGE_SOLVER_VERTICES + 1)
    code, out, err = run(capsys, "verify", "--n-max", n_max, "--r-grid", "1/2")
    assert code == EXIT_USAGE
    assert out == "" and f"--n-max {n_max} exceeds the edge solver bound" in err
    # with floor(r * n_max) = 0 no edge entry runs, so the same n_max is fine
    code, out, _ = run(capsys, "verify", "--n-max", n_max, "--r-grid", "1/20")
    assert code == EXIT_OK and json.loads(out)["failed_proven"] == []


def test_verify_rejects_n_max_over_graph_order_bound(capsys):
    # floor(r * n) = 0 through n = 99, so the edge bound does not apply and
    # only the order bound of every solver input stands in the way.
    n_max = str(MAX_VERTICES + 1)
    code, out, err = run(capsys, "verify", "--n-max", n_max, "--r-grid", "1/100")
    assert code == EXIT_USAGE
    assert out == "" and f"--n-max {n_max} exceeds the graph order bound" in err
    code, out, _ = run(capsys, "verify", "--n-max", str(MAX_VERTICES),
                       "--r-grid", "1/100")
    assert code == EXIT_OK and json.loads(out)["failed_proven"] == []


def test_conjecture_equal_partition_k_below_two_usage_error(capsys):
    for k in ("1", "0", "-2"):
        code, out, err = run(capsys, "conjecture", "--name", "equal-partition",
                             "--n", "4", "--k", k, "--all-m")
        assert code == EXIT_USAGE
        assert out == "" and "error" in err


def test_conjecture_equal_partition_single_m(capsys):
    code, out, _ = run(capsys, "conjecture", "--name", "equal-partition",
                       "--n", "4", "--k", "2", "--m", "4")
    assert code == EXIT_OK
    verdicts = json.loads(out)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v["r"] == "1/2" and isinstance(v["holds"], bool)
    if v["witness_graph6"]:
        assert parse_graph6(v["witness_graph6"]).n == 4


def test_conjecture_coemax_bound_all_m(capsys):
    code, out, _ = run(capsys, "conjecture", "--name", "coemax-bound",
                       "--n", "4", "--all-m")
    assert code == EXIT_OK
    verdicts = json.loads(out)
    assert len(verdicts) == 7
    assert all(v["name"] == "coemax_upper_bound" for v in verdicts)


def test_conjecture_odd_n_usage_error(capsys):
    code, _, err = run(capsys, "conjecture", "--name", "coemax-bound",
                       "--n", "5", "--m", "4")
    assert code == EXIT_USAGE


def test_unknown_flag_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run(capsys, "formula", "--class", "complete", "--n", "5",
                       "--r", "1/2", "--mode", "vertex", "--bogus")
    assert code == EXIT_USAGE


def test_missing_file_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--graph", "/nonexistent.el",
                       "--r", "1/2", "--mode", "vertex")
    assert code == EXIT_USAGE and err


def test_main_builds_its_parser_once_and_keeps_no_state_between_calls(
        tmp_path, capsys):
    graph_file = tmp_path / "p5.el"
    graph_file.write_text(serialize_edge_list(path(5)))
    long_file = tmp_path / "long-path.el"
    long_file.write_text(serialize_edge_list(path(MAX_EDGE_SOLVER_VERTICES + 1)))
    csv_file = tmp_path / "scan.csv"
    calls = [
        ["compute", "--graph", str(graph_file), "--r", "1/2",
         "--mode", "vertex", "--witness"],
        ["compute", "--graph", str(graph_file), "--r", "1/2", "--mode", "edge"],
        ["formula", "--class", "cycle", "--n", "8", "--r", "1/4",
         "--mode", "vertex"],
        ["extremal", "--n", "5", "--m", "6", "--r", "1/2", "--stat", "covmax",
         "--enumerate"],
        ["scan", "--n", "5", "--r", "1/2", "--stat", "coemin", "--all-m",
         "--out", str(csv_file), "--witness"],
        ["verify", "--n-max", "5", "--r-grid", "1/3,1/2"],
        # argparse usage errors: an unknown flag and a decimal ratio
        ["formula", "--class", "complete", "--n", "5", "--r", "1/2",
         "--mode", "vertex", "--bogus"],
        ["compute", "--graph", str(graph_file), "--r", "0.5",
         "--mode", "vertex"],
        # a usage error raised by the command, and a solver-limit ValueError
        ["formula", "--class", "complete-bipartite", "--b", "3",
         "--r", "1/2", "--mode", "vertex"],
        ["compute", "--graph", str(long_file), "--r", "1/2", "--mode", "edge"],
        # each side of the mutually exclusive group, then both together
        ["conjecture", "--name", "equal-partition", "--n", "4", "--m", "4"],
        ["conjecture", "--name", "equal-partition", "--n", "4", "--all-m"],
        ["conjecture", "--name", "equal-partition", "--n", "4", "--m", "4",
         "--all-m"],
    ]

    def call(argv):
        code, out, err = run(capsys, *argv)
        table = csv_file.read_text() if csv_file.exists() else None
        csv_file.unlink(missing_ok=True)
        return code, out, err, table

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    # Twice over, so that every call also follows every other one.
    cli._build_parser.cache_clear()
    shared = [call(argv) for argv in calls + calls]
    assert shared == fresh + fresh
    assert cli._build_parser.cache_info().misses == 1
    assert {code for code, *_ in fresh} == {EXIT_OK, EXIT_USAGE}
