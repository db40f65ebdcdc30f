"""Command-line surface tying the solver, formulas, family statistics, and
conjecture checkers together.

Exit codes: 0 success, 1 usage error (including an input over a solver's
size limit), 2 infeasible request (edge disconnection, or an edge family
statistic, at floor(r*n) = 0), 3 discrepancy in a settled formula.
Ratios are always written A/B; decimals are rejected so thresholds stay
exact.

``main(argv)`` may be called any number of times in one process.  It builds
its parser once, on the first call, and reuses it: parsing keeps no state
between calls, and errors go to ``sys.stderr`` as it is at each call.
"""

import argparse
import functools
import sys
from fractions import Fraction
from math import comb

from .graph import MAX_VERTICES, parse_proportion, threshold
from .solver import MAX_EDGE_SOLVER_VERTICES, copvc_exact, copec_exact
from .formulas import FORMULAS, ClassSpec, formula_vs_oracle, formulas_for
from . import families
from .bounds import check_coemax_upper_bound, check_equal_partition_conjecture
from .formats import (build_report, dump_report, encode_graph6, fraction_str,
                      parse_edge_list, witness_payload, write_scan_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DISCREPANCY = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _ratio(text: str) -> Fraction:
    try:
        return parse_proportion(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="propconn",
                     description="Exact proportional component-order "
                                 "connectivity of small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact solver on an edge-list graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--r", required=True, type=_ratio, metavar="A/B")
    p.add_argument("--mode", required=True, choices=["vertex", "edge"])
    p.add_argument("--witness", action="store_true",
                   help="include the minimum disconnecting set")

    p = sub.add_parser("formula", help="closed-form value for a graph class")
    p.add_argument("--class", dest="family", required=True,
                   choices=sorted({family.replace("_", "-")
                                   for family, _ in FORMULAS}))
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--r", required=True, type=_ratio, metavar="A/B")
    p.add_argument("--mode", required=True, choices=["vertex", "edge"])

    p = sub.add_parser("extremal", help="family statistic over G(n, m)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--r", required=True, type=_ratio, metavar="A/B")
    p.add_argument("--stat", required=True,
                   choices=["covmin", "coemin", "covmax", "coemax"])
    p.add_argument("--enumerate", dest="enumerate_", action="store_true",
                   help="also compute the enumeration ground truth")

    p = sub.add_parser("scan", help="full m-sweep of a family statistic to CSV")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--r", required=True, type=_ratio, metavar="A/B")
    p.add_argument("--stat", required=True,
                   choices=["covmin", "coemin", "covmax", "coemax"])
    p.add_argument("--all-m", action="store_true", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--enumerate", dest="enumerate_", action="store_true")
    p.add_argument("--witness", action="store_true",
                   help="fill the witness_graph6 column")

    p = sub.add_parser("verify", help="formula-vs-solver discrepancy suite")
    p.add_argument("--n-max", required=True, type=int)
    p.add_argument("--r-grid", required=True,
                   help="comma-separated ratios, e.g. 1/4,1/3,1/2")

    p = sub.add_parser("conjecture", help="family-maximum conjecture verdicts")
    p.add_argument("--name", required=True,
                   choices=["equal-partition", "coemax-bound"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", type=int, default=2,
                   help="component count for equal-partition (default 2)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--all-m", action="store_true")
    return parser


def _infeasible(report: dict | None = None) -> int:
    """Prints the report, if any, marked infeasible, and the reason."""
    if report is not None:
        report["infeasible"] = True
        print(dump_report(report))
    print("infeasible: floor(r*n) = 0, edge removal cannot shrink "
          "order-1 components", file=sys.stderr)
    return EXIT_INFEASIBLE


def _cmd_compute(args) -> int:
    with open(args.graph) as handle:
        g = parse_edge_list(handle.read())
    inputs = {"file": args.graph, "n": g.n, "m": g.m,
              "r": fraction_str(args.r), "mode": args.mode}
    if args.mode == "vertex":
        solve, method = copvc_exact, "branch-and-bound"
    else:
        solve, method = copec_exact, "partition-dp"
    witness = solve(g, args.r)
    report = build_report(
        "compute", inputs, witness.cardinality,
        witness=witness_payload(witness) if args.witness else None,
        method=method,
    )
    if witness.cardinality is None:
        return _infeasible(report)
    print(dump_report(report))
    return EXIT_OK


def _cmd_formula(args) -> int:
    spec = ClassSpec(args.family.replace("-", "_"), args.n, args.a, args.b)
    flags = ("a", "b") if len(spec.args) == 2 else ("n",)
    if None in spec.args:
        raise ValueError(f"class {args.family} needs "
                         + " and ".join(f"--{flag}" for flag in flags))
    inputs = {"class": args.family, "r": fraction_str(args.r),
              "mode": args.mode, **dict(zip(flags, spec.args))}
    results = formulas_for(spec, args.r, args.mode)
    report = build_report("formula", inputs, results[0].value,
                          method=results[0].formula_id)
    if len(results) > 1:
        report["variants"] = {f.formula_id: f.value for f in results}
    print(dump_report(report))
    return EXIT_OK


def _stat_feasible(stat: str, n: int, r: Fraction) -> bool:
    """Checked once, before any work: refuses n over the graph order bound;
    False for an edge statistic at floor(r*n) = 0."""
    if n > MAX_VERTICES:
        raise ValueError(f"--n {n} exceeds the graph order bound {MAX_VERTICES}")
    return stat not in ("coemin", "coemax") or threshold(r, n) >= 1


def _stat_value(stat: str, n: int, m: int, r: Fraction, enumerate_: bool):
    """(value, method, truth, mismatch, code) of a family statistic
    as ``extremal`` and ``scan`` report it: the closed form or tail value
    (None where unknown), the enumeration truth when asked for, and whether
    both are known and differ.  A mismatch exits with EXIT_DISCREPANCY only
    for covmin and coemin, whose closed forms are settled."""
    if stat in ("covmin", "coemin"):
        value, method = getattr(families, stat)(n, m, r), "formula"
    else:
        value = getattr(families, f"{stat}_tail")(n, m, r)
        method = "tail" if value is not None else "unknown"
    truth = families.extremal_by_enumeration(n, m, r, stat) if enumerate_ else None
    mismatch = truth is not None and value is not None and truth.value != value
    code = EXIT_DISCREPANCY if mismatch and stat in ("covmin", "coemin") else EXIT_OK
    return value, method, truth, mismatch, code


def _cmd_extremal(args) -> int:
    n, m, r, stat = args.n, args.m, args.r, args.stat
    inputs = {"n": n, "m": m, "r": fraction_str(r), "stat": stat}
    if not _stat_feasible(stat, n, r):
        return _infeasible(build_report("extremal", inputs, None))
    value, method, truth, mismatch, code = _stat_value(
        stat, n, m, r, args.enumerate_)
    report = build_report("extremal", inputs, value, method=method)
    if method == "formula":
        report["witness"] = encode_graph6(
            getattr(families, f"{stat}_witness")(n, m, r))
    if truth is not None:
        report["enumeration"] = {"value": truth.value,
                                 "witness": encode_graph6(truth.witness)}
        if mismatch:
            entry = {"stat": stat, "formula": value, "enumeration": truth.value}
            report["discrepancies"].append(entry)
        if value is None:
            report["value"] = truth.value
            report["method"] = "enumeration"
    print(dump_report(report))
    return code


def _cmd_scan(args) -> int:
    n, r, stat = args.n, args.r, args.stat
    ms = range(comb(n, 2) + 1)
    if not _stat_feasible(stat, n, r):
        return _infeasible()
    rows = []
    code = EXIT_OK
    # Solved from m = C(n, 2) down, so that each enumerated level, vertex
    # or edge, is bounded by the level above (see
    # enumeration.family_profile); reported in ascending m.
    results = [_stat_value(stat, n, m, r, args.enumerate_) for m in reversed(ms)]
    for m, (value, method, truth, mismatch, m_code) in zip(
            ms, reversed(results)):
        if mismatch:
            print(f"mismatch at m={m}: formula {value}, "
                  f"enumeration {truth.value}", file=sys.stderr)
        code = max(code, m_code)
        witness = None
        if truth is not None:
            value, method, witness = truth.value, "enumeration", truth.witness
        elif args.witness and method == "formula":
            witness = getattr(families, f"{stat}_witness")(n, m, r)
        rows.append({
            "n": n, "m": m, "r": fraction_str(r), "stat": stat,
            "value": "" if value is None else value,
            "method": method,
            "witness_graph6": encode_graph6(witness)
            if args.witness and witness is not None else "",
        })
    with open(args.out, "w", newline="") as handle:
        write_scan_csv(handle, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return code


def _verify_entries(n_max: int, grid: list[Fraction]):
    """The formula_vs_oracle entry of every candidate instance and mode on
    the grid that has a closed form (``formulas_for`` decides)."""
    for r in grid:
        for n in range(2, n_max + 1):
            candidates = [(ClassSpec(family, n=n), mode)
                          for mode in ("vertex", "edge")
                          for family in ("path", "cycle", "complete")]
            candidates += [(ClassSpec("complete_bipartite", a=a, b=n - a), mode)
                           for a in range(1, n // 2 + 1)
                           for mode in ("vertex", "edge")]
            for spec, mode in candidates:
                try:
                    formulas_for(spec, r, mode)
                except ValueError:
                    continue
                yield formula_vs_oracle(spec, r, mode)


def _cmd_verify(args) -> int:
    grid = [parse_proportion(tok) for tok in args.r_grid.split(",")]
    # Edge entries solve connected graphs of every order n <= n_max with
    # floor(r*n) >= 1; refuse up front the runs that would reach n > bound.
    if args.n_max > MAX_EDGE_SOLVER_VERTICES and any(
            threshold(r, args.n_max) >= 1 for r in grid):
        raise ValueError(f"--n-max {args.n_max} exceeds the edge solver "
                         f"bound {MAX_EDGE_SOLVER_VERTICES} for this r-grid")
    if args.n_max > MAX_VERTICES:
        raise ValueError(f"--n-max {args.n_max} exceeds the graph order "
                         f"bound {MAX_VERTICES}")
    failed = []
    warned = []
    checked = 0
    for entry in _verify_entries(args.n_max, grid):
        checked += 1
        label = (f"{entry.spec.family}"
                 f"(n={entry.spec.order}, r={fraction_str(entry.r)}, {entry.mode})")
        if entry.failed_proven:
            failed.append({"instance": label, "oracle": entry.oracle,
                           "formulas": {c.formula_id: c.value for c in entry.checks}})
        for check in entry.checks:
            if not check.proven and not check.matches_oracle:
                warned.append({"instance": label, "formula": check.formula_id,
                               "value": check.value, "oracle": entry.oracle})
    piecewise = []
    for r in grid:
        for n in range(2, args.n_max + 1):
            if threshold(r, n) < 1:
                continue
            for m in range(comb(n, 2) + 1):
                scan = families.covmin(n, m, r)
                alt = families.covmin_piecewise_crosscheck(n, m, r)
                if alt != scan:
                    piecewise.append({"n": n, "m": m, "r": fraction_str(r),
                                      "scan": scan, "piecewise": alt})
    report = {
        "command": "verify",
        "inputs": {"n_max": args.n_max,
                   "r_grid": [fraction_str(r) for r in grid]},
        "checked": checked,
        "failed_proven": failed,
        "reported_variants": warned,
        "piecewise_mismatches": piecewise,
    }
    print(dump_report(report))
    if failed:
        print(f"{len(failed)} settled formula(s) disagree with the exact "
              f"solver", file=sys.stderr)
        return EXIT_DISCREPANCY
    return EXIT_OK


def _verdict_payload(v) -> dict:
    return {
        "name": v.name,
        "n": v.n,
        "m": v.m,
        "r": fraction_str(v.r),
        "holds": v.holds,
        "lhs": v.lhs,
        "rhs": None if v.rhs is None
        else (str(v.rhs) if isinstance(v.rhs, Fraction) else v.rhs),
        "witness_graph6": encode_graph6(v.witness) if v.witness is not None else None,
    }


def _cmd_conjecture(args) -> int:
    n = args.n
    ms = range(comb(n, 2) + 1) if args.all_m else [args.m]
    # Checked from the top level down, as in _cmd_scan; reported ascending.
    if args.name == "equal-partition":
        verdicts = [check_equal_partition_conjecture(n, m, args.k)
                    for m in reversed(ms)]
    else:
        verdicts = [check_coemax_upper_bound(n, m) for m in reversed(ms)]
    print(dump_report([_verdict_payload(v) for v in reversed(verdicts)]))
    return EXIT_OK


_COMMANDS = {
    "compute": _cmd_compute,
    "formula": _cmd_formula,
    "extremal": _cmd_extremal,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"propconn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
