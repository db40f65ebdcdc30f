"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with -s to see them while green; pytest shows them on failure).

The standard proportion grid is {1/4, 1/3, 1/2, 2/3, 3/4}; instances where a
formula's floor(r*n) >= 1 precondition fails are skipped, matching the
formulas' domains.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb

from propconn.graph import complete, complete_bipartite, cycle, path
from propconn.solver import copec_exact, copvc_exact
from propconn.formulas import (copec_complete, copec_cycle,
                               copec_cycle_arc_cover, copvc_complete,
                               copvc_complete_bipartite, copvc_cycle,
                               copvc_cycle_original_order, copvc_path)
from propconn.families import (build_max_failure_state, coemin,
                               complete_minus_two_disjoint_edges, covmin,
                               max_failure_edges)
from propconn.enumeration import enumerate_gnm, family_profile
from propconn.bounds import (check_coemax_upper_bound,
                             check_equal_partition_conjecture, edwards_bound,
                             egk_bounds, max_bipartite_subgraph)
from propconn.formats import encode_graph6, fraction_str

GRID = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
        Fraction(2, 3), Fraction(3, 4))


def _tau(r, n):
    return (r.numerator * n) // r.denominator


def _line(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@lru_cache(maxsize=None)
def _stat_table(n: int, r: Fraction):
    """stat -> tuple over m of the enumerated family value.  Levels are
    read from m = C(n, 2) down, so edge values inherit from their parents'
    cuts."""
    rows = []
    for m in reversed(range(comb(n, 2) + 1)):
        vertex, edge = (family_profile(n, m, r, measure)
                        for measure in ("vertex", "edge"))
        rows.append((min(vertex), max(vertex), min(edge), max(edge)))
    columns = zip(*reversed(rows))
    return dict(zip(("covmin", "covmax", "coemin", "coemax"), columns))


def test_criterion_01_path_vertex_formula():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        for r in GRID:
            if _tau(r, n) < 1:
                continue
            assert copvc_path(n, r).value == copvc_exact(path(n), r).cardinality, \
                (n, r)
            checked += 1
    elapsed = time.perf_counter() - start
    _line(1, elapsed < 10.0,
          f"path vertex formula == oracle on {checked} instances "
          f"({elapsed:.2f}s < 10s)")


def test_criterion_02_complete_graph_formulas():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        for r in GRID:
            assert copvc_complete(n, r).value == \
                copvc_exact(complete(n), r).cardinality, (n, r, "vertex")
            checked += 1
            if _tau(r, n) >= 1:
                assert copec_complete(n, r).value == \
                    copec_exact(complete(n), r).cardinality, (n, r, "edge")
                checked += 1
    elapsed = time.perf_counter() - start
    _line(2, elapsed < 60.0,
          f"complete-graph formulas == oracle on {checked} instances "
          f"({elapsed:.2f}s < 60s)")


def test_criterion_03_complete_bipartite_vertex_formula():
    checked = 0
    for total in range(2, 10):
        for a in range(1, total // 2 + 1):
            b = total - a
            for r in GRID:
                if _tau(r, total) < 1:
                    continue
                expected = copvc_exact(complete_bipartite(a, b), r).cardinality
                assert copvc_complete_bipartite(a, b, r).value == expected, \
                    (a, b, r)
                checked += 1
    _line(3, True, f"complete bipartite vertex formula == oracle on "
                   f"{checked} instances")


def test_criterion_04_cycle_variants_adjudicated():
    records = []
    for n in range(3, 11):
        for r in GRID:
            if _tau(r, n) < 1:
                continue
            oracle_v = copvc_exact(cycle(n), r).cardinality
            records.append(("vertex", n, r, copvc_cycle(n, r).value,
                            copvc_cycle_original_order(n, r).value, oracle_v))
            oracle_e = copec_exact(cycle(n), r).cardinality
            records.append(("edge", n, r, copec_cycle(n, r).value,
                            copec_cycle_arc_cover(n, r).value, oracle_e))
    neither = [rec for rec in records if rec[3] != rec[5] and rec[4] != rec[5]]
    v_recs = [rec for rec in records if rec[0] == "vertex"]
    e_recs = [rec for rec in records if rec[0] == "edge"]
    v_reduced_ok = sum(rec[3] == rec[5] for rec in v_recs)
    v_original_ok = sum(rec[4] == rec[5] for rec in v_recs)
    e_first_ok = sum(rec[3] == rec[5] for rec in e_recs)
    e_second_ok = sum(rec[4] == rec[5] for rec in e_recs)
    detail = (f"{len(records)} three-way records; vertex: original-order "
              f"form correct {v_original_ok}/{len(v_recs)}, reduced-order "
              f"form correct {v_reduced_ok}/{len(v_recs)}; edge: both forms "
              f"correct {e_first_ok}/{len(e_recs)} and "
              f"{e_second_ok}/{len(e_recs)}; neither-matches: {len(neither)}")
    assert v_original_ok == len(v_recs), "original-order vertex form must match"
    assert e_first_ok == len(e_recs) and e_second_ok == len(e_recs)
    _line(4, not neither, detail)


def test_criterion_05_densest_failure_state_value():
    checked = 0
    for n in range(2, 9):
        for r in GRID:
            tau = _tau(r, n)
            if tau < 1:
                continue
            enumerated_best = max(
                m for m in range(comb(n, 2) + 1)
                for g in enumerate_gnm(n, m) if g.is_failure_state(tau)
            )
            value = max_failure_edges(n, r)
            assert value == enumerated_best, (n, r, value, enumerated_best)
            built = build_max_failure_state(n, r)
            assert built.n == n and built.m == value
            assert built.is_failure_state(tau)
            checked += 1
    _line(5, True, f"densest-failure-state value matches enumeration and "
                   f"the built witness attains it ({checked} instances)")


def test_criterion_06_covmin_scan_full_sweep():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for r in GRID:
            if _tau(r, n) < 1:
                continue
            truth = _stat_table(n, r)["covmin"]
            for m in range(comb(n, 2) + 1):
                assert covmin(n, m, r) == truth[m], (n, m, r)
                checked += 1
    elapsed = time.perf_counter() - start
    _line(6, elapsed < 1800.0,
          f"covmin threshold scan == enumeration on {checked} (n, m, r) "
          f"triples ({elapsed:.1f}s < 1800s)")


def test_criterion_07_coemin_closed_form_full_sweep():
    checked = 0
    for n in range(2, 8):
        for r in GRID:
            if _tau(r, n) < 1:
                continue
            truth = _stat_table(n, r)["coemin"]
            for m in range(comb(n, 2) + 1):
                assert coemin(n, m, r) == truth[m], (n, m, r)
                checked += 1
    _line(7, True, f"coemin closed form == enumeration on {checked} "
                   f"(n, m, r) triples")


def test_criterion_08_monotonicity_and_maxima():
    printed_variant_differs = []
    for n in range(2, 8):
        for r in GRID:
            tau = _tau(r, n)
            if tau < 1:
                continue
            table = _stat_table(n, r)
            p, q = divmod(n, tau)
            densest = p * comb(tau, 2) + comb(q, 2)
            stated_max = {
                "covmin": n - tau,
                "covmax": n - tau,
                "coemin": comb(n, 2) - densest,
                "coemax": comb(n, 2) - densest,
            }
            for stat, values in table.items():
                for m in range(1, len(values)):
                    assert values[m - 1] <= values[m] <= values[m - 1] + 1, \
                        (stat, n, r, m)
                assert max(values) == stated_max[stat], (stat, n, r)
            # the covmin maximum equals the complete-graph value n - tau;
            # the alternative expression n - floor(n/tau) printed alongside
            # it disagrees whenever floor(n/tau) != tau
            if n - n // tau != max(table["covmin"]):
                printed_variant_differs.append((n, fraction_str(r)))
    detail = ("all four statistics non-decreasing with unit steps and "
              "attain their maxima; the n - floor(n/tau) covmin-max variant "
              f"disagrees with the attained maximum on "
              f"{len(printed_variant_differs)} grid instances "
              f"(e.g. {printed_variant_differs[:3]})")
    _line(8, True, detail)


def test_criterion_09_bipartite_bounds_never_violated():
    checked = 0
    violations = []
    for n in range(1, 8):
        for m in range(comb(n, 2) + 1):
            for g in enumerate_gnm(n, m):
                b = max_bipartite_subgraph(g).crossing_edges
                if b < edwards_bound(m):
                    violations.append((n, m, "edwards"))
                _, connected_bound = egk_bounds(g)
                if connected_bound is not None and b < connected_bound:
                    violations.append((n, m, "connected"))
                checked += 1
    _line(9, not violations,
          f"max-cut >= lower bounds on {checked} classes, "
          f"{len(violations)} violations")


def test_criterion_10_conjecture_verdict_tables():
    rows = []
    falsified = []
    # Each sweep is checked from m = C(n, 2) down, so edge values inherit
    # from their parents' cuts, and listed in ascending m.
    for n, k in [(4, 2), (6, 2), (6, 3), (8, 2)]:
        sweep = [check_equal_partition_conjecture(n, m, k)
                 for m in reversed(range(comb(n, 2) + 1))]
        for v in reversed(sweep):
            assert v.holds == (v.lhs == v.rhs)
            assert v.rhs is None or v.rhs >= v.lhs
            rows.append(v)
            if not v.holds:
                falsified.append(v)
    for n in (4, 6):
        sweep = [check_coemax_upper_bound(n, m)
                 for m in reversed(range(comb(n, 2) + 1))]
        for v in reversed(sweep):
            assert v.holds == (v.lhs <= v.rhs)
            assert v.witness is not None
            rows.append(v)
            if not v.holds:
                falsified.append(v)
    print(f"\n  {'name':22} {'n':>2} {'m':>2} {'r':>4} {'holds':>5} "
          f"{'lhs':>4} {'rhs':>6} witness")
    for v in rows:
        witness = encode_graph6(v.witness) if v.witness is not None else "-"
        print(f"  {v.name:22} {v.n:>2} {v.m:>2} {fraction_str(v.r):>4} "
              f"{str(v.holds):>5} {v.lhs:>4} {str(v.rhs):>6} {witness}")
    if falsified:
        print("  falsifying instances:")
        for v in falsified:
            witness = encode_graph6(v.witness) if v.witness is not None else "-"
            print(f"    {v.name} n={v.n} m={v.m} r={fraction_str(v.r)} "
                  f"lhs={v.lhs} rhs={v.rhs} witness={witness}")
    _line(10, True,
          f"{len(rows)} verdicts ({len(falsified)} falsifications, each "
          f"carrying a witness graph)")


def test_criterion_11_near_complete_counterexample_instance():
    g = complete_minus_two_disjoint_edges(5)
    w = copec_exact(g, Fraction(9, 10))
    ok = w.cardinality == 3
    _line(11, ok, f"K_5 minus two disjoint edges at r=9/10: edge value "
                  f"{w.cardinality} == n-2 == 3")
