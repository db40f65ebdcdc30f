import inspect
import random
import sys
from fractions import Fraction
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from propconn.formulas import copec_path
from propconn.graph import (Graph, complete, complete_bipartite, cycle,
                            disjoint_union, edgeless, path)
from propconn.solver import (MAX_EDGE_SOLVER_VERTICES,
                             MAX_VERTEX_SOLVER_VERTICES, DisconnectingWitness,
                             EdgeSolverLimitError, VertexSolverLimitError,
                             copec_exact, copec_value, copvc_exact,
                             copvc_value, verify_witness,
                             _best_partition_score, _min_vertex_set)
from propconn.enumeration import enumerate_gnm

from conftest import SOLVER_GRID, graphs, proportions
from oracles import (brute_lex_first_edge_set, brute_lex_first_vertex_set,
                     brute_min_edge_set, brute_min_vertex_set,
                     lex_edge_scores, partition_dp, scan_min_vertex_set)

HALF = Fraction(1, 2)


def test_copvc_path_middle_vertex():
    w = copvc_exact(path(4), HALF)
    assert w.cardinality == 1 and w.elements == (1,)


def test_copvc_complete_five():
    assert copvc_exact(complete(5), HALF).cardinality == 3


def test_copvc_already_failed():
    w = copvc_exact(edgeless(4), HALF)
    assert w.cardinality == 0 and w.elements == ()


def test_copvc_tau_zero_removes_everything():
    w = copvc_exact(path(3), Fraction(1, 4))
    assert w.cardinality == 3 and w.elements == (0, 1, 2)


def test_copec_path_seven():
    assert copec_exact(path(7), HALF).cardinality == 2


def test_copec_complete_six():
    w = copec_exact(complete(6), HALF)
    assert w.cardinality == comb(6, 2) - 2 * comb(3, 2)
    assert verify_witness(complete(6), HALF, w)


def test_copec_single_vertex_infeasible():
    w = copec_exact(Graph(1), HALF)
    assert w.cardinality is None and w.elements == ()


def test_copec_lexicographic_tie_break():
    # two opposite deletions split C_4; (0,1),(2,3) sorts before (0,3),(1,2)
    assert copec_exact(cycle(4), HALF).elements == ((0, 1), (2, 3))


def test_rejects_empty_graph():
    with pytest.raises(ValueError):
        copvc_exact(edgeless(0), HALF)


def test_rejects_oversized_graph():
    with pytest.raises(ValueError):
        copvc_value(edgeless(65), 1)


def test_verify_witness_examples():
    k5 = complete(5)
    assert verify_witness(k5, HALF, DisconnectingWitness("vertex", (0, 1, 2), 3))
    assert not verify_witness(k5, HALF, DisconnectingWitness("vertex", (0, 1), 2))
    assert verify_witness(edgeless(4), HALF, DisconnectingWitness("vertex", (), 0))
    with pytest.raises(ValueError):
        verify_witness(k5, HALF, DisconnectingWitness("arc", (), 0))
    with pytest.raises(ValueError):
        verify_witness(Graph(0), HALF, DisconnectingWitness("vertex", (), 0))


def assert_lex_first_vertex_witness(g, r):
    w = copvc_exact(g, r)
    expected = brute_lex_first_vertex_set(g, r)
    assert w.elements == expected and w.cardinality == len(expected)


def assert_lex_first_edge_witness(g, r):
    w = copec_exact(g, r)
    expected = brute_lex_first_edge_set(g, r)
    if expected is None:
        assert w.cardinality is None
    else:
        assert w.elements == expected and w.cardinality == len(expected)


def test_exhaustive_against_brute_force_small():
    # every class on up to 5 vertices, full solver grid; both witnesses
    # must be the lex-first minimum set, not just any minimum set
    for n in range(1, 6):
        for m in range(comb(n, 2) + 1):
            for g in enumerate_gnm(n, m):
                for r in SOLVER_GRID:
                    assert_lex_first_vertex_witness(g, r)
                    assert_lex_first_edge_witness(g, r)


@settings(deadline=None, max_examples=60)
@given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4), proportions(),
       st.data())
def test_edge_witness_lex_first_across_components(a, b, r, data):
    # each oversized component is solved on its own; the merged witness must
    # still be the lex-first minimum set of the whole graph, also when the
    # components' labels interleave
    g = disjoint_union(a, b)
    label = data.draw(st.permutations(range(g.n)))
    g = Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])
    assert_lex_first_edge_witness(g, r)


@settings(deadline=None, max_examples=60)
@given(graphs(min_n=2, max_n=5), graphs(min_n=2, max_n=5), st.data())
def test_vertex_witness_lex_first_across_components(a, b, data):
    # the vertex search also solves each oversized component on its own;
    # tau stays below both parts' orders so both can need a cut
    g = disjoint_union(a, b)
    label = data.draw(st.permutations(range(g.n)))
    g = Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])
    tau = data.draw(st.integers(1, min(a.n, b.n) - 1))
    assert_lex_first_vertex_witness(g, Fraction(tau, g.n))


def test_exhaustive_against_brute_force_n6_sample():
    for m in (5, 8, 11):
        for g in enumerate_gnm(6, m):
            for r in (Fraction(1, 3), HALF, Fraction(9, 10)):
                assert copvc_exact(g, r).cardinality == brute_min_vertex_set(g, r)
                assert copec_exact(g, r).cardinality == brute_min_edge_set(g, r)


@settings(deadline=None, max_examples=60)
@given(graphs(min_n=1, max_n=7))
def test_monotone_in_r(g):
    vertex_values = [copvc_exact(g, r).cardinality for r in SOLVER_GRID]
    assert vertex_values == sorted(vertex_values, reverse=True)
    edge_values = [copec_exact(g, r) for r in SOLVER_GRID]
    finite = [w.cardinality for w in edge_values if w.cardinality is not None]
    assert finite == sorted(finite, reverse=True)
    # infeasibility only happens while tau = 0, i.e. at the small-r end
    feasibility = [w.cardinality is not None for w in edge_values]
    assert feasibility == sorted(feasibility)


@settings(deadline=None, max_examples=60)
@given(graphs(min_n=2, max_n=7), proportions(), st.data())
def test_adding_an_edge_moves_values_at_most_one(g, r, data):
    non_edges = g.non_edges()
    if not non_edges:
        return
    u, v = data.draw(st.sampled_from(non_edges))
    bigger = g.add_edge(u, v)
    before = copvc_exact(g, r).cardinality
    after = copvc_exact(bigger, r).cardinality
    assert before <= after <= before + 1
    tau = (r.numerator * g.n) // r.denominator
    if tau >= 1:
        before_e = copec_value(g, tau)
        after_e = copec_value(bigger, tau)
        assert before_e <= after_e <= before_e + 1


@settings(deadline=None, max_examples=60)
@given(graphs(min_n=1, max_n=7), proportions())
def test_solver_witnesses_verify(g, r):
    wv = copvc_exact(g, r)
    assert verify_witness(g, r, wv)
    assert len(wv.elements) == wv.cardinality
    we = copec_exact(g, r)
    if we.cardinality is not None:
        assert verify_witness(g, r, we)
        assert len(we.elements) == we.cardinality
    else:
        assert (r.numerator * g.n) // r.denominator == 0


@settings(deadline=None, max_examples=40)
@given(graphs(min_n=1, max_n=7), proportions())
def test_vertex_witness_is_minimum_and_lex_first(g, r):
    w = copvc_exact(g, r)
    if w.cardinality and w.cardinality <= 3:
        from itertools import combinations
        smaller_fails = all(
            not verify_witness(g, r, DisconnectingWitness("vertex", s, len(s)))
            for s in combinations(range(g.n), w.cardinality - 1)
        )
        assert smaller_fails
        earlier = [s for s in combinations(range(g.n), w.cardinality)
                   if s < w.elements]
        assert all(
            not verify_witness(g, r, DisconnectingWitness("vertex", s, len(s)))
            for s in earlier
        )


def test_dp_matches_brute_force_edge_oracle():
    for g in [path(6), cycle(6), complete(4),
              disjoint_union(complete(3), path(3)),
              Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])]:
        for tau in (1, 2, 3):
            assert copec_value(g, tau) == brute_min_edge_set(g, Fraction(tau, g.n))


def test_lex_first_edge_witness_past_64_edges():
    # K12 at tau = 11 must lose one star; the lex-first is the star of its
    # lowest vertex.  Each K12 has 66 edges, so the lex scores pass 2^64.
    star = tuple((0, v) for v in range(1, 12))
    assert copec_exact(complete(12), Fraction(11, 12)).elements == star
    two = disjoint_union(complete(12), complete(12))
    w = copec_exact(two, Fraction(11, 24))
    assert w.elements == star + tuple((12, v) for v in range(13, 24))


def test_edge_solver_rejects_component_over_limit():
    g = path(MAX_EDGE_SOLVER_VERTICES + 1)
    with pytest.raises(EdgeSolverLimitError):
        copec_exact(g, HALF)
    with pytest.raises(EdgeSolverLimitError):
        copec_value(g, 1)


def test_edge_solver_limit_counts_only_oversized_components():
    # 30 vertices in all, but no component the DP must split is over the limit
    k5s = disjoint_union(*[complete(5)] * 6)
    assert k5s.n > MAX_EDGE_SOLVER_VERTICES
    w = copec_exact(k5s, Fraction(1, 10))
    assert w.cardinality == 6 * copec_value(complete(5), 3) == 6 * 6
    assert verify_witness(k5s, Fraction(1, 10), w)
    # a long path at most tau vertices long needs no cut at all
    g = disjoint_union(path(30), edgeless(4))
    assert copec_exact(g, Fraction(9, 10)).cardinality == 0
    assert copec_value(g, 30) == 0


def test_values_match_networkx_beyond_oracle_orders():
    # At tau = 1 only isolated vertices may survive: the vertex value is a
    # minimum vertex cover, n - omega(complement), and every edge goes.  At
    # tau = 2 the kept edges form a matching, so m - nu(g) edges go.  The
    # vertex checks run up to the vertex solver's limit, the edge checks up
    # to the edge solver's limit of 18 vertices.
    rng = random.Random(20211)
    for n in range(10, MAX_VERTEX_SOLVER_VERTICES + 1):
        for p in (0.2, 0.4, 0.6, 0.8):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            complement = nx.Graph(g.complement().edges())
            complement.add_nodes_from(range(n))
            _, omega = nx.max_weight_clique(complement, weight=None)
            assert copvc_value(g, 1) == n - omega, (n, p)
            if n > MAX_EDGE_SOLVER_VERTICES:
                continue
            matching = nx.max_weight_matching(nx.Graph(g.edges()),
                                              maxcardinality=True)
            assert copec_value(g, 1) == g.m, (n, p)
            assert copec_value(g, 2) == g.m - len(matching), (n, p)


def connected_gnp(rng, n, p):
    """A seeded G(n, p) draw, redrawn until it is connected."""
    while True:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        if len(g.component_masks()) == 1:
            return g


def test_edge_value_at_tau_n_minus_1_is_edge_connectivity():
    # A connected graph fails at tau = n - 1 exactly when it is
    # disconnected, so the value is the edge connectivity.  The DP grows
    # every connected part there, about 3x per vertex, so the draws thin
    # out above n = 14 and are sparse at n = 17-18.
    rng = random.Random(2021)
    cases = [(n, p) for n in range(4, 17) for p in (0.3, 0.6)
             if n <= 14 or p == 0.3] + [(17, 0.12), (18, 0.12)]
    for n, p in cases:
        g = connected_gnp(rng, n, p)
        assert copec_value(g, n - 1) == nx.edge_connectivity(
            nx.Graph(g.edges())), (n, p)


def test_vertex_value_at_tau_n_minus_2_finds_cut_vertices():
    # At tau = n - 2 one removal suffices exactly when it splits a
    # connected graph, and any two removals leave n - 2 vertices.
    rng = random.Random(2022)
    with_cut_vertex = 0
    for n in range(3, MAX_VERTEX_SOLVER_VERTICES + 1):
        for p in (0.15, 0.35, 0.7):
            g = connected_gnp(rng, n, max(p, 2.5 / n))
            cut_vertices = set(nx.articulation_points(nx.Graph(g.edges())))
            with_cut_vertex += bool(cut_vertices)
            assert copvc_value(g, n - 2) == (1 if cut_vertices else 2), (n, p)
    assert with_cut_vertex > 10


def test_vertex_search_matches_subset_scan():
    # The branch and bound against the size-ascending subset scan it
    # replaced, witness for witness: every class of G(7, .) at tau 1-6,
    # then seeded G(n, p) draws at n = 11-16, one tau each.
    cases = [(g, range(1, 7)) for m in range(comb(7, 2) + 1)
             for g in enumerate_gnm(7, m)]
    rng = random.Random(12)
    for i in range(36):
        n = 11 + i % 6
        p = (0.3, 0.6, 0.9)[i // 6 % 3]
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        cases.append((g, (rng.randint(1, n - 2),)))
    for g, taus in cases:
        for tau in taus:
            assert (_min_vertex_set(g, tau)
                    == scan_min_vertex_set(g, tau)), (g, tau)


def test_vertex_search_work_is_pinned(monkeypatch):
    # The failure tests the vertex search makes over every class of
    # G(7, .), per tau.  The search takes each witness from
    # Graph.oversized_part; a change to the witness or to the search order
    # moves these counts.
    calls = 0
    oversized_part = Graph.oversized_part

    def counted(self, tau, within=None):
        nonlocal calls
        calls += 1
        return oversized_part(self, tau, within)

    monkeypatch.setattr(Graph, "oversized_part", counted)
    classes = [g for m in range(comb(7, 2) + 1) for g in enumerate_gnm(7, m)]
    made = {}
    for tau in range(1, 7):
        calls = 0
        for g in classes:
            copvc_value(g, tau)
        made[tau] = calls
    assert made == {1: 5704, 2: 12850, 3: 14430, 4: 11363, 5: 4979, 6: 0}


def test_vertex_solver_rejects_component_over_limit():
    g = path(MAX_VERTEX_SOLVER_VERTICES + 1)
    with pytest.raises(VertexSolverLimitError):
        copvc_exact(g, HALF)
    with pytest.raises(VertexSolverLimitError):
        copvc_value(g, 1)
    with pytest.raises(VertexSolverLimitError):
        copvc_value(g, 1, MAX_VERTEX_SOLVER_VERTICES // 2)


def test_bounded_vertex_value_matches_direct_value():
    # copvc_value given hi, for a caller that knows the value is hi or
    # hi - 1, against the value with no bound: every class of G(6, .) at
    # every tau, then graphs whose largest oversized component is not the
    # lowest-labelled one.  With hi = v, P_3 + P_5 at tau 2 leaves its
    # largest component one vertex to lose, the early return.
    cases = [g for m in range(comb(6, 2) + 1) for g in enumerate_gnm(6, m)]
    cases += [disjoint_union(path(3), path(5)),
              disjoint_union(complete(3), complete(5)),
              disjoint_union(cycle(4), complete_bipartite(2, 3), path(6)),
              disjoint_union(path(4), edgeless(1), cycle(7))]
    for g in cases:
        for tau in range(g.n):
            v = copvc_value(g, tau)
            for hi in (v, v + 1):
                assert copvc_value(g, tau, hi) == v, (g, tau, hi)


def test_vertex_solver_limit_is_pinned():
    # The bound is measured (README, Limits): the largest order whose
    # slowest tau stays under a minute.  Changing the search means
    # measuring it again.
    assert MAX_VERTEX_SOLVER_VERTICES == 39
    # Only components the search must split count: a graph of small parts
    # larger than the bound is solved, and so is the largest accepted order.
    k5s = disjoint_union(*[complete(5)] * 8)
    assert k5s.n > MAX_VERTEX_SOLVER_VERTICES
    assert copvc_value(k5s, 3) == 8 * 2
    assert (copvc_value(path(MAX_VERTEX_SOLVER_VERTICES), 1)
            == MAX_VERTEX_SOLVER_VERTICES // 2)
    assert copvc_exact(disjoint_union(path(40), edgeless(2)),
                       Fraction(40, 42)).cardinality == 0


def assert_partition_reference(g, taus):
    """The connected-part DP against the all-submask DP it replaced, which
    tries every part, connected or not, on g at each tau of taus."""
    inside = lex_edge_scores(g)
    for tau in taus:
        assert (_best_partition_score(g, tau)
                == partition_dp(inside, tau)), (g, tau)


def check_partition_reference(orders, count, seed, every_tau=False):
    """The reference check on ``count`` seeded G(n, p) draws, n cycling
    through ``orders`` and p through 0.2-0.8, at one drawn tau per graph,
    or at every tau from 1 to n - 1.  Returns the number of (graph, tau)
    pairs checked."""
    rng = random.Random(seed)
    checked = 0
    for i in range(count):
        n = orders[i % len(orders)]
        p = (0.2, 0.4, 0.6, 0.8)[i // len(orders) % 4]
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        drawn = rng.randint(1, n - 1)
        taus = range(1, n) if every_tau else (drawn,)
        assert_partition_reference(g, taus)
        checked += len(taus)
    return checked


def test_partition_score_matches_all_submask_reference():
    # Every class of G(7, .) at tau 1-6, then seeded G(n, p) draws at
    # n = 9-12, one tau each.
    for m in range(comb(7, 2) + 1):
        for g in enumerate_gnm(7, m):
            assert_partition_reference(g, range(1, 7))
    assert check_partition_reference((9, 10, 11, 12), 32, seed=11) == 32
    # Every tau of: K_2..K_9, whose parts reach the deepest frames; stars,
    # whose hub has every other vertex as a candidate; a graph whose vertex
    # 0 is isolated, so level 0 adds only the singleton; P_12 and C_12.
    shapes = ([complete(k) for k in range(2, 10)]
              + [complete_bipartite(1, k) for k in range(2, 10)]
              + [disjoint_union(edgeless(1), complete(4), path(4)),
                 path(12), cycle(12)])
    for g in shapes:
        assert_partition_reference(g, range(1, g.n))


def test_partition_dp_work_is_pinned():
    # The connected parts the edge DP grows and the scores it pushes onto
    # its table, over K_8, P_12, C_10, K_{4,4} and one seeded G(10, 1/2)
    # at every tau, counted by tracing _best_partition_score's lines.  A
    # part grown twice, or a level-0 part pushed onto more than the full
    # set, moves these counts though the table stays the same.
    lines, first = inspect.getsourcelines(_best_partition_score)

    def at(*texts):
        return {first + i for i, line in enumerate(lines)
                if line.strip() in texts}

    part = at("p, s = part | bit, score")
    push = at("if s > best[p]:", "c = s + best[t]", "c = s + best[rest]")
    assert len(part) == 1 and len(push) == 3
    made = {"parts": 0, "pushes": 0}

    def local(frame, event, arg):
        if event == "line":
            if frame.f_lineno in part:
                made["parts"] += 1
            elif frame.f_lineno in push:
                made["pushes"] += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code is _best_partition_score.__code__:
            return local
        return None

    rng = random.Random(10)
    shapes = [complete(8), path(12), cycle(10), complete_bipartite(4, 4),
              Graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)
                         if rng.random() < 0.5])]
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for g in shapes:
            for tau in range(1, g.n):
                _best_partition_score(g, tau)
    finally:
        sys.settrace(previous)
    assert made == {"parts": 6302, "pushes": 70214}


def test_edge_dp_at_the_solver_bound_on_a_path():
    # P_18 at tau = 17 grows parts of 17 vertices, the deepest frames the
    # solver bound allows; one cut anywhere leaves two short paths.
    n = MAX_EDGE_SOLVER_VERTICES
    assert copec_value(path(n), n - 1) == copec_path(n, Fraction(n - 1, n)).value
