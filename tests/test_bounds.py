import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from propconn.graph import (Graph, complete, cycle, disjoint_union, edgeless,
                            path)
from propconn.solver import copec_exact
from propconn.bounds import (check_coemax_upper_bound,
                             check_equal_partition_conjecture, edwards_bound,
                             egk_bounds, max_bipartite_subgraph)
from propconn.enumeration import enumerate_gnm

from conftest import graphs

from oracles import brute_lex_first_max_cut_part, brute_max_cut

HALF = Fraction(1, 2)


def test_max_cut_examples():
    w = max_bipartite_subgraph(cycle(5))
    assert w.crossing_edges == 4
    w = max_bipartite_subgraph(complete(4))
    assert w.crossing_edges == 4 and len(w.partition[0]) == 2
    w = max_bipartite_subgraph(edgeless(3))
    assert w.crossing_edges == 0


def test_max_cut_deterministic_tie_break():
    w = max_bipartite_subgraph(cycle(5))
    assert w.partition == ((0, 1, 3), (2, 4))
    w = max_bipartite_subgraph(edgeless(4))
    assert w.partition == ((0,), (1, 2, 3))


def test_max_cut_partition_counts_crossings():
    for g in [cycle(6), complete(5), path(7),
              disjoint_union(complete(3), cycle(4))]:
        w = max_bipartite_subgraph(g)
        in_a = set(w.partition[0])
        crossing = sum(1 for u, v in g.edges() if (u in in_a) != (v in in_a))
        assert crossing == w.crossing_edges
        assert sorted(w.partition[0] + w.partition[1]) == list(range(g.n))
        assert 0 in w.partition[0]


@settings(max_examples=120)
@given(graphs(max_n=7))
def test_max_cut_matches_brute_force(g):
    assert max_bipartite_subgraph(g).crossing_edges == brute_max_cut(g)


@st.composite
def graphs_with_isolated_vertices(draw):
    """A drawn graph plus one or two isolated vertices, labels shuffled."""
    core = draw(graphs(min_n=1, max_n=7))
    n = core.n + draw(st.integers(1, 2))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in core.edges()])


def test_max_cut_part_is_lex_first_on_small_classes():
    # K2 + K1: parts (0,) and (0, 2) both cut the edge, and (0,) comes
    # first; a search that scores only complete assignments, A first,
    # meets (0, 2) first
    k2_k1 = disjoint_union(complete(2), edgeless(1))
    assert max_bipartite_subgraph(k2_k1).partition[0] == (0,)
    for n in range(1, 7):
        for m in range(comb(n, 2) + 1):
            for g in enumerate_gnm(n, m):
                assert (max_bipartite_subgraph(g).partition[0]
                        == brute_lex_first_max_cut_part(g))


@settings(max_examples=150)
@given(graphs_with_isolated_vertices())
def test_max_cut_part_is_lex_first_with_isolated_vertices(g):
    assert (max_bipartite_subgraph(g).partition[0]
            == brute_lex_first_max_cut_part(g))


def test_max_cut_part_is_lex_first_on_dense_orders():
    # The cap on the cut among the unassigned vertices binds deepest on
    # dense graphs, where most of their pairs are edges.
    rng = random.Random(27)
    for n in range(9, 13):
        pairs = list(combinations(range(n), 2))
        dense = [Graph(n, [e for e in pairs if rng.random() < p])
                 for p in (0.7, 0.9)]
        # K_n minus a perfect matching (one vertex left over at odd n)
        matching = complete(n).remove_edges(
            [(v, v + 1) for v in range(0, n - 1, 2)])
        for g in dense + [matching]:
            assert (max_bipartite_subgraph(g).partition[0]
                    == brute_lex_first_max_cut_part(g)), g


def _search_calls(graphs):
    """Calls of max_bipartite_subgraph's nested search over the graphs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_name == "search"
                and Path(code.co_filename).name == "bounds.py"):
            calls += 1

    sys.setprofile(profile)
    try:
        for g in graphs:
            max_bipartite_subgraph(g)
    finally:
        sys.setprofile(None)
    return calls


def test_max_cut_search_work_is_pinned():
    # Search nodes over every class of G(7, .) and over K_2..K_16.  They
    # move with the bound: capping the cut among k unassigned vertices at
    # their edge count alone, not also at floor(k^2/4), gives 22,428 and
    # 47,931.
    classes = [g for m in range(comb(7, 2) + 1) for g in enumerate_gnm(7, m)]
    assert _search_calls(classes) == 18124
    assert _search_calls(complete(k) for k in range(2, 17)) == 9433


def test_max_cut_size_bound():
    with pytest.raises(ValueError):
        max_bipartite_subgraph(edgeless(25))


def test_edwards_bound_values():
    assert edwards_bound(5) == 4
    assert edwards_bound(0) == 0
    assert edwards_bound(1) == 1


def test_edwards_bound_minimality():
    # returned k satisfies the inequality; k-1 does not
    for m in range(0, 2000):
        k = edwards_bound(m)
        assert (8 * k - 4 * m + 1) >= 0 and (8 * k - 4 * m + 1) ** 2 >= 8 * m + 1
        if k:
            below = 8 * (k - 1) - 4 * m + 1
            assert below < 0 or below ** 2 < 8 * m + 1


def test_edwards_bound_exact_on_triangular_m():
    # m = C(k,2) makes 8m+1 = (2k-1)^2, so the bound is ceil((4m + 2k - 2)/8)
    # exactly; these sit on or next to integers, where floats could flip
    for k in range(2, 200):
        m = comb(k, 2)
        expected = -(-(4 * m + 2 * k - 2) // 8)
        assert edwards_bound(m) == expected
    assert edwards_bound(10) == 6
    assert edwards_bound(36) == 20
    assert edwards_bound(78) == 42


def test_egk_bounds_examples():
    isolated_free, connected = egk_bounds(cycle(5))
    assert connected == 4 and isolated_free == 4
    isolated_free, connected = egk_bounds(disjoint_union(complete(2), complete(2)))
    assert isolated_free == 2 and connected is None
    isolated_free, connected = egk_bounds(disjoint_union(complete(2), edgeless(1)))
    assert isolated_free is None and connected is None


def test_bounds_never_beat_exact_max_cut_small():
    for n in range(1, 7):
        for m in range(comb(n, 2) + 1):
            for g in enumerate_gnm(n, m):
                b = max_bipartite_subgraph(g).crossing_edges
                assert b >= edwards_bound(g.m)
                isolated_free, connected = egk_bounds(g)
                if isolated_free is not None:
                    assert b >= isolated_free
                if connected is not None:
                    assert b >= connected


def test_equal_partition_trivial_instance():
    v = check_equal_partition_conjecture(2, 1, 2)
    assert v.holds and v.lhs == v.rhs == 1 and v.witness is not None


def test_equal_partition_verdicts_are_sound():
    # rhs is a balanced connected-block crossing count, so it never falls
    # below the family maximum, and holds iff they are equal
    for n, k in [(4, 2), (6, 2), (6, 3)]:
        for m in range(comb(n, 2) + 1):
            v = check_equal_partition_conjecture(n, m, k)
            assert v.holds == (v.rhs == v.lhs)
            if v.rhs is not None:
                assert v.rhs >= v.lhs
            assert v.witness is None or v.witness.m == m


def test_equal_partition_requires_divisibility():
    with pytest.raises(ValueError):
        check_equal_partition_conjecture(5, 3, 2)


def test_equal_partition_rejects_k_below_two():
    # r = 1/k must satisfy 0 < r < 1; k = 1 would check r = 1, k = 0 divide
    # by zero, and a negative k give a negative threshold
    for k in (1, 0, -2):
        with pytest.raises(ValueError):
            check_equal_partition_conjecture(4, 2, k)


def test_coemax_bound_examples():
    v = check_coemax_upper_bound(2, 1)
    assert v.holds and v.lhs == 1 and v.rhs == Fraction(1, 2) + Fraction(14, 12)
    v = check_coemax_upper_bound(6, 9)
    assert v.rhs == 8 and v.holds == (v.lhs <= 8)
    with pytest.raises(ValueError):
        check_coemax_upper_bound(5, 4)


def test_min_edge_sets_cross_distinct_components():
    # every removed edge of a minimum set runs between two different
    # surviving components; an internal edge would contradict minimality
    instances = [(cycle(6), HALF), (complete(5), HALF),
                 (disjoint_union(complete(4), path(3)), Fraction(1, 3)),
                 (Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
                  Fraction(1, 3))]
    for g, r in instances:
        w = copec_exact(g, r)
        remnant = g.remove_edges(w.elements)
        masks = remnant.component_masks()

        def comp_of(v):
            return next(i for i, mask in enumerate(masks) if mask >> v & 1)

        for u, v in w.elements:
            assert comp_of(u) != comp_of(v)
