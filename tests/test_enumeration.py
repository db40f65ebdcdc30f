import inspect
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from networkx.generators.atlas import graph_atlas_g

from propconn.graph import (Graph, complete, complete_bipartite, cycle,
                            disjoint_union, edgeless, path)
from propconn import enumeration
from propconn.enumeration import (MAX_CANONICAL_VERTICES, MAX_ENUM_VERTICES,
                                  canonical_graph, canonical_key,
                                  count_classes, enumerate_gnm,
                                  family_profile, upper_triangle_key)
from propconn.solver import copec_value, copvc_value

from conftest import STANDARD_GRID, forget_family_profiles, graphs
from oracles import (all_labeled_graphs, brute_canonical_key,
                     polya_class_counts, reference_canonical_graph)

# classes of graphs with n vertices and m edges, from brute-force labeled
# canonicalization for n <= 5 (see test_level_counts_match_labeled_brute_force)
# and from OEIS A008406 for n = 8
LEVEL_COUNTS = {
    1: [1],
    2: [1, 1],
    3: [1, 1, 1, 1],
    4: [1, 1, 2, 3, 2, 1, 1],
    5: [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1],
    8: [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
        1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1],
}
TOTAL_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_named_class_counts():
    assert count_classes(3, 2) == 1
    assert count_classes(4, 3) == 3
    assert count_classes(2, 0) == 1


def test_level_counts_match_labeled_brute_force():
    for n in range(1, 6):
        seen = {}
        for g in all_labeled_graphs(n):
            seen.setdefault(brute_canonical_key(g), g.m)
        by_m = [0] * (comb(n, 2) + 1)
        for m in seen.values():
            by_m[m] += 1
        assert by_m == LEVEL_COUNTS[n]
        assert [count_classes(n, m) for m in range(comb(n, 2) + 1)] == by_m


def test_total_class_counts():
    # n = 8 enumerates all of G(8, .), about 5 s from a cold cache.
    for n, total in TOTAL_CLASSES.items():
        counts = [count_classes(n, m) for m in range(comb(n, 2) + 1)]
        assert sum(counts) == total
        assert counts == LEVEL_COUNTS.get(n, counts), n


def test_class_counts_match_polya_counting():
    # Polya counting reaches every class count without a graph or a table.
    for n in range(MAX_ENUM_VERTICES + 1):
        assert polya_class_counts(n) == [
            count_classes(n, m) for m in range(comb(n, 2) + 1)], n
    assert sum(polya_class_counts(9)) == 274668
    assert sum(polya_class_counts(10)) == 12005168


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        list(enumerate_gnm(9, 0))
    with pytest.raises(ValueError):
        list(enumerate_gnm(4, 7))
    # rejected at the call, before anything is iterated
    for n, m in ((9, 0), (-1, 0), (4, 7), (4, -1)):
        with pytest.raises(ValueError):
            enumerate_gnm(n, m)
        with pytest.raises(ValueError):
            count_classes(n, m)


def test_representatives_are_canonical_and_sorted():
    for n in range(8):
        for m in range(comb(n, 2) + 1):
            reps = list(enumerate_gnm(n, m))
            keys = [upper_triangle_key(g) for g in reps]
            # strictly increasing: no class is emitted twice
            assert all(a < b for a, b in zip(keys, keys[1:])), (n, m)
            assert all(canonical_key(g) == k for g, k in zip(reps, keys))
            assert all(g.n == n and g.m == m for g in reps)


def test_lowest_zero_bit_gives_canonical_parent():
    # The lemma orderly generation rests on: if c is the canonical key of g
    # and p its lowest 0 bit, the canonical labeling of g plus the pair at
    # bit p has canonical key c + 2^p.
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            if g.m == comb(n, 2):
                continue
            c = brute_canonical_key(g)
            cg = canonical_graph(g)
            assert upper_triangle_key(cg) == c
            p = (~c & (c + 1)).bit_length() - 1
            pair = next(e for e in cg.non_edges()
                        if upper_triangle_key(Graph(n, [e])) == 1 << p)
            assert brute_canonical_key(cg.add_edge(*pair)) == c + (1 << p), g


def test_canonical_key_matches_brute_force_minimum():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert canonical_key(g) == brute_canonical_key(g)


@settings(max_examples=150)
@given(graphs(max_n=6), st.data())
def test_canonical_key_is_isomorphism_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_key(relabeled) == canonical_key(g)
    assert canonical_graph(relabeled) == canonical_graph(g)


def test_canonical_graph_is_fixed_point():
    for g in [path(5), cycle(6), complete(4)]:
        cg = canonical_graph(g)
        assert canonical_graph(cg) == cg
        assert cg.n == g.n and cg.m == g.m


def test_distinct_classes_have_distinct_keys():
    # star vs triangle-plus-isolated: same (n, m), different classes
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    triangle = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert canonical_key(star) != canonical_key(triangle)


def test_keys_match_networkx_graph_atlas():
    # The atlas lists one graph per class on 0-7 vertices, built without
    # this package: its keys must be distinct and equal the enumerated ones.
    atlas_keys = {}
    for a in graph_atlas_g():
        g = Graph(a.number_of_nodes(), list(a.edges()))
        atlas_keys.setdefault((g.n, g.m), []).append(canonical_key(g))
    assert sum(map(len, atlas_keys.values())) == 1253
    for n in range(8):
        for m in range(comb(n, 2) + 1):
            keys = atlas_keys[n, m]
            assert len(set(keys)) == len(keys), (n, m)
            assert set(keys) == {upper_triangle_key(g)
                                 for g in enumerate_gnm(n, m)}, (n, m)


def test_canonical_search_rejects_order_over_bound():
    for g in (edgeless(MAX_CANONICAL_VERTICES + 1),
              complete(MAX_CANONICAL_VERTICES + 1)):
        with pytest.raises(ValueError, match="canonical search supports"):
            canonical_graph(g)
        with pytest.raises(ValueError, match="canonical search supports"):
            canonical_key(g)


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _matching(k, n):
    """k disjoint edges plus n - 2k isolated vertices."""
    return disjoint_union(*[complete(2)] * k, edgeless(n - 2 * k))


def _symmetric_family(n):
    """Graphs on n vertices with large sets of tied orderings, which random
    small graphs rarely build, and their complements."""
    family = [_matching(k, n) for k in range(1, n // 2 + 1)]
    family += [cycle(n), path(n), complete_bipartite(2, n - 2),
               disjoint_union(complete(3), path(n - 3))]
    return family + [g.complement() for g in family]


def _at_bound():
    n = MAX_CANONICAL_VERTICES
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)])
    return (_matching(4, n), _matching(3, n), _matching(1, n), petersen,
            edgeless(n), complete(n))


def test_canonical_key_matches_brute_force_on_symmetric_families():
    rng = random.Random(7)
    for n in range(4, 8):
        for g in _symmetric_family(n):
            assert canonical_key(_relabeled(g, rng)) == \
                brute_canonical_key(g), (n, g)


def test_canonical_graph_is_relabeling_invariant_at_bound():
    rng = random.Random(10)
    for g in _at_bound():
        cg = canonical_graph(g)
        assert cg.n == g.n and cg.m == g.m
        for _ in range(3):
            assert canonical_graph(_relabeled(g, rng)) == cg, g


def _complete_multipartite(*sizes):
    return disjoint_union(*map(complete, sizes)).complement()


def _blow_up(h, sizes, adjacent):
    """h with vertex i replaced by a class of sizes[i] twins, adjacent to
    each other when ``adjacent``; classes of h-neighbours are joined."""
    start = [sum(sizes[:i]) for i in range(h.n)]
    classes = [range(start[i], start[i] + sizes[i]) for i in range(h.n)]
    edges = [(u, w) for i, j in h.edges() for u in classes[i]
             for w in classes[j]]
    if adjacent:
        edges += [(u, w) for c in classes for u in c for w in c if u < w]
    return Graph(sum(sizes), edges)


def _twin_heavy(n):
    """Graphs on n = 6, 7, 9 or 10 vertices whose vertices fall into large
    classes of adjacent or non-adjacent twins."""
    blown = {6: (2, 2, 2), 7: (2, 3, 2), 9: (2, 3, 2, 2), 10: (3, 2, 2, 3)}
    family = [complete_bipartite(1, n - 1),
              disjoint_union(complete(3), edgeless(n - 3)),
              disjoint_union(complete(4), complete(2), edgeless(n - 6)),
              disjoint_union(edgeless(2), complete(n - 2)).complement(),
              _blow_up(path(len(blown[n])), blown[n], adjacent=False),
              _blow_up(path(len(blown[n])), blown[n], adjacent=True)]
    family += {6: [_complete_multipartite(1, 2, 3)],
               7: [_complete_multipartite(2, 2, 3)],
               9: [_complete_multipartite(2, 3, 4),
                   _complete_multipartite(3, 3, 3)],
               10: [_complete_multipartite(1, 2, 3, 4),
                    _blow_up(cycle(5), (2,) * 5, adjacent=False),
                    _blow_up(cycle(5), (2,) * 5, adjacent=True)]}[n]
    return family


def test_canonical_forms_of_twin_heavy_graphs():
    # The search places each twin class in label order only; these graphs
    # make that rule prune most of the tied orderings.
    rng = random.Random(16)
    for n in (6, 7):
        for g in _twin_heavy(n):
            key = brute_canonical_key(g)
            for _ in range(3):
                assert canonical_key(_relabeled(g, rng)) == key, (n, g)
    for n in (9, 10):
        for g in _twin_heavy(n):
            cg = canonical_graph(g)
            assert cg.n == g.n and cg.m == g.m
            for _ in range(3):
                assert canonical_graph(_relabeled(g, rng)) == cg, (n, g)


def test_isolated_vertices_are_placed_first():
    # A least-column vertex with no unplaced neighbour is placed with no
    # sibling branch: isolated vertices at the first level, and leaves and
    # matched vertices once their neighbours are placed.
    family = [disjoint_union(complete_bipartite(1, s), edgeless(k))
              for s in range(1, 6) for k in range(1, 7 - s)]
    family += [_matching(j, n) for j in range(1, 4)
               for n in range(2 * j + 1, 8)]
    family.append(disjoint_union(path(3), path(3), edgeless(1)))
    rng = random.Random(32)
    for g in family:
        key = brute_canonical_key(g)
        for _ in range(3):
            assert canonical_key(_relabeled(g, rng)) == key, g


def check_reference_search(orders, count, seed):
    """Check canonical_graph against the reference search on ``count``
    seeded G(n, p), n cycling through ``orders`` and p through 0.1-0.9, and
    return the number of distinct classes among them."""
    rng = random.Random(seed)
    keys = set()
    for i in range(count):
        n, p = orders[i % len(orders)], (1 + i % 9) / 10
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        cg = canonical_graph(g)
        assert cg == reference_canonical_graph(g), g
        keys.add((g.n, upper_triangle_key(cg)))
    return len(keys)


def test_canonical_graph_matches_reference_search():
    # Every class of G(7, .), seeded-relabeled, then 297 seeded random
    # graphs up to the bound, 261 classes among them.  CI runs the same
    # check on 2,000 graphs at n = 10: 1,616 classes.
    rng = random.Random(70)
    for m in range(22):
        for g in enumerate_gnm(7, m):
            h = _relabeled(g, rng)
            assert canonical_graph(h) == reference_canonical_graph(h) == g
    assert check_reference_search((8, 9, 10), 297, seed=8) == 261


def test_column_check_never_rejects_a_canonical_child():
    # The column check only spares searches: whenever it rejects a class
    # minus one of its edges, that labeling must not be canonical.
    rejected = 0
    for n in range(1, 8):
        for m in range(comb(n, 2) + 1):
            for g in enumerate_gnm(n, m):
                for i, j in g.edges():
                    child = g.remove_edges([(i, j)])
                    if enumeration._sorts_lower(child.rows, i, j):
                        rejected += 1
                        assert canonical_graph(child) != child, (g, i, j)
    assert rejected > 0


# canonical_graph calls of a cold enumeration of every level of G(7, .):
# one per class of the lower half (522 complements), and one per child of
# the upper half that the column check lets through (919, of which 521 are
# canonical).
G7_CANONICAL_SEARCHES = 1441


def test_cold_enumeration_search_count(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    searched = []
    search = enumeration.canonical_graph

    def counted(g):
        searched.append(g)
        return search(g)

    monkeypatch.setattr(enumeration, "canonical_graph", counted)
    assert sum(count_classes(7, m) for m in range(22)) == TOTAL_CLASSES[7]
    assert len(searched) == G7_CANONICAL_SEARCHES


def count_canonical_states(n):
    """The states canonical_key expands over a cold enumeration of every
    level of G(n, .): the frontier states of each search, plus its root
    state.  A line tracer counts runs of the line that opens a state, so
    no counter sits in the library."""
    lines, first = inspect.getsourcelines(canonical_key)
    opens = {first + i for i, line in enumerate(lines)
             if line.strip() == "(c0, m0), tail = state[0], state[1:]"}
    assert len(opens) == 1
    states = 0

    def local(frame, event, arg):
        nonlocal states
        if event == "line" and frame.f_lineno in opens:
            states += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code is canonical_key.__code__:
            return local
        return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_LEVELS", {})
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            for m in range(comb(n, 2) + 1):
                count_classes(n, m)
        finally:
            sys.settrace(previous)
    return states


def test_canonical_search_work_is_pinned():
    # Placing twins out of label order, or an isolated vertex beside its
    # siblings, returns the same keys from more states: 5,264 and 4,197
    # here.  CI runs the same count over G(8, .): 844,659, the 829,170
    # frontier states plus one root state for each of the 15,489 searches.
    assert count_canonical_states(6) == 3569


def _count_solves(monkeypatch):
    """The graphs family_profile hands to each solver from now on, by
    route: copec_exact for edges, copvc_value for a vertex value with no
    parent bound, copvc_value_hi for a copvc_value call given a bound hi."""
    solved = {"copec_exact": [], "copvc_value": [], "copvc_value_hi": []}
    copec_exact, copvc_value = enumeration.copec_exact, enumeration.copvc_value

    def edge(g, r):
        solved["copec_exact"].append(g)
        return copec_exact(g, r)

    def vertex(g, tau, hi=None):
        solved["copvc_value" if hi is None else "copvc_value_hi"].append(g)
        return copvc_value(g, tau, hi)

    monkeypatch.setattr(enumeration, "copec_exact", edge)
    monkeypatch.setattr(enumeration, "copvc_value", vertex)
    return solved


def check_top_down_sweep(n, tau, measure):
    """Read one measure ("vertex" or "edge") of G(n, .) at tau from
    m = C(n, 2) down, check every value against a direct solve, and return
    the number of classes checked."""
    direct = copvc_value if measure == "vertex" else copec_value
    checked = 0
    for m in reversed(range(comb(n, 2) + 1)):
        values = family_profile(n, m, Fraction(tau, n), measure)
        level = list(enumerate_gnm(n, m))
        assert values == tuple(direct(g, tau) for g in level), \
            (n, m, tau, measure)
        checked += len(level)
    return checked


# Solves of a sweep of G(7, .) from m = 21 down, per tau, out of 1044
# classes.  Edge: the classes for which no parent's cut holds that
# parent's extra pair and the parents' values leave two values open.
# Vertex: K_7, which has no parent, and the classes whose parents all
# share one value, each a search bounded by it.
G7_TOP_DOWN_EDGE_SOLVES = {1: 1, 2: 63, 3: 175, 4: 223, 5: 354, 6: 726}
G7_TOP_DOWN_VERTEX_SOLVES = {1: 913, 2: 889, 3: 824, 4: 880, 5: 877, 6: 868}


def _sweep_solves(monkeypatch, measure):
    """{tau: solves} of the checked top-down sweeps of G(7, .), after
    checking every smaller order at every tau too.  CI checks both
    measures over G(8, .) at tau = 2, 4 and 6."""
    forget_family_profiles(monkeypatch)
    solved = _count_solves(monkeypatch)
    made = {}
    for n in range(1, 8):
        for tau in range(1, n):
            for seen in solved.values():
                seen.clear()
            assert check_top_down_sweep(n, tau, measure) == TOTAL_CLASSES[n]
            made[tau] = {name: len(seen) for name, seen in solved.items()}
    return made


def test_inherited_edge_values_match_direct_solves(monkeypatch):
    made = _sweep_solves(monkeypatch, "edge")
    assert {tau: solves["copec_exact"] for tau, solves in made.items()} \
        == G7_TOP_DOWN_EDGE_SOLVES
    assert all(solves["copvc_value"] == solves["copvc_value_hi"] == 0
               for solves in made.values())


def test_bounded_vertex_values_match_direct_solves(monkeypatch):
    made = _sweep_solves(monkeypatch, "vertex")
    assert {tau: solves["copvc_value"] + solves["copvc_value_hi"]
            for tau, solves in made.items()} == G7_TOP_DOWN_VERTEX_SOLVES
    # only K_7 has no parent to bound it
    assert all(solves["copvc_value"] == 1 and solves["copec_exact"] == 0
               for solves in made.values())


def test_bounded_vertex_sweep_work_is_pinned(monkeypatch):
    # The failure tests of a vertex sweep of G(7, .) from m = 21 down, per
    # tau: a bounded search stops at the first set that reaches the lower
    # end of its class's interval.  A full search of every class makes
    # 5,704 / 12,850 / 14,430 / 11,363 / 4,979 / 0
    # (test_vertex_search_work_is_pinned).
    forget_family_profiles(monkeypatch)
    calls = 0
    oversized_part = Graph.oversized_part

    def counted(self, tau, within=None):
        nonlocal calls
        calls += 1
        return oversized_part(self, tau, within)

    monkeypatch.setattr(Graph, "oversized_part", counted)
    made = {}
    for tau in range(1, 7):
        calls = 0
        for m in reversed(range(comb(7, 2) + 1)):
            family_profile(7, m, Fraction(tau, 7), "vertex")
        made[tau] = calls
    assert made == {1: 2582, 2: 5240, 3: 5488, 4: 4861, 5: 2712, 6: 0}


def test_edge_level_inherits_from_any_stored_level_above(monkeypatch):
    # Level 15, read between levels 20 and 19, does not stop level 19 from
    # inheriting level 20's cuts.
    forget_family_profiles(monkeypatch)
    solved = _count_solves(monkeypatch)["copec_exact"]
    counts = {}
    for m in (20, 15, 19):
        solved.clear()
        values = family_profile(7, m, Fraction(3, 7), "edge")
        counts[m] = len(solved)
        assert values == tuple(copec_value(g, 3) for g in enumerate_gnm(7, m))
    assert counts == {20: 1, 15: count_classes(7, 15), 19: 1}


def _requests(n, order):
    """The levels of G(n, .) in the given request order."""
    ms = list(range(comb(n, 2) + 1))
    if order == "descending":
        return ms[::-1]
    # runs of three descending levels, the runs in seeded order
    runs = [ms[i:i + 3][::-1] for i in range(0, len(ms), 3)]
    random.Random(n).shuffle(runs)
    return [m for run in runs for m in run]


def test_request_orders_give_identical_profiles(monkeypatch):
    profiles = {}
    for order in ("ascending", "descending", "interleaved"):
        forget_family_profiles(monkeypatch)
        got = profiles[order] = {}
        for n in range(1, 8):
            for r in STANDARD_GRID:
                ms = (range(comb(n, 2) + 1) if order == "ascending"
                      else _requests(n, order))
                for m in ms:
                    got[n, m, r] = tuple(family_profile(n, m, r, measure)
                                         for measure in ("vertex", "edge"))
    assert profiles["ascending"] == profiles["descending"]
    assert profiles["ascending"] == profiles["interleaved"]


def test_family_profile_solves_only_the_measure_read(monkeypatch):
    forget_family_profiles(monkeypatch)
    solved = _count_solves(monkeypatch)
    half = Fraction(1, 2)
    # level 8 has no stored parent level; level 7 is bounded by level 8
    assert len(family_profile(6, 8, half, "edge")) == count_classes(6, 8)
    assert len(family_profile(6, 7, half, "edge")) == count_classes(6, 7)
    edge_solves = len(solved["copec_exact"])
    assert count_classes(6, 8) < edge_solves < count_classes(6, 8) + \
        count_classes(6, 7)
    assert solved["copvc_value"] == solved["copvc_value_hi"] == []
    # both vertex routes are watched: a direct solve and a bounded one
    assert len(family_profile(6, 8, half, "vertex")) == count_classes(6, 8)
    assert len(solved["copvc_value"]) == count_classes(6, 8)
    assert len(family_profile(6, 7, half, "vertex")) == count_classes(6, 7)
    assert solved["copvc_value_hi"]
    assert len(solved["copec_exact"]) == edge_solves
    # out-of-range requests still fail at the call
    for n, m in ((9, 0), (4, 7)):
        with pytest.raises(ValueError):
            family_profile(n, m, half, "vertex")


def test_family_profile_measures():
    # At floor(r*n) = 0 no edge removal leaves a failure state, while every
    # vertex must go.
    quarter = Fraction(1, 4)
    assert family_profile(3, 2, quarter, "edge") is None
    assert family_profile(3, 2, quarter, "vertex") == (3,)
    for measure in ("cut", "Vertex", None):
        with pytest.raises(ValueError):
            family_profile(5, 6, Fraction(1, 2), measure)


def test_values_are_stored_once_per_level(monkeypatch):
    # Each read of a stored level hands back the same tuple, counted once
    # when the level was solved.
    forget_family_profiles(monkeypatch)
    for m in (10, 11):
        for measure in ("edge", "vertex"):
            first = family_profile(7, m, Fraction(1, 3), measure)
            assert family_profile(7, m, Fraction(1, 3), measure) is first


def check_family_net(n):
    """Check three facts over every class of G(n, .), at every tau from 1
    to n - 1 and for both measures, and return the number of parent pairs
    checked, summed over tau.

    - value(P) - 1 <= value(G) <= value(P) for each class G and each class
      P = G + e one level up in the same labels: the keys c of G and
      c | 2^b of P, for a 0 bit b of c (the relation edge values are
      inherited along).
    - The vertex value is at most the edge value: removing one end of each
      edge of a minimum cut leaves a failure state.
    - Neither value rises from tau to tau + 1: a failure state at tau is one
      at tau + 1.
    """
    top = comb(n, 2)
    full = (1 << top) - 1
    previous = None  # key -> values at tau - 1
    pairs = 0
    for tau in range(1, n):
        r = Fraction(tau, n)
        # canonical key -> (vertex value, edge value), levels m + 1 and up
        values = {}
        for m in reversed(range(top + 1)):
            vertex_values, edge_values = (family_profile(n, m, r, measure)
                                          for measure in ("vertex", "edge"))
            level = dict(zip(enumeration._level(n, m),
                             zip(vertex_values, edge_values)))
            for key, (vertex, edge) in level.items():
                assert vertex <= edge, (n, m, tau, key)
                free = ~key & full
                while free:
                    bit = free & -free
                    free ^= bit
                    parent = values.get(key | bit)
                    if parent is not None:
                        pairs += 1
                        assert parent[0] - 1 <= vertex <= parent[0], \
                            (n, m, tau, key, bit)
                        assert parent[1] - 1 <= edge <= parent[1], \
                            (n, m, tau, key, bit)
                if previous is not None:
                    assert (vertex <= previous[key][0]
                            and edge <= previous[key][1]), \
                        (n, m, tau, key)
            values.update(level)
        previous = values
    return pairs


def test_family_net_over_g7():
    # 2,405 parent pairs at each of the six taus.  CI runs the same check
    # over G(8, .): 39,760 pairs per tau, 278,320 in all.
    assert check_family_net(7) == 14430
