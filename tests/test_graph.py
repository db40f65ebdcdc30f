import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import propconn
from propconn.graph import (Graph, complete, complete_bipartite, cycle,
                            disjoint_union, edgeless, parse_proportion, path,
                            proportion, threshold)

from conftest import graphs, proportions


def orders(g):
    """Component orders of g, largest first."""
    return sorted((c.bit_count() for c in g.component_masks()), reverse=True)


def test_components_connected_path():
    assert orders(path(4)) == [4]


def test_components_edgeless():
    assert orders(edgeless(3)) == [1, 1, 1]


def test_components_union():
    g = disjoint_union(complete(3), complete(2))
    assert g.n == 5 and g.m == 4
    assert orders(g) == [3, 2]


def test_failure_state_union_counterexample():
    g = disjoint_union(complete(3), complete(2))
    tau = threshold(Fraction(1, 2), 5)
    assert tau == 2
    assert not g.is_failure_state(tau)


def test_failure_state_empty_graph_vacuous():
    assert edgeless(0).is_failure_state(threshold(Fraction(1, 2), 5))


def test_failure_state_edgeless_quarter():
    tau = threshold(Fraction(1, 4), 4)
    assert tau == 1
    assert edgeless(4).is_failure_state(tau)


def test_remove_middle_path_vertex():
    assert orders(path(4).remove_vertices([1])) == [2, 1]


def test_remove_no_vertices_is_identity():
    g = cycle(5)
    assert g.remove_vertices([]) == g


def test_remove_all_vertices():
    assert complete(3).remove_vertices([0, 1, 2]) == edgeless(0)


def test_remove_vertex_out_of_range():
    with pytest.raises(ValueError):
        path(3).remove_vertices([3])


def test_cycle_minus_edge_is_path():
    g = cycle(4).remove_edges([(3, 0)])
    assert orders(g) == [4] and g.m == 3


def test_remove_no_edges_is_identity():
    g = complete_bipartite(2, 3)
    assert g.remove_edges([]) == g


def test_remove_all_edges():
    assert complete(3).remove_edges([(0, 1), (0, 2), (1, 2)]) == edgeless(3)


def test_remove_missing_edge():
    with pytest.raises(ValueError):
        path(3).remove_edges([(0, 2)])


def test_complement_complete_is_edgeless():
    assert complete(6).complement() == edgeless(6)


def test_complement_c5_self_complementary():
    # complement of the 5-cycle is again a 5-cycle on the same vertices
    g = cycle(5).complement()
    assert g.m == 5 and all(g.degree(v) == 2 for v in range(5))
    assert len(g.component_masks()) == 1


@given(graphs())
def test_complement_involution(g):
    assert g.complement().complement() == g


@given(graphs(max_n=6), proportions())
def test_failure_monotone_under_edge_removal(g, r):
    if g.n == 0:
        return
    tau = threshold(r, g.n)
    if not g.is_failure_state(tau):
        return
    edges = g.edges()
    assert g.remove_edges(edges[: len(edges) // 2]).is_failure_state(tau)


@given(graphs(min_n=1), proportions())
def test_tau_at_least_order_means_failure(g, r):
    assert g.is_failure_state(g.n)


@given(graphs(), st.data())
def test_component_orders_sum_and_removal(g, data):
    assert sum(orders(g)) == g.n
    if g.n:
        k = data.draw(st.integers(0, g.n))
        dropped = data.draw(st.permutations(range(g.n)))[:k]
        assert sum(orders(g.remove_vertices(dropped))) == g.n - k


@given(graphs(), st.data())
def test_growth_within_mask_matches_networkx(g, data):
    within = data.draw(st.integers(0, (1 << g.n) - 1))
    induced = nx.Graph()
    induced.add_nodes_from(v for v in range(g.n) if within >> v & 1)
    induced.add_edges_from((u, v) for u, v in g.edges()
                           if within >> u & 1 and within >> v & 1)
    expected = [sum(1 << v for v in comp)
                for comp in nx.connected_components(induced)]
    caps = range(g.n + 1)

    def connected_part(part, comp, cap):
        # a connected set of cap + 1 vertices inside comp
        vertices = [v for v in range(g.n) if part >> v & 1]
        return (part & ~comp == 0 and len(vertices) == cap + 1
                and nx.is_connected(induced.subgraph(vertices)))

    for comp in expected:
        for seed in (1 << v for v in range(g.n) if comp >> v & 1):
            assert g.grow_component(seed, within) == comp
            for cap in caps:
                # a capped growth is the whole component when that fits,
                # and otherwise exactly cap + 1 connected vertices of it
                capped = g.grow_component(seed, within, cap)
                if comp.bit_count() <= cap:
                    assert capped == comp
                else:
                    assert capped & seed and connected_part(capped, comp, cap)
    for cap in caps:
        over = [comp for comp in expected if comp.bit_count() > cap]
        part = g.oversized_part(cap, within)
        assert g.is_failure_state(cap, within) == (not over) == (part == 0)
        if over:
            assert any(connected_part(part, comp, cap) for comp in over)


def test_capped_growth_keeps_the_highest_vertices():
    # Seeded at the centre of K_{1,4}, one batch holds every leaf: a cap of
    # 2 keeps the centre and the two highest leaves.
    star = complete_bipartite(1, 4)
    assert star.grow_component(1, 0b11111, 2) == 0b11001
    assert star.oversized_part(2) == 0b11001
    # The witness grows from the highest vertex of the highest oversized
    # component, highest member first: P3 + P4 at tau 2 gives 6-5-4.
    assert disjoint_union(path(3), path(4)).oversized_part(2) == 0b1110000
    assert disjoint_union(path(4), path(2)).oversized_part(2) == 0b0001110


@given(st.integers(2, 10 ** 4), st.data())
def test_threshold_exactness(den, data):
    num = data.draw(st.integers(1, den - 1))
    n = data.draw(st.integers(1, 10 ** 6))
    r = Fraction(num, den)
    tau = threshold(r, n)
    assert tau == math.floor(r * n)
    assert 0 <= tau < n
    with pytest.raises(ValueError,
                       match="^threshold requires a positive original order$"):
        threshold(r, 0)


def test_package_exports_resolve():
    # every exported name is listed once and is defined by the package
    assert len(set(propconn.__all__)) == len(propconn.__all__)
    for name in propconn.__all__:
        assert hasattr(propconn, name), name
    assert propconn.threshold is threshold


def test_proportion_validation():
    assert proportion(2, 4) == Fraction(1, 2)
    for num, den in [(0, 3), (3, 3), (4, 3), (1, 0), (-1, 2)]:
        with pytest.raises(ValueError):
            proportion(num, den)


def test_parse_proportion_rejects_decimals():
    assert parse_proportion("2/3") == Fraction(2, 3)
    for text in ["0.5", "1", "1/2/3", "a/b"]:
        with pytest.raises(ValueError):
            parse_proportion(text)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_adjacency_symmetric():
    g = Graph(4, [(0, 2), (1, 3)])
    for u in range(4):
        for v in range(4):
            assert g.has_edge(u, v) == g.has_edge(v, u)
    assert g.m == 2
