"""Isomorphism-class enumeration of small graphs.

Classes are identified by a canonical form: the minimum, over all vertex
orderings, of the upper-triangle adjacency bitstring read column-major (the
same bit order graph6 uses).  The minimum is built one column at a time: a
prefix of the ordering leaves each unplaced vertex a next column (its
adjacency bits to the placed vertices), and the search keeps, level by
level, only the prefixes whose columns so far are minimal.  Prefixes that
leave the same vertices with the same next columns have identical futures,
so each such state is kept once; this returns exactly the global minimum
without touching most of the n! orderings.  When two prefixes reach the
same state, mapping the one's i-th vertex to the other's and fixing every
unplaced vertex is an automorphism, which the search can hand back.

Graphs with n vertices and m edges are generated level by level: every
(m+1)-edge graph arises from an m-edge graph by adding one edge, and
automorphic non-edges give isomorphic graphs, so adding one non-edge per
orbit of a group of automorphisms of each m-level representative and
deduplicating by canonical key yields exactly one representative per class.
The automorphisms are those the canonical searches of the level met, so
they generate a subgroup of the automorphism group, whose orbits are finer:
some classes are reached twice, none is missed.  Levels above C(n,2)/2 are
the complements of the levels below it, one canonical search per class.
Levels are cached per n for the lifetime of the process.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .graph import Graph, Threshold, edgeless
from .solver import copvc_value, copec_value

MAX_ENUM_VERTICES = 8

# Largest order canonical_graph accepts.  The level search never holds more
# states than a depth-first search over the same minimal-column prefixes
# visits prefixes, and that search's worst case, the n! tied orderings of
# the edgeless and complete graphs, took 26-27 s at n = 10 on a 2-vCPU
# CPython 3.11 machine.  On the same machine the level search took at most
# about 0.09 s (4K2 + 2K1) over a sweep of 206 graphs at n = 10, and
# 0.014 s on the edgeless graph; the bound waits for a proven worst case.
MAX_CANONICAL_VERTICES = 10


def _canonical_order(rows: tuple[int, ...], n: int,
                     ties: list | None = None) -> tuple[int, ...]:
    """Vertex ordering minimizing the column-major upper-triangle bitstring.
    When a list is given, appends (first, other) for each pair of prefixes
    that reach the same state: first[i] -> other[i], every vertex outside
    them fixed, is an automorphism of the graph."""
    # A state pairs each unplaced vertex with its next column; equal states
    # have identical futures, so each is kept once, with the first ordering
    # that reaches it.  All prefixes of a level place the same columns, so
    # two that reach one state induce the same graph in their order and
    # meet every unplaced vertex alike.
    frontier = {tuple((v, 0) for v in range(n)): ()}
    for _ in range(n):
        mn = min(c for state in frontier for _, c in state)
        children = {}
        for state, order in frontier.items():
            for v, c in state:
                if c == mn:
                    row = rows[v]
                    child = tuple((u, cu << 1 | row >> u & 1)
                                  for u, cu in state if u != v)
                    other = order + (v,)
                    first = children.setdefault(child, other)
                    if first is not other and ties is not None:
                        ties.append((first, other))
        frontier = children
    return frontier[()]


def upper_triangle_key(g: Graph) -> int:
    """Column-major upper-triangle bits of g as an integer (graph6 bit order)."""
    key = 0
    for j in range(1, g.n):
        col = 0
        for i in range(j):
            col = (col << 1) | (g.rows[i] >> j & 1)
        key = (key << j) | col
    return key


def canonical_graph(g: Graph, automorphisms: list | None = None) -> Graph:
    """Representative of g's isomorphism class under the minimal ordering.
    When a list is given, appends the automorphisms of the representative
    that the search met, each a tuple p mapping vertex v to p[v]; they
    generate a subgroup of its automorphism group, not always all of it.
    Raises ValueError, before any search, when g has more than
    MAX_CANONICAL_VERTICES vertices."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical search supports n <= "
                         f"{MAX_CANONICAL_VERTICES}, got {g.n}")
    ties = None if automorphisms is None else []
    order = _canonical_order(g.rows, g.n, ties)
    if ties:
        position = [0] * g.n
        for i, v in enumerate(order):
            position[v] = i
        for first, other in ties:
            p = list(range(g.n))
            for a, b in zip(first, other):
                p[position[a]] = position[b]
            automorphisms.append(tuple(p))
    return g._relabel(order)


def canonical_key(g: Graph) -> int:
    return upper_triangle_key(canonical_graph(g))


# n -> list of levels; level m is a key-sorted list of canonical graphs.
_LEVELS: dict[int, list[list[Graph]]] = {}
# n -> one set of automorphisms per graph of the top level of _LEVELS[n],
# while that level is still to be extended.
_TOP_AUTOMORPHISMS: dict[int, list[set[tuple[int, ...]]]] = {}


def _orbit_non_edges(g: Graph, automorphisms) -> list[tuple[int, int]]:
    """The first non-edge of g, in non_edges() order, from each orbit of the
    group the automorphisms generate."""
    firsts = []
    seen = set()
    for e in g.non_edges():
        if e in seen:
            continue
        firsts.append(e)
        seen.add(e)
        stack = [e]
        while stack:
            u, v = stack.pop()
            for p in automorphisms:
                a, b = p[u], p[v]
                f = (a, b) if a < b else (b, a)
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
    return firsts


def _grow_levels(n: int, target_m: int) -> list[list[Graph]]:
    if n not in _LEVELS:
        _LEVELS[n] = [[edgeless(n)]]
        # The adjacent transpositions generate all of Aut(edgeless(n)).
        _TOP_AUTOMORPHISMS[n] = [{
            tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
            for i in range(n - 1)}]
    levels = _LEVELS[n]
    half = comb(n, 2) // 2
    while len(levels) <= min(target_m, half):
        keep = len(levels) < half  # the new level is extended in turn
        seen: dict[int, tuple[Graph, set]] = {}
        for rep, autos in zip(levels[-1], _TOP_AUTOMORPHISMS[n]):
            for u, v in _orbit_non_edges(rep, autos):
                found = [] if keep else None
                cg = canonical_graph(rep.add_edge(u, v), found)
                entry = seen.setdefault(upper_triangle_key(cg), (cg, set()))
                if keep:
                    entry[1].update(found)
        keys = sorted(seen)
        levels.append([seen[k][0] for k in keys])
        _TOP_AUTOMORPHISMS[n] = [seen[k][1] for k in keys]
    while len(levels) <= target_m:
        complements = [canonical_graph(g.complement())
                       for g in levels[comb(n, 2) - len(levels)]]
        levels.append(sorted(complements, key=upper_triangle_key))
    return levels


def enumerate_gnm(n: int, m: int):
    """Yield one canonical representative per isomorphism class in G(n, m),
    in increasing canonical-key order."""
    if not 0 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_ENUM_VERTICES}, got {n}")
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"m={m} out of range for n={n}")
    yield from _grow_levels(n, m)[m]


def count_classes(n: int, m: int) -> int:
    return len(list(enumerate_gnm(n, m)))


@dataclass(frozen=True)
class FamilyProfile:
    """Exact connectivity values of every class representative in G(n, m).

    ``vertex_values`` and ``edge_values`` align with the enumerate_gnm order;
    edge_values is None when tau = 0 (edge disconnection infeasible).
    """

    n: int
    m: int
    r: Fraction
    tau: int
    vertex_values: tuple[int, ...]
    edge_values: tuple[int, ...] | None


@lru_cache(maxsize=None)
def family_profile(n: int, m: int, r: Fraction) -> FamilyProfile:
    tau = Threshold.for_order(r, n).tau
    classes = list(enumerate_gnm(n, m))
    vertex_values = tuple(copvc_value(g, tau) for g in classes)
    if tau == 0:
        edge_values = None
    else:
        edge_values = tuple(copec_value(g, tau) for g in classes)
    return FamilyProfile(n, m, r, tau, vertex_values, edge_values)
