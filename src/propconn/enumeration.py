"""Isomorphism-class enumeration of small graphs.

Classes are identified by a canonical form: the minimum, over all vertex
orderings, of the upper-triangle adjacency bitstring read column-major (the
same bit order graph6 uses).  The minimum is built one column at a time: a
prefix of the ordering leaves each unplaced vertex a next column (its
adjacency bits to the placed vertices), and the search keeps, level by
level, only the prefixes whose columns so far are minimal.  Prefixes that
leave the same vertices with the same next columns have identical futures,
so each such state is kept once; this returns exactly the global minimum
without touching most of the n! orderings.

Graphs with n vertices and m edges are generated level by level: every
(m+1)-edge graph arises from an m-edge graph by adding one edge, so adding
each non-edge to each m-level representative and deduplicating by canonical
key yields exactly one representative per class.  Levels are cached per n
for the lifetime of the process.
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


def _canonical_order(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Vertex ordering minimizing the column-major upper-triangle bitstring."""
    # A state pairs each unplaced vertex with its next column; equal states
    # have identical futures, so each is kept once, with the first ordering
    # that reaches it.
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
                    children.setdefault(child, order + (v,))
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


def canonical_graph(g: Graph) -> Graph:
    """Representative of g's isomorphism class under the minimal ordering.
    Raises ValueError, before any search, when g has more than
    MAX_CANONICAL_VERTICES vertices."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical search supports n <= "
                         f"{MAX_CANONICAL_VERTICES}, got {g.n}")
    return g._relabel(_canonical_order(g.rows, g.n))


def canonical_key(g: Graph) -> int:
    return upper_triangle_key(canonical_graph(g))


# n -> list of levels; level m is a key-sorted list of canonical graphs.
_LEVELS: dict[int, list[list[Graph]]] = {}


def _grow_levels(n: int, target_m: int) -> list[list[Graph]]:
    levels = _LEVELS.setdefault(n, [[edgeless(n)]])
    while len(levels) <= target_m:
        seen: dict[int, Graph] = {}
        for rep in levels[-1]:
            for u, v in rep.non_edges():
                cg = canonical_graph(rep.add_edge(u, v))
                seen.setdefault(upper_triangle_key(cg), cg)
        levels.append([seen[k] for k in sorted(seen)])
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
