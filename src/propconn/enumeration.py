"""Isomorphism-class enumeration of small graphs.

Classes are identified by a canonical form: the minimum, over all vertex
orderings, of the upper-triangle adjacency bitstring read column-major (the
same bit order graph6 uses).  The minimum is found by a depth-first search
over orderings that only ever extends with vertices whose next column is
minimal, pruned against the best complete ordering found so far; this
returns exactly the global minimum without touching most of the n!
orderings.

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

# Largest order canonical_graph accepts: the largest at which its worst
# case stays under a minute.  The worst cases are the edgeless and complete
# graphs, where every ordering ties and the search visits all n! of them,
# about 10x time per vertex; on a 2-vCPU CPython 3.11 machine each took
# 0.3 s at n = 8, 3.0-3.2 s at n = 9 and 26-27 s at n = 10; the edgeless
# graph took 292 s at n = 11.
MAX_CANONICAL_VERTICES = 10


def _canonical_order(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Vertex ordering minimizing the column-major upper-triangle bitstring."""
    if n <= 1:
        return tuple(range(n))
    best: list[int] | None = None       # per-level column chunks of best order
    best_order: list[int] | None = None

    def descend(order, remaining, chunks, trail):
        nonlocal best, best_order
        k = len(order)
        if best is not None:
            tied = True
            for i in range(k):
                if trail[i] != best[i]:
                    if trail[i] > best[i]:
                        return
                    tied = False
                    break
        else:
            tied = False
        if not remaining:
            if best is None or trail < best:
                best = list(trail)
                best_order = list(order)
            return
        mn = min(chunks[v] for v in remaining)
        if tied and mn > best[k]:
            return
        for v in remaining:
            if chunks[v] != mn:
                continue
            row = rows[v]
            child = {u: (chunks[u] << 1) | (row >> u & 1)
                     for u in remaining if u != v}
            order.append(v)
            trail.append(mn)
            descend(order, [u for u in remaining if u != v], child, trail)
            order.pop()
            trail.pop()

    descend([], list(range(n)), {v: 0 for v in range(n)}, [])
    return tuple(best_order)


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
