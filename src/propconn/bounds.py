"""Largest bipartite subgraph (max-cut), integer-exact lower bounds on it,
and checkers for two open claims about the family maximum edge value.

Max-cut is one branch and bound over the parts holding vertex 0, visited
in lex order, so the first optimum it meets is the lex-first part; the
optimum and that part come from the same pass.  Its bound lets at most
floor(k^2/4) edges among k unassigned vertices cross: a bipartition of k
vertices cuts at most floor(k/2) * ceil(k/2) pairs.

The checkers never assert: they return verdicts with the computed
quantities on both sides, and a falsifying instance is a first-class
result carrying its witness graph.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil, isqrt
from typing import NamedTuple

from .graph import Graph, proportion
from .enumeration import enumerate_gnm, family_profile
from .families import extremal_by_enumeration

# Largest order max-cut accepts: its slowest measured case at n = 24 is
# K_24, 0.50-0.52 s on a 2-vCPU CPython 3.11 machine.
MAX_CUT_VERTICES = 24


class BipartiteWitness(NamedTuple):
    """A bipartition of all vertices and the number of edges crossing it."""

    partition: tuple[tuple[int, ...], tuple[int, ...]]
    crossing_edges: int


class ConjectureVerdict(NamedTuple):
    name: str
    n: int
    m: int
    r: Fraction
    holds: bool
    lhs: int
    rhs: Fraction | int | None
    witness: Graph | None = None


def max_bipartite_subgraph(g: Graph) -> BipartiteWitness:
    """Bipartition of g maximizing crossing edges (exact max-cut).

    Tie-break: among maximizing bipartitions, the part containing vertex 0
    is the lexicographically smallest such vertex set (as a sorted tuple).

    One branch and bound finds both: vertex 0 is pinned to part A and the
    others are assigned in label order.  A node first scores the part that
    stops there (every later vertex in B), then tries the next vertex in A,
    then in B.  That visits parts in sorted-tuple lex order, a part before
    its extensions, so keeping only strict gains leaves the lex-first
    optimum.  The bound caps the cut among k unassigned vertices at
    floor(k^2/4), as parts of s and k - s vertices have s(k - s) pairs across.
    """
    if g.n > MAX_CUT_VERTICES:
        raise ValueError(f"max-cut search supports n <= {MAX_CUT_VERTICES}")
    if g.n == 0:
        return BipartiteWitness(((), ()), 0)
    n, rows = g.n, g.rows
    best, best_a = -1, 0
    cap, inner = [0] * (n + 1), 0  # cap[v]: the cut bound among v..n-1
    for v in reversed(range(n)):
        inner += (rows[v] >> v + 1).bit_count()
        cap[v] = min(inner, (n - v) ** 2 // 4)

    def search(v: int, side_a: int, side_b: int, cross: int, a_rest: int,
               b_rest: int):
        # a_rest, b_rest: edges from A, from B to v..n-1.  Each of those
        # vertices cuts its edges to one side only; the bound takes the larger.
        nonlocal best, best_a
        bound = cross + cap[v]
        if bound + a_rest + b_rest <= best:
            return
        for row in rows[v:]:
            a = (row & side_a).bit_count()
            b = (row & side_b).bit_count()
            bound += a if a > b else b
        if bound <= best:
            return
        if cross + a_rest > best:
            best, best_a = cross + a_rest, side_a
        if v == n:
            return
        row = rows[v]
        to_a = (row & side_a).bit_count()
        to_b = (row & side_b).bit_count()
        ahead = (row >> (v + 1)).bit_count()
        search(v + 1, side_a | 1 << v, side_b, cross + to_b,
               a_rest - to_a + ahead, b_rest - to_b)
        search(v + 1, side_a, side_b | 1 << v, cross + to_a, a_rest - to_a,
               b_rest - to_b + ahead)

    search(1, 1, 0, 0, rows[0].bit_count(), 0)
    part_a = tuple(v for v in range(n) if best_a >> v & 1)
    part_b = tuple(v for v in range(n) if not best_a >> v & 1)
    return BipartiteWitness((part_a, part_b), best)


def edwards_bound(m: int) -> int:
    """ceil(m/2 + (sqrt(8m+1) - 1)/8), evaluated with integer arithmetic.

    k qualifies iff 8k - 4m + 1 >= sqrt(8m+1); the bound sits exactly on an
    integer when m is triangular, where float rounding could flip it.
    """
    if m < 0:
        raise ValueError("edge count must be non-negative")
    s = isqrt(8 * m + 1)
    ceil_sqrt = s if s * s == 8 * m + 1 else s + 1
    return max(0, -(-(4 * m - 1 + ceil_sqrt) // 8))


def egk_bounds(g: Graph) -> tuple[int | None, int | None]:
    """Lower bounds on the largest bipartite subgraph: (m + n/3)/2 when g
    has no isolated vertices, (m + (n-1)/2)/2 when g is connected; each
    rounded up and None when its hypothesis fails."""
    n, m = g.n, g.m
    no_isolated = all(g.degree(v) > 0 for v in range(n))
    isolated_free_bound = ceil(Fraction(3 * m + n, 6)) if no_isolated else None
    connected = len(g.component_masks()) == 1
    connected_bound = ceil(Fraction(2 * m + n - 1, 4)) if connected else None
    return isolated_free_bound, connected_bound


def _balanced_partitions(n: int, k: int):
    """Set partitions of range(n) into k blocks of size n // k, each block
    led by its smallest element (every partition generated once)."""
    size = n // k

    def rec(remaining: tuple[int, ...], acc: list[int]):
        if not remaining:
            yield tuple(acc)
            return
        head, rest = remaining[0], remaining[1:]
        for others in combinations(rest, size - 1):
            block = sum(1 << v for v in others) | 1 << head
            taken = set(others)
            acc.append(block)
            yield from rec(tuple(v for v in rest if v not in taken), acc)
            acc.pop()

    yield from rec(tuple(range(n)), [])


def _cross_edges_of_partition(g: Graph, blocks: tuple[int, ...]) -> int:
    internal = 0
    for block in blocks:
        mask = block
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            internal += (g.rows[v] & mask).bit_count()
    return g.m - internal


def check_equal_partition_conjecture(n: int, m: int, k: int) -> ConjectureVerdict:
    """At r = 1/k with k dividing n: does some graph attaining the family
    maximum edge value admit a minimum edge disconnecting set whose failure
    state is exactly k connected components of order n/k?

    A qualifying graph needs a balanced k-partition with connected blocks
    whose crossing-edge count equals its own edge value (crossing counts of
    balanced partitions never fall below it).  lhs is the family maximum;
    rhs is the best balanced connected-block crossing count over the
    maximizers, or None when no maximizer admits connected blocks at all.
    holds iff lhs == rhs.
    """
    r = proportion(1, k)
    if n % k != 0:
        raise ValueError(f"k={k} must divide n={n}")
    values = family_profile(n, m, r).edge_values
    coemax = max(values)
    partitions = list(_balanced_partitions(n, k))
    best_cross = best_graph = fallback = None
    for g, value in zip(enumerate_gnm(n, m), values):
        if value != coemax:
            continue
        if fallback is None:
            fallback = g
        for blocks in partitions:
            if not all(g.grow_component(b & -b, b) == b for b in blocks):
                continue
            cross = _cross_edges_of_partition(g, blocks)
            if best_cross is None or cross < best_cross:
                best_cross, best_graph = cross, g
        if best_cross == coemax:
            break
    holds = best_cross == coemax
    return ConjectureVerdict("equal_partition", n, m, r, holds,
                             lhs=coemax, rhs=best_cross,
                             witness=best_graph if holds else fallback)


def check_coemax_upper_bound(n: int, m: int) -> ConjectureVerdict:
    """For even n at r = 1/2: is the family maximum edge value at most
    m/2 + 7n/12?  Compared as exact rationals."""
    if n % 2 != 0:
        raise ValueError("upper-bound check needs even n")
    r = Fraction(1, 2)
    coemax = extremal_by_enumeration(n, m, r, "coemax")
    rhs = Fraction(m, 2) + Fraction(7 * n, 12)
    return ConjectureVerdict("coemax_upper_bound", n, m, r,
                             holds=coemax.value <= rhs, lhs=coemax.value,
                             rhs=rhs, witness=coemax.witness)

