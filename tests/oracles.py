"""Dead-simple reference implementations used only by the test suite.

Everything here enumerates without pruning so that the production solvers
have an independent baseline to match.
"""

from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial, floor, gcd, lcm, prod

from propconn.graph import Graph


def brute_lex_first_vertex_set(g: Graph, r) -> tuple:
    """The first disconnecting subset in combinations(range(g.n), k) at the
    minimum k."""
    tau = floor(r * g.n)
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            if g.remove_vertices(subset).is_failure_state(tau):
                return subset
    raise AssertionError("removing all vertices always fails the graph")


def brute_min_vertex_set(g: Graph, r) -> int:
    """Minimum vertex disconnecting cardinality by scanning all subsets."""
    return len(brute_lex_first_vertex_set(g, r))


# The vertex solver's former search: each oversized component's vertex
# subsets in size-ascending, then lex order, tested on the mask of the
# surviving vertices.  scan_min_vertex_set(g, tau) is the reference for
# solver._min_vertex_set(g, tau).
def scan_min_vertex_set(g: Graph, tau: int) -> list[int]:
    """The lexicographically first minimum vertex set whose removal leaves
    no component of order > tau, as sorted labels."""
    if tau <= 0:
        return list(range(g.n))
    removed = 0
    for comp in g.component_masks():
        if comp.bit_count() <= tau:
            continue
        bits = [1 << v for v in range(g.n) if comp >> v & 1]
        removed |= next(
            (s for k in range(1, len(bits) - tau)
             for s in map(sum, combinations(bits, k))
             if g.is_failure_state(tau, comp ^ s)),
            # Removing any len(bits) - tau vertices leaves only tau.
            sum(bits[:len(bits) - tau]))
    return [v for v in range(g.n) if removed >> v & 1]


def brute_lex_first_edge_set(g: Graph, r) -> tuple | None:
    """The first disconnecting subset in combinations(g.edges(), k) at the
    minimum k, or None when infeasible."""
    tau = floor(r * g.n)
    edges = g.edges()
    for k in range(len(edges) + 1):
        for subset in combinations(edges, k):
            if g.remove_edges(subset).is_failure_state(tau):
                return subset
    return None


def brute_min_edge_set(g: Graph, r) -> int | None:
    """Minimum edge disconnecting cardinality, or None when infeasible."""
    found = brute_lex_first_edge_set(g, r)
    return None if found is None else len(found)


def brute_max_cut(g: Graph) -> int:
    best = 0
    for size in range(g.n):
        for rest in combinations(range(1, g.n), size):
            side = 1
            for v in rest:
                side |= 1 << v
            value = sum((g.rows[v] & ~side).bit_count()
                        for v in range(g.n) if side >> v & 1)
            best = max(best, value)
    return best


def brute_lex_first_max_cut_part(g: Graph) -> tuple:
    """The max-cut part holding vertex 0 that comes first as a sorted tuple
    among all parts of maximum crossing count (n >= 1)."""
    def cut(part):
        return sum(1 for u, v in g.edges() if (u in part) != (v in part))

    parts = [(0,) + rest for size in range(g.n)
             for rest in combinations(range(1, g.n), size)]
    return min(parts, key=lambda part: (-cut(part), part))


def brute_canonical_key(g: Graph) -> int:
    """Minimum upper-triangle key over every vertex permutation (n <= 7)."""
    best = None
    for perm in permutations(range(g.n)):
        key = 0
        for j in range(1, g.n):
            for i in range(j):
                key = (key << 1) | (g.rows[perm[i]] >> perm[j] & 1)
        if best is None or key < best:
            best = key
    return best if best is not None else 0


# The canonical search before its state became an ordered column partition:
# a state pairs each unplaced twin-class representative with its next
# column, and every child of a least-column vertex is built.
# reference_canonical_graph(g) is the reference for
# enumeration.canonical_graph(g).
def reference_canonical_order(rows: tuple[int, ...],
                              n: int) -> tuple[int, ...]:
    """Vertex ordering minimizing the column-major upper-triangle bitstring."""
    # A state pairs unplaced vertices with their next columns; equal states
    # have identical futures, so each is kept once, with the first ordering
    # that reaches it.  Twins u < w (N(u) - {w} = N(w) - {u}) can swap in
    # any ordering without changing its key, so each twin class is placed
    # in label order: a state holds only the lowest unplaced member of each
    # class, and placing it hands its slot to its next-higher twin.
    # Unplaced twins share their next column, so the slot's column serves
    # the whole class.
    higher = [None] * n
    last = {}
    for v in range(n):
        # open neighbourhoods group non-adjacent twins, closed ones adjacent
        # twins; no open neighbourhood equals a closed one, and no vertex
        # has twins of both kinds
        for nbhd in (rows[v], rows[v] | 1 << v):
            if nbhd in last:
                higher[last[nbhd]] = v
            last[nbhd] = v
    frontier = {tuple((v, 0) for v in range(n) if v not in higher): ()}
    for _ in range(n):
        mn = min(c for state in frontier for _, c in state)
        children = {}
        for state, order in frontier.items():
            for v, c in state:
                if c == mn:
                    row, w = rows[v], higher[v]
                    if w is None:
                        child = tuple((u, cu << 1 | row >> u & 1)
                                      for u, cu in state if u != v)
                    else:
                        child = tuple((u, cu << 1 | row >> u & 1) if u != v
                                      else (w, c << 1 | row >> w & 1)
                                      for u, cu in state)
                    children.setdefault(child, order + (v,))
        frontier = children
    return frontier[()]


def reference_canonical_graph(g: Graph) -> Graph:
    return g._relabel(reference_canonical_order(g.rows, g.n))


def _partitions(n: int, most: int):
    """The partitions of n into parts of at most ``most``, largest first."""
    if n == 0:
        yield ()
    for k in range(min(n, most), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def polya_class_counts(n: int) -> list[int]:
    """Classes of G(n, m) for m = 0..C(n,2), by Polya counting over the
    action of S_n on vertex pairs (Harary and Palmer, "Graphical
    Enumeration", ch. 4).

    By Burnside, the count is the average over permutations of the edge
    sets each one fixes, and a permutation fixes exactly the unions of its
    cycles on pairs: with cycle lengths L it adds prod(1 + x^l, l in L).
    Permutations with the same cycle type, n!/z of them, act alike.  A
    k-cycle moves its own pairs in (k - 1)/2 cycles of length k when k is
    odd, and in k/2 - 1 of length k plus one of length k/2 when k is even;
    two k-cycles move the pairs between them in k cycles of length k; and
    cycles of lengths a != b in gcd(a, b) cycles of length lcm(a, b).
    """
    top = comb(n, 2)
    total = [0] * (top + 1)
    for cycle_type in _partitions(n, n):
        count = Counter(cycle_type)
        lengths = []
        for k, j in count.items():
            lengths += [k] * ((k - 1) // 2 * j + k * comb(j, 2))
            if k % 2 == 0:
                lengths += [k // 2] * j
        for (a, ja), (b, jb) in combinations(count.items(), 2):
            lengths += [lcm(a, b)] * (gcd(a, b) * ja * jb)
        fixed = [1] + [0] * top
        for length in lengths:
            for m in range(top, length - 1, -1):
                fixed[m] += fixed[m - length]
        weight = factorial(n) // prod(k ** j * factorial(j)
                                      for k, j in count.items())
        total = [t + weight * f for t, f in zip(total, fixed)]
    return [t // factorial(n) for t in total]


# The edge solver's former partition DP, which walks every submask of every
# vertex set, connected or not: partition_dp(lex_edge_scores(h), tau) is the
# reference score for solver._best_partition_score(h, tau).
def lex_edge_scores(h: Graph) -> list[int]:
    """inside[s]: the total score of the edges with both ends in s, where
    the i-th of h's E edges (in ``h.edges()`` order) scores 2^E - 2^(E-1-i).

    A partition with more internal edges always scores higher; among those
    keeping equally many, the one whose crossing set sorts first scores
    highest, since the scores differ in distinct powers of two.
    """
    edges = h.edges()
    top = 1 << len(edges)
    score = {(1 << u) | (1 << v): top - (top >> (i + 1))
             for i, (u, v) in enumerate(edges)}
    full = (1 << h.n) - 1
    inside = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        if rest:
            # The edges of s avoid low, avoid the next vertex, or are the
            # pair of the two.
            second = rest & -rest
            inside[s] = (inside[rest] + inside[s ^ second]
                         - inside[rest ^ second] + score.get(low | second, 0))
    return inside


def partition_dp(inside: list[int], tau: int) -> int:
    """The largest total of inside[part] over the partitions of the full
    vertex set into parts of order at most tau (tau >= 1)."""
    limit = tau - 1
    best = [0] * len(inside)
    for s in range(1, len(inside)):
        low = s & -s
        rest = s ^ low
        # The part holding the lowest vertex is {low} | sub for sub <= rest.
        b = -1
        sub = rest
        while True:
            if sub.bit_count() <= limit:
                part = low | sub
                cand = inside[part] + best[s ^ part]
                if cand > b:
                    b = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[s] = b
    return best[-1]


def max_partition_edges(n: int, tau: int) -> int:
    """Max of sum C(a_i, 2) over partitions of n into parts of order <= tau
    (the most edges any failed graph can carry, found without building any
    graphs)."""
    best = {0: 0}
    for total in range(1, n + 1):
        best[total] = max(
            best[total - part] + part * (part - 1) // 2
            for part in range(1, min(tau, total) + 1)
        )
    return best[n]


def all_labeled_graphs(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
