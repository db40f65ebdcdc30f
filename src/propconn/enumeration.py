"""Isomorphism-class enumeration of small graphs.

Classes are identified by a canonical form: the minimum, over all vertex
orderings, of ``graph.upper_triangle_key``, the upper-triangle adjacency
bits read column-major that graph6 writes in base 64.  The minimum is
built one column at a time: a prefix of the ordering leaves each unplaced
vertex a next column (its adjacency bits to the placed vertices), and the
search state is the ordered partition of the unplaced vertices by next
column.  Placing a vertex splits each part by adjacency to it, so states
that leave the same vertices with the same columns are kept once, and
each level's least column is the key's next column.  Three rules keep the
levels small (see ``canonical_key``): a one-step lookahead builds only the
children that reach that least column; twins are placed in label order;
and a vertex of the least column with no unplaced neighbour is placed
with no sibling branch.  This returns exactly the global minimum without
touching most of the n! orderings.

Graphs with n vertices and m edges are generated by orderly generation
(Read, "Every one a winner", 1978) on that key.  If c is the canonical key
of G and p its lowest 0 bit, c + 2^p is the canonical key of G plus the
pair at bit p: that canonical graph is G's one parent.  So the levels from
C(n,2) down to C(n,2)/2 are built from the complete graph downward: a
canonical graph with key k yields, for each bit p in the trailing run of
1s of k, the graph without the pair at bit p, kept exactly when its own
labeling is canonical (its key is then k - 2^p).  Removing the pair
(i, j), i < j, changes only j's columns at the levels l between i and j.
When j's column sorts below l's at one of them, placing j at position l
gives a smaller key, so an O(n) column check rejects most such children
with no search.  Each class is then reached once, from its parent,
already in canonical labeling.  Levels below C(n,2)/2 are the complements
of the levels above it, one canonical search per class.  Levels are
cached per n for the lifetime of the process, each as a dict from
canonical key to graph in key order, so no key is computed twice.

``family_profile(n, m, r, measure)`` gives the exact values of one
measure, vertex or edge, of every class of a level, solving the level the
first time it is asked for, into one store from (measure, n, m, tau) to a
dict from canonical key to solution (the vertex value, or the edge
minimum cut).  A level is bounded by its parents one level up, read by
key: each parent's value is the class's value or one more (see
``family_profile``).  So a sweep that asks for the levels from C(n,2)
down takes many values and cuts from the parents with no solve, and
passes the parents' value to the vertex search of most of the rest as its
bound (``copvc_value`` with hi).  A value is exact by every route, so the
request order changes only how much is solved.
"""

from fractions import Fraction
from math import comb

from .graph import (Graph, complete, graph_from_key, key_pairs, threshold,
                    upper_triangle_key)
from .solver import copvc_value, copec_exact

MAX_ENUM_VERTICES = 8

# Largest order canonical_key accepts.  The level search never holds more
# states than a depth-first search over the same minimal-column prefixes
# visits prefixes, and that search's worst case, the n! tied orderings of
# the edgeless and complete graphs, took 26-27 s at n = 10 on a 2-vCPU
# CPython 3.11 machine.  On the same machine, at n = 10 (best of five
# calls), the level search took under 0.1 ms on those two graphs, whose
# vertices are all twins; 0.1-0.3 ms on 3K2 + 4K1 and 4K2 + 2K1, whose
# isolated vertices go first; and 2-2.5 ms on 5K2 and the Petersen graph.
# The slowest named graphs are twin-free: P10 and 2C5, 5-7 ms.  180 seeded
# G(10, p), p = 0.1-0.9, took 0.14-0.16 s in all, the slowest about 0.01 s.
# The bound waits for a proven worst case.
MAX_CANONICAL_VERTICES = 10


def canonical_key(g: Graph) -> int:
    """The minimum of ``upper_triangle_key`` over every vertex ordering of g.
    Raises ValueError, before any search, when g has more than
    MAX_CANONICAL_VERTICES vertices.

    The search places one vertex per level.  A state is the ordered
    partition of the unplaced vertices by next column: a tuple of
    (column, vertex mask) groups in increasing column order.  Placing v
    splits each group (c, mask) into (2c, mask - N(v)) and (2c + 1,
    mask & N(v)), dropping empty halves.  Each level keeps only the
    children whose smallest next column equals the least one any child
    reaches, so the level minima concatenate to the key.  Equal states
    have identical futures and are kept once.

    Two rules drop children that cannot lower the key:

    - Twins u < w, with N(u) - {w} = N(w) - {u}, can trade places in any
      ordering without changing its key, and always share a group, so
      twins are placed in label order: v waits while its next-lower twin
      is unplaced.
    - Isolated first: a candidate z of the least column whose neighbours
      are all placed is placed with no sibling branch.  Take any ordering
      that places z later, and swap z with the vertex y just before it.
      z's bits to every vertex after the prefix are 0, so z's column in
      y's old slot is its prefix column followed by 0s, which is no more
      than y's column there, since y's prefix column is at least z's.  If
      they are equal, y's column in z's old slot equals z's old one.
      Every later column trades its bits (to y, to z) = (b, 0) for
      (0, b).  So no column rises before the first that falls, and the
      key does not rise; repeating the swap brings z next.  z's lower
      twins are placed (an unplaced one would be blocking it), so the
      swaps keep twins in label order and the two rules hold together.
    """
    if g.n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical search supports n <= "
                         f"{MAX_CANONICAL_VERTICES}, got {g.n}")
    n, rows = g.n, g.rows
    # vertex bit -> (row, bit of the vertex's next-lower twin or 0).  Open
    # neighbourhoods group non-adjacent twins, closed ones adjacent twins;
    # no open neighbourhood equals a closed one, and no vertex has twins of
    # both kinds.
    info = {}
    last = {}
    for v in range(n):
        lower = 0
        for nbhd in (rows[v], rows[v] | 1 << v):
            if nbhd in last:
                lower = 1 << last[nbhd]
            last[nbhd] = v
        info[1 << v] = (rows[v], lower)
    full = (1 << n) - 1
    states = {((0, full),): full}  # state -> mask of its unplaced vertices
    key = 0
    for width in range(1, n):
        best = 1 << width  # above every column of this width
        children = {}
        for state, unplaced in states.items():
            (c0, m0), tail = state[0], state[1:]
            picks = []
            bits = m0
            while bits:
                vbit = bits & -bits
                bits ^= vbit
                row, lower = info[vbit]
                if lower & m0:
                    continue
                if not row & unplaced:
                    picks = [(vbit, row)]
                    break
                picks.append((vbit, row))
            for vbit, row in picks:
                # the child's smallest next column, found before it is built
                rest = m0 ^ vbit
                if rest:
                    column = c0 << 1 | (0 if rest & ~row else 1)
                else:
                    c, m = tail[0]
                    column = c << 1 | (0 if m & ~row else 1)
                if column > best:
                    continue
                if column < best:
                    best = column
                    children = {}
                if width == n - 1:
                    continue  # the last vertex's column is the key's end
                child = []
                if rest & ~row:
                    child.append((c0 << 1, rest & ~row))
                if rest & row:
                    child.append((c0 << 1 | 1, rest & row))
                for c, m in tail:
                    if m & ~row:
                        child.append((c << 1, m & ~row))
                    if m & row:
                        child.append((c << 1 | 1, m & row))
                children[tuple(child)] = unplaced ^ vbit
        key = key << width | best
        states = children
    return key


def canonical_graph(g: Graph) -> Graph:
    """Representative of g's isomorphism class: the graph whose
    ``upper_triangle_key`` is ``canonical_key(g)``."""
    return graph_from_key(g.n, canonical_key(g))


# n -> {m: {canonical key: canonical graph} of G(n, m), in key order},
# filled on demand.
_LEVELS: dict[int, dict[int, dict[int, Graph]]] = {}


def _sorts_lower(rows: tuple[int, ...] | list[int], i: int, j: int) -> bool:
    """Whether vertex j's column sorts below vertex l's at some level l with
    i < l < j: its bits to vertices 0..l-1, read from vertex 0, are smaller.
    Placing j at position l then gives a smaller key, so this labeling of
    the graph is not minimal.  A canonical graph minus the pair (i, j)
    differs from it only in j's columns at those levels."""
    row = rows[j]
    for l in range(i + 1, j):
        diff = (row ^ rows[l]) & ((1 << l) - 1)
        if diff and not row & diff & -diff:
            return True
    return False


def _level(n: int, m: int) -> dict[int, Graph]:
    if not 0 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_ENUM_VERTICES}, got {n}")
    top = comb(n, 2)
    if not 0 <= m <= top:
        raise ValueError(f"m={m} out of range for n={n}")
    if n not in _LEVELS:
        _LEVELS[n] = {top: {(1 << top) - 1: complete(n)}}
    levels = _LEVELS[n]
    if m not in levels:
        found = {}
        if 2 * m < top:
            for g in _level(n, top - m).values():
                cg = canonical_graph(g.complement())
                found[upper_triangle_key(cg)] = cg
        else:
            pairs = key_pairs(n)
            for key, parent in _level(n, m + 1).items():
                # p runs over the trailing run of 1s of the key
                for p in range((key ^ (key + 1)).bit_length() - 1):
                    i, j = pairs[p]
                    rows = list(parent.rows)
                    rows[i] ^= 1 << j
                    rows[j] ^= 1 << i
                    if _sorts_lower(rows, i, j):
                        continue
                    child = Graph._from_rows(n, tuple(rows))
                    if canonical_graph(child).rows == child.rows:
                        found[key - (1 << p)] = child
        levels[m] = dict(sorted(found.items()))
    return levels[m]


def enumerate_gnm(n: int, m: int):
    """Iterator over one canonical representative per isomorphism class in
    G(n, m), in increasing canonical-key order.  Raises ValueError at the
    call when n or m is out of range."""
    return iter(_level(n, m).values())


def count_classes(n: int, m: int) -> int:
    return len(_level(n, m))


# (measure, n, m, tau) -> ({canonical key: solution}, values) for the
# classes of G(n, m), in key order, for the measures "vertex" and "edge",
# filled when first read.  A vertex solution is the value; an edge solution
# is the class's minimum cut, a mask over key bits, whose bit count is the
# edge value.
_SOLVED: dict[tuple[str, int, int, int],
              tuple[dict[int, int], tuple[int, ...]]] = {}


def family_profile(n: int, m: int, r: Fraction,
                   measure: str) -> tuple[int, ...] | None:
    """The exact values of the measure, "vertex" or "edge", of the classes
    of G(n, m) at tau = floor(r * n), in ``enumerate_gnm`` order; None for
    the edge measure at tau = 0, where no edge removal leaves a failure
    state.  Raises ValueError when n or m is out of range or the measure is
    unknown.

    Each level is bounded by the level above, along the orderly-generation
    tree.  Let G be a class with key c, and b a 0 bit of c such that
    c + 2^b is the key of a class P at level m + 1.  A key determines its
    graph, so P is G plus the pair e at bit b, in the same labels; the
    lowest 0 bit of c always gives such a P, G's canonical parent.  For
    both measures value(P) - 1 <= value(G) <= value(P): a solution of P
    (less e, for a cut) solves G, and a solution of G plus e, or plus one
    end of e, solves P.  So G's value lies in [max(top - 1, 0), hi], where
    hi and top are the least and the most value among its parents.  The
    parents are read lowest b first, and the first rule that applies
    gives G's solution:

    - Edge, held pair.  Let C be a minimum cut of P.  If e is in C, then
      G - (C - e) = P - C, so C - e is a cut of G, and G's value is
      |C| - 1: C - e is a minimum cut of G.
    - One value.  When the interval holds one value, it is G's.  A parent
      P of value hi gives the solution: the vertex value hi, or P's
      minimum cut C.  C does not hold e, since C - e would then cut G with
      hi - 1 edges; so C is a set of G's edges, and G - C, a subgraph of
      P - C, is failed: C is a minimum cut of G.
    - Otherwise an edge value is solved, and its lex-first cut kept.  A
      vertex value is hi or hi - 1, and one search bounded by hi
      (``copvc_value`` given hi) decides which.

    Every solved level stays stored per (measure, n, m, tau), and a level
    is bounded whenever level m + 1 at the same tau is stored, so a sweep
    that asks for m from C(n, 2) down solves only the classes no parent
    decides, mostly with a bound.  Either way each value is exact, so
    every request order gives the same values; the order only decides how
    much is solved.
    """
    if measure not in ("vertex", "edge"):
        raise ValueError(f"measure must be 'vertex' or 'edge', got {measure!r}")
    tau = threshold(r, n)
    level = _level(n, m)
    edge = measure == "edge"
    if edge and tau == 0:
        return None
    index = (measure, n, m, tau)
    if index in _SOLVED:
        return _SOLVED[index][1]
    # A level-m key has m bits set, so key | bit can only hit level m + 1.
    parent = _SOLVED.get((measure, n, m + 1, tau))
    get = (parent[0] if parent else {}).get
    bit_of = {pair: 1 << b for b, pair in enumerate(key_pairs(n))}
    full = (1 << comb(n, 2)) - 1
    solved = {}
    for key, g in level.items():
        # The parents key | bit, lowest bit first, until one decides the
        # class's solution; hi is their value while they all agree.
        hi = None
        free = ~key & full
        while free:
            bit = free & -free
            solution = get(key | bit)
            if solution is not None:
                if edge and solution & bit:
                    solved[key] = solution ^ bit
                    break
                value = solution.bit_count() if edge else solution
                if hi is None:
                    hi, first = value, solution
                    if hi == 0:
                        solved[key] = solution
                        break
                elif value != hi:
                    # parent values differ by at most 1: the lower is G's
                    solved[key] = first if hi < value else solution
                    break
            free ^= bit
        else:
            if edge:
                solved[key] = sum(bit_of[pair]
                                  for pair in copec_exact(g, r).elements)
            else:
                solved[key] = copvc_value(g, tau, hi)
    values = tuple(map(int.bit_count, solved.values()) if edge
                   else solved.values())
    _SOLVED[index] = solved, values
    return values
