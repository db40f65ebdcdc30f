"""Simple undirected graphs with bitmask adjacency, plus ``threshold``, the
one exact floor(r*n) that decides when a graph counts as failed.

A graph of order n uses vertex labels 0..n-1 and stores one integer bitmask
per vertex (bit u of ``rows[v]`` set iff u and v are adjacent).  Graphs are
immutable; every operation returns a new graph, so values are safe to share
between threads.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

MAX_VERTICES = 64


def proportion(numerator: int, denominator: int) -> Fraction:
    """Exact ratio r with 0 < r < 1, stored in lowest terms."""
    if denominator == 0:
        raise ValueError("denominator must be nonzero")
    r = Fraction(numerator, denominator)
    if not 0 < r < 1:
        raise ValueError(f"proportion must satisfy 0 < r < 1, got {r}")
    return r


def parse_proportion(text: str) -> Fraction:
    """Parse an 'A/B' ratio string.

    Decimal notation is rejected on purpose: thresholds are floor(r*n) and a
    float that is off by one ulp at an integer boundary silently changes
    answers.
    """
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ValueError(f"expected a ratio like '1/2', got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected integers in ratio {text!r}") from None
    return proportion(num, den)


def threshold(r: Fraction, n: int) -> int:
    """Largest admissible component order, floor(r * n), for the original
    order n.  Removals never shrink it: a pruned graph's components are
    still measured against the order before anything was removed."""
    if n < 1:
        raise ValueError("threshold requires a positive original order")
    return r.numerator * n // r.denominator


class Threshold(NamedTuple):
    """``threshold`` as a record, read only by the benchmark harness."""

    tau: int

    @classmethod
    def for_order(cls, r: Fraction, n: int) -> "Threshold":
        return cls(threshold(r, n))


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        count = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if rows[v] >> u & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            count += 1
        self.n = n
        self.rows = tuple(rows)
        self.m = count

    @classmethod
    def _from_rows(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        g = object.__new__(cls)
        g.n = n
        g.rows = rows
        g.m = sum(r.bit_count() for r in rows) // 2
        return g

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                out.append((u, low.bit_length() - 1))
                row ^= low
        return out

    def non_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if not self.has_edge(u, v)]

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v or self.has_edge(u, v):
            raise ValueError(f"cannot add edge ({u}, {v})")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._from_rows(self.n, tuple(rows))

    def remove_vertices(self, vertices) -> "Graph":
        """Induced subgraph on the remaining vertices.

        Survivors are relabeled 0..n'-1 in increasing original-label order;
        callers that report sets to the outside keep the original labels.
        """
        drop = 0
        for v in set(vertices):
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
            drop |= 1 << v
        return self._relabel([v for v in range(self.n) if not drop >> v & 1])

    def _relabel(self, order) -> "Graph":
        """The subgraph induced on the distinct vertices of ``order``, with
        vertex order[i] relabeled i."""
        position = [0] * self.n
        keep = 0
        for i, v in enumerate(order):
            position[v] = i
            keep |= 1 << v
        rows = []
        for v in order:
            row = 0
            old = self.rows[v] & keep
            while old:
                low = old & -old
                row |= 1 << position[low.bit_length() - 1]
                old ^= low
            rows.append(row)
        return Graph._from_rows(len(rows), tuple(rows))

    def remove_edges(self, edges) -> "Graph":
        """Same vertex set, the given edges deleted."""
        rows = list(self.rows)
        seen = set()
        for u, v in edges:
            pair = (min(u, v), max(u, v))
            if pair in seen:
                continue
            if not (0 <= u < self.n and 0 <= v < self.n) or not rows[u] >> v & 1:
                raise ValueError(f"edge ({u}, {v}) not in graph")
            seen.add(pair)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return Graph._from_rows(self.n, tuple(rows))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = tuple((~self.rows[v]) & full & ~(1 << v) for v in range(self.n))
        return Graph._from_rows(self.n, rows)

    def grow_component(self, seed: int, within: int,
                       cap: int | None = None) -> int:
        """The vertex mask of the component holding the vertex bit ``seed``
        in the subgraph induced on the vertex mask ``within``.

        Growth adds the new neighbours of one member at a time, highest
        member first.  With a cap it stops once the mask would pass cap
        vertices and returns exactly cap + 1 of them, connected, cutting
        the last batch down to its highest vertices; a component of order
        at most cap is returned whole.
        """
        rows = self.rows
        comp = todo = seed
        while todo:
            v = todo.bit_length() - 1
            new = rows[v] & within & ~comp
            if cap is not None:
                spare = (comp | new).bit_count() - cap - 1
                if spare >= 0:
                    for _ in range(spare):
                        new &= new - 1
                    return comp | new
            comp |= new
            todo ^= 1 << v | new
        return comp

    def component_masks(self) -> list[int]:
        masks = []
        remaining = (1 << self.n) - 1
        while remaining:
            comp = self.grow_component(remaining & -remaining, remaining)
            masks.append(comp)
            remaining ^= comp
        return masks

    def oversized_part(self, tau: int, within: int | None = None) -> int:
        """0 iff every component of the subgraph induced on the vertex mask
        ``within`` (the whole graph by default) has order at most tau.

        Otherwise a witness: the capped growth (``grow_component``) of
        tau + 1 connected vertices from the highest vertex of the highest
        component of order > tau.  tau may come from an original order
        larger than this graph's current order.
        """
        remaining = (1 << self.n) - 1 if within is None else within
        while remaining.bit_count() > tau:
            part = self.grow_component(1 << (remaining.bit_length() - 1),
                                       remaining, tau)
            if part.bit_count() > tau:
                return part
            remaining ^= part
        return 0

    def is_failure_state(self, tau: int, within: int | None = None) -> bool:
        """True iff no component of the subgraph induced on ``within`` has
        order > tau (see ``oversized_part``); the empty graph is vacuously
        failed."""
        return not self.oversized_part(tau, within)


def upper_triangle_key(g: Graph) -> int:
    """g's upper-triangle adjacency bits read column-major, (0, 1), (0, 2),
    (1, 2), (0, 3), ..., the first pair at the highest bit: pair (i, j),
    i < j, is bit C(n,2) - 1 - C(j,2) - i.  This module owns that bit
    order; ``graph_from_key`` inverts the key, the canonical form minimizes
    it, and graph6 writes it in base 64."""
    key = 0
    for j, row in enumerate(g.rows):
        for i in range(j):
            key = key << 1 | row >> i & 1
    return key


def graph_from_key(n: int, key: int) -> Graph:
    """The order-n graph whose ``upper_triangle_key`` is key."""
    return Graph(n, [e for p, e in enumerate(key_pairs(n)) if key >> p & 1])


@lru_cache(maxsize=None)
def key_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """key_pairs(n)[p] is the vertex pair at bit p of an n-vertex key."""
    return tuple((i, j) for j in range(n - 1, 0, -1)
                 for i in range(j - 1, -1, -1))


def edgeless(n: int) -> Graph:
    return Graph(n)


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def disjoint_union(*graphs: Graph) -> Graph:
    n = sum(g.n for g in graphs)
    rows = []
    offset = 0
    for g in graphs:
        rows.extend(row << offset for row in g.rows)
        offset += g.n
    return Graph._from_rows(n, tuple(rows))
