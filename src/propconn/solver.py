"""Exact minimum vertex/edge disconnecting sets.

These solvers are the ground truth against which every closed-form value in
the package is checked, so they favor exhaustive-but-pruned strategies over
heuristics.

Both optima add up over components, so one driver (``_solve_components``)
solves each component of order k > tau on its own and merges the
per-component lexicographically first sets.  It rejects a component larger
than MAX_VERTEX_SOLVER_VERTICES or MAX_EDGE_SOLVER_VERTICES up front.

Vertex side: one branch and bound decides keep or remove for the
component's vertices in label order, remove first (``_kept_mask``).  It
starts from removing the lowest k - tau vertices, which always works, and
takes an incumbent only on a strict gain, so the first optimum it reaches
is the lexicographically first minimum set.  The prunes: a kept part of
order tau forces its undecided neighbours out; a node whose kept and
undecided vertices form a failure state is the best leaf below it; a node
that cannot keep more than the incumbent is cut, also when counting what
the kept part a vertex joins must shed among its undecided neighbours.
The search has no failure test of its own: ``Graph.oversized_part`` is
the one test, and its witness tells which removals call for a new test.
A caller that knows the value within one (``copvc_bounded``) runs the
same search from that bound and stops at the first set that beats it.

Edge side: a minimum edge disconnecting set is exactly the set of edges
crossing an optimal partition of the vertices into parts of order at most
tau (removing an edge internal to a surviving component would contradict
minimality).  One dynamic program (``_best_partition_score``) grows each
connected part of order at most tau once, one frame per part, scores it
from the new vertex's edges into the part, and maximizes lex scores: its
optimum keeps the most edges inside parts and, among those partitions,
cuts the lex-first minimum set, decoded from the optimal score alone.
"""

from fractions import Fraction
from typing import NamedTuple

from .graph import Graph, MAX_VERTICES, threshold

# Largest component order the vertex search accepts: the largest k whose
# slowest measured case stays under a minute.  Time peaks at mid tau; on a
# 2-vCPU CPython 3.11 machine the slowest tau took 20 / 40 / 46 s at
# k = 39 / 40 / 41 for K_{k/2, k/2}, 15 s at k = 39 and 57-67 s at k = 40
# for one connected G(k, 0.3) per k, and at most 6.8 s for a connected
# G(k, 1/2).
MAX_VERTEX_SOLVER_VERTICES = 39

# Largest component order the edge DP accepts.  A component of order k
# needs a table of 2^k scores, and at mid to high tau its time grows about
# 3x per vertex; on a 2-vCPU CPython 3.11 machine the slowest witness solve
# over tau of a connected G(k, 1/2) took 0.08 / 0.69 / 5.6 s at k = 14 /
# 16 / 18 (25 MB peak RSS at 18), and of K_k 0.10 / 0.83 / 9.0 s.
MAX_EDGE_SOLVER_VERTICES = 18


class VertexSolverLimitError(ValueError):
    """A component the vertex solver must split is too large to finish."""

    solver = "vertex"


class EdgeSolverLimitError(ValueError):
    """A component the edge solver must split is too large to finish."""

    solver = "edge"


class DisconnectingWitness(NamedTuple):
    """A minimum disconnecting set, or an infeasibility marker.

    ``elements`` holds vertex labels for kind 'vertex' and (u, v) pairs with
    u < v for kind 'edge'.  Infeasible (cardinality None, no elements) only
    happens for edge removal at tau = 0, which cannot shrink single vertices.
    """

    kind: str
    elements: tuple
    cardinality: int | None


def _check_solver_input(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("solver requires a nonempty graph")
    if g.n > MAX_VERTICES:
        raise ValueError(f"graph order {g.n} exceeds solver bound {MAX_VERTICES}")


def _oversized(g: Graph, tau: int, bound: int, error: type) -> list[int]:
    """The vertex masks of the components of g of order > tau, smallest
    order first.  Raises ``error`` when one is larger than bound."""
    oversized = sorted((m for m in g.component_masks() if m.bit_count() > tau),
                       key=int.bit_count)
    if oversized and oversized[-1].bit_count() > bound:
        raise error(f"component of order {oversized[-1].bit_count()} exceeds "
                    f"the {error.solver} solver bound {bound}")
    return oversized


def _solve_components(g: Graph, tau: int, bound: int, error: type, solve):
    """The sorted union of solve(comp) over the vertex masks comp of the
    components of g of order > tau, where solve returns the
    lexicographically first minimum set of its component.

    Every minimum set of g is a union of per-component minimum sets.  For
    equal-size sets, A sorts before B exactly when min(A ^ B) lies in A,
    and A ^ B splits by component, so the union of the per-component
    lex-first sets is the lex-first set of g.  Raises ``error`` before any
    solve when an oversized component is larger than bound.
    """
    chosen = []
    for comp in _oversized(g, tau, bound, error):
        chosen.extend(solve(comp))
    chosen.sort()
    return chosen


def _kept_mask(g: Graph, comp: int, tau: int, floor: int | None = None) -> int:
    """The vertices of the component mask ``comp`` (order k > tau >= 1)
    that the lexicographically first minimum removal keeps.

    A node of the search holds the kept vertices, the undecided ones (all
    above the decided ones) and size = |kept| + |undecided|, the most it can
    still keep.  Its first child removes the lowest undecided vertex, the
    second keeps it, so removed sets are met in lex order; incumbents are
    taken only on a strict gain.

    A node carries a witness from ``g.oversized_part``, tau + 1 connected
    live vertices, and tests again only when a removal takes one of them.
    The keep branch walks the new vertex's kept part itself, because it
    also needs the part's neighbourhood, which no failure test returns.

    With ``floor``, for a caller that knows the component keeps floor or
    floor + 1 vertices, the search starts from an incumbent of floor kept
    vertices with no set in hand, and stops at the first set of floor + 1
    it meets (returned), or returns 0 when there is none.
    """
    rows = g.rows
    k = comp.bit_count()
    if floor is None:
        # Removing any k - tau vertices leaves only tau; the lowest sort
        # first.  An oversized component keeps at most k - 1.
        best, best_kept, goal = tau, comp, k
        for _ in range(k - tau):
            best_kept &= best_kept - 1
    else:
        best, best_kept, goal = floor, 0, floor + 1

    def take(count, kept):
        # At the goal, best rises above every bound, so the search unwinds.
        nonlocal best, best_kept
        best, best_kept = (count if count < goal else k), kept

    def search(kept, undecided, closed, size, witness):
        # live = kept | undecided holds the witness, so it is no failure
        # state.  closed holds the kept parts of order tau, whose
        # undecided neighbours are gone; kept holds the others.
        while size - 1 > best:
            bit = undecided & -undecided
            undecided ^= bit
            if witness & bit:
                found = g.oversized_part(tau, kept | undecided)
                if not found:
                    take(size - 1, kept | undecided | closed)
                elif size - 2 > best:
                    search(kept, undecided, closed, size - 1, found)
            elif size - 2 > best:
                search(kept, undecided, closed, size - 1, witness)
            row = rows[bit.bit_length() - 1]
            part = bit | (row & kept)
            todo = part ^ bit
            around = row
            while todo:
                v = todo.bit_length() - 1
                around |= rows[v]
                new = rows[v] & kept & ~part
                part |= new
                todo ^= 1 << v | new
            order = part.bit_count()
            if order > tau:
                return
            out = around & undecided
            if order == tau:
                # A full part: its undecided neighbours must go.
                size -= out.bit_count()
                if size <= best:
                    return
                kept ^= part ^ bit
                closed |= part
                undecided ^= out
                if witness & out:
                    witness = g.oversized_part(tau, kept | undecided)
                    if not witness:
                        take(size, kept | undecided | closed)
                        return
                continue
            # At most tau - order of the part's undecided neighbours can be
            # kept.
            if size - out.bit_count() + tau - order <= best:
                return
            kept |= bit

    search(0, comp, 0, k, comp)
    return best_kept


def _min_vertex_set(g: Graph, tau: int) -> list[int]:
    """The lexicographically first minimum vertex set whose removal leaves
    no component of order > tau, as sorted labels.

    Each oversized component is solved on its own by ``_kept_mask`` (see
    ``_solve_components``).  Raises VertexSolverLimitError before any
    search when an oversized component is larger than
    MAX_VERTEX_SOLVER_VERTICES.
    """
    if tau <= 0:
        # Any surviving vertex is a component of order 1 > 0.
        return list(range(g.n))

    def removed(comp):
        out = comp ^ _kept_mask(g, comp, tau)
        return [v for v in range(g.n) if out >> v & 1]

    return _solve_components(g, tau, MAX_VERTEX_SOLVER_VERTICES,
                             VertexSolverLimitError, removed)


def copvc_exact(g: Graph, r: Fraction) -> DisconnectingWitness:
    """Minimum vertex disconnecting set of g at proportion r.

    Always feasible: deleting all n vertices leaves the empty graph, which
    is vacuously failed.  Among minimum sets the lexicographically smallest
    (by sorted labels) is returned.
    """
    _check_solver_input(g)
    chosen = _min_vertex_set(g, threshold(r, g.n))
    return DisconnectingWitness("vertex", tuple(chosen), len(chosen))


def _best_partition_score(h: Graph, tau: int) -> int:
    """The largest total score of the edges kept inside parts over the
    partitions of h's vertices into parts of order at most tau (tau >= 1),
    where the i-th of h's E edges (in ``h.edges()`` order) scores
    2^E - 2^(E-1-i).

    A partition with more internal edges always scores higher; among those
    keeping equally many, the one whose crossing set sorts first scores
    highest, since the scores differ in distinct powers of two.  Splitting
    a part into its connected pieces keeps its edges, so only connected
    parts are grown.  best[s] is finished for the sets s with lowest vertex
    l from l = h.n - 1 down to 0: the part holding l is {l} (best[s - {l}])
    or a connected part p, which pushes score(p) + best[t] onto best[p | t]
    for each set t of higher vertices outside p; at l = 0 only onto the
    full set.  A frame (part, order of its children, score, candidates,
    banned) adds each candidate v to the part in turn and then bans v, so
    each connected part is grown once (Wernicke's extension sets).
    """
    edges = h.edges()
    top = 1 << len(edges)
    rows = h.rows
    weight = [[0] * h.n for _ in range(h.n)]
    for i, (u, v) in enumerate(edges):
        weight[u][v] = weight[v][u] = top - (top >> (i + 1))
    full = (1 << h.n) - 1
    best = [0] * (full + 1)
    for l in range(h.n - 1, -1, -1):
        low = 1 << l
        above = full ^ (2 * low - 1)
        best[low::2 * low] = best[::2 * low]
        stack = [(low, 2, 0, rows[l] & above, 0)] if tau > 1 else []
        while stack:
            part, order, score, cand, banned = stack.pop()
            while cand:
                bit = cand & -cand
                cand ^= bit
                v = bit.bit_length() - 1
                p, s = part | bit, score
                wv, inner = weight[v], rows[v] & part
                while inner:
                    u = inner.bit_length() - 1
                    s += wv[u]
                    inner ^= 1 << u
                rest = above & ~p
                if l == 0:
                    c = s + best[rest]
                    if c > best[full]:
                        best[full] = c
                else:
                    if s > best[p]:
                        best[p] = s
                    t = rest
                    while t:
                        q = p | t
                        c = s + best[t]
                        if c > best[q]:
                            best[q] = c
                        t = (t - 1) & rest
                if order < tau:
                    stack.append((p, order + 1, s,
                                  cand | (rows[v] & rest & ~banned), banned))
                banned |= bit
    return best[full]


def _lex_first_cut(h: Graph, tau: int) -> list[tuple[int, int]]:
    """The lexicographically first minimum cut of h, in h's labels, decoded
    from the optimal lex score of one partition DP.

    A kept edge set K scores |K| * 2^E - mask(K), where mask(K) < 2^E sets
    bit E-1-i for each kept edge i, so mask(K) is -score mod 2^E.
    """
    edges = h.edges()
    top = 1 << len(edges)
    mask = -_best_partition_score(h, tau) % top
    return [e for i, e in enumerate(edges) if not mask & (top >> (i + 1))]


def _min_edge_set(g: Graph, tau: int) -> list[tuple[int, int]]:
    """The lexicographically first minimum edge set whose removal leaves
    no component of order > tau (tau >= 1), as sorted (u, v) pairs.

    Each oversized component is cut on its own by ``_lex_first_cut`` on a
    copy labelled 0..k-1, and the cut is mapped back to the original labels
    (see ``_solve_components``).  Raises EdgeSolverLimitError before any
    table is built when an oversized component is larger than
    MAX_EDGE_SOLVER_VERTICES.
    """
    def cut(comp):
        labels = [v for v in range(g.n) if comp >> v & 1]
        h = g._relabel(labels)
        return [(labels[u], labels[v]) for u, v in _lex_first_cut(h, tau)]

    return _solve_components(g, tau, MAX_EDGE_SOLVER_VERTICES,
                             EdgeSolverLimitError, cut)


def copec_exact(g: Graph, r: Fraction) -> DisconnectingWitness:
    """Minimum edge disconnecting set of g at proportion r.

    Returns cardinality None when tau = 0 (no edge removal shrinks an order-1
    component).  Among minimum sets the lexicographically smallest by sorted
    (u, v) pairs is returned (see ``_min_edge_set``).  Raises
    EdgeSolverLimitError when a component of order > tau is larger than
    MAX_EDGE_SOLVER_VERTICES.
    """
    _check_solver_input(g)
    tau = threshold(r, g.n)
    if tau == 0:
        return DisconnectingWitness("edge", (), None)
    chosen = _min_edge_set(g, tau)
    return DisconnectingWitness("edge", tuple(chosen), len(chosen))


def copvc_value(g: Graph, tau: int) -> int:
    """Cardinality-only vertex solve against an explicit tau (which may come
    from an original order other than g.n)."""
    _check_solver_input(g)
    return len(_min_vertex_set(g, tau))


def copvc_bounded(g: Graph, tau: int, hi: int) -> int:
    """``copvc_value(g, tau)`` for a caller that knows it is hi or hi - 1.

    The value adds up over the oversized components.  Every one but the
    largest is solved exactly; the largest, of order k, then has value h
    or h - 1, where h is hi less the others' values, so it keeps k - h or
    k - h + 1 vertices, and one search bounded by that (``_kept_mask`` with
    floor k - h) decides which.  Raises VertexSolverLimitError as
    copvc_value does.
    """
    _check_solver_input(g)
    if tau <= 0:
        return g.n
    comps = _oversized(g, tau, MAX_VERTEX_SOLVER_VERTICES,
                       VertexSolverLimitError)
    if not comps:
        return 0
    largest = comps.pop()
    h = hi - sum(c.bit_count() - _kept_mask(g, c, tau).bit_count()
                 for c in comps)
    if h == 1:
        return hi  # an oversized component loses at least one vertex
    floor = largest.bit_count() - h
    return hi - 1 if _kept_mask(g, largest, tau, floor) else hi


def copec_value(g: Graph, tau: int) -> int | None:
    """Size of the minimum edge set against an explicit tau (see
    ``_min_edge_set``); None when tau = 0 makes it infeasible.  Raises
    EdgeSolverLimitError as copec_exact does."""
    _check_solver_input(g)
    if tau <= 0:
        return None
    return len(_min_edge_set(g, tau))


def verify_witness(g: Graph, r: Fraction, w: DisconnectingWitness) -> bool:
    """Check a witness from first principles, independent of the search:
    remove the elements and test every surviving component against
    floor(r * |g|)."""
    if w.kind == "vertex":
        h = g.remove_vertices(w.elements)
    elif w.kind == "edge":
        h = g.remove_edges(w.elements)
    else:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    return h.is_failure_state(threshold(r, g.n))
