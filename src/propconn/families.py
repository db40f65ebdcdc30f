"""Extremal connectivity statistics over G(n, m), the family of all simple
graphs with n vertices and m edges.

The four statistics are the minimum and maximum of the vertex and edge
disconnection numbers over the family (covmin, covmax, coemin, coemax).
covmin and coemin have closed forms built on the densest failure state;
covmax and coemax only have known values in their tail regions, with the
middle left to exact enumeration.  covmin, coemin and the two tails
return values alone, by arithmetic; covmin_witness and coemin_witness build
a canonical graph attaining the closed form, within canonical_graph's bound.
At floor(r*n) = 0 the vertex statistics are n and the edge ones are refused.
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .graph import Graph, complete, disjoint_union, edgeless, threshold
from .enumeration import canonical_graph, enumerate_gnm, family_profile

_STATS = ("covmin", "coemin", "covmax", "coemax")


class ExtremalResult(NamedTuple):
    value: int
    witness: Graph


def _check_m(n: int, m: int) -> None:
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"m={m} out of range for n={n}")


def _edge_tau(n: int, r: Fraction) -> int:
    """floor(r*n), refused at 0: edge removal cannot shrink single vertices."""
    tau = threshold(r, n)
    if tau < 1:
        raise ValueError("edge statistics need floor(r*n) >= 1")
    return tau


def _decompose(order: int, tau: int) -> tuple[int, int]:
    """(p, q) with order = p*tau + q, 0 <= q < tau: p*K_tau + K_q."""
    if tau < 1:
        raise ValueError("decomposition requires floor(r*n) >= 1")
    return divmod(order, tau)


def _failure_edges(order: int, tau: int) -> int:
    p, q = _decompose(order, tau)
    return p * comb(tau, 2) + comb(q, 2)


def _failure_state(order: int, tau: int) -> Graph:
    p, q = _decompose(order, tau)
    return disjoint_union(*([complete(tau)] * p + [complete(q)]))


def max_failure_edges(n: int, r: Fraction) -> int:
    """Most edges a failed graph of order n can carry:
    p*C(tau,2) + C(q,2)."""
    return _failure_edges(n, threshold(r, n))


def build_max_failure_state(n: int, r: Fraction) -> Graph:
    """The densest failed graph: p disjoint copies of K_tau plus K_q."""
    return _failure_state(n, threshold(r, n))


def covmin_threshold_f(k: int, n: int, r: Fraction) -> int:
    """Edge budget f(k) below which the family minimum vertex value stays
    at most k: a k-clique joined to everything plus the densest failure
    state on the other n-k vertices.  At floor(r*n) = 0 every vertex must
    go, so k = n is the only value, with f(n) = C(n, 2)."""
    tau = threshold(r, n)
    low = 0 if tau else n
    if not low <= k <= n - tau:
        raise ValueError(f"k={k} out of range [{low}, {n - tau}]")
    if tau == 0:
        return comb(n, 2)
    return k * (n - k) + comb(k, 2) + _failure_edges(n - k, tau)


def covmin(n: int, m: int, r: Fraction) -> int:
    """Family minimum vertex value: the unique k with f(k-1) < m <= f(k),
    found by an ascending scan (0 when m <= f(0), n when floor(r*n) = 0)."""
    _check_m(n, m)
    if threshold(r, n) == 0:
        return n
    k = 0
    while m > covmin_threshold_f(k, n, r):
        k += 1
    return k


def covmin_witness(n: int, m: int, r: Fraction) -> Graph:
    """Canonical graph of G(n, m) with vertex value k = covmin(n, m, r): the
    first m edges of k dominating vertices (the complement of a disjoint
    union of complements) joined to the densest failure state of the other
    n-k, which is empty at floor(r*n) = 0.  Deletion never raises the
    value, and the family minimum at m edges bounds it from below."""
    k = covmin(n, m, r)
    rest = _failure_state(n - k, threshold(r, n)) if k < n else Graph(0)
    base = disjoint_union(edgeless(k), rest.complement()).complement()
    return canonical_graph(Graph(n, base.edges()[:m]))


def covmin_piecewise_crosscheck(n: int, m: int, r: Fraction) -> int | None:
    """Alternative piecewise labeling of the family minimum vertex value,
    evaluated exactly as its cases are written.

    Kept only for the discrepancy harness: its case boundaries disagree
    with the f(k) scan on some inputs (and label nothing at all on others,
    in which case None is returned).  Mismatches are reported by callers,
    never patched here.
    """
    tau = threshold(r, n)
    _check_m(n, m)
    if tau == 0:
        return None
    p, q = _decompose(n, tau)
    a = p * comb(tau, 2) + comb(q, 2)
    b = a + q * p * tau

    def c_window(i: int, j: int) -> int:
        return (sum(tau * tau * (p - t) for t in range(1, i))
                + (j - 1) * tau * (p - i) + b)

    if 0 <= m <= a:
        return 0
    for t in range(1, q + 1):
        if a + t * p * tau < m <= a + (t + 1) * p * tau:
            return t
    for i in range(1, p):
        for j in range(1, tau):
            if c_window(i, j) < m <= c_window(i, j + 1):
                return (i - 1) * tau + j + q
    for i in range(1, p):
        if c_window(i, tau) < m <= c_window(i + 1, 1):
            return (i - 1) * tau + tau + q
    if p >= 1 and c_window(p, 1) <= m:
        return (p - 1) * tau + q
    return None


def coemin(n: int, m: int, r: Fraction) -> int:
    """Family minimum edge value: every edge beyond the densest failure
    state must be removed, and no fewer suffice."""
    _check_m(n, m)
    return max(0, m - _failure_edges(n, _edge_tau(n, r)))


def coemin_witness(n: int, m: int, r: Fraction) -> Graph:
    """Canonical graph of G(n, m) whose edge value is coemin(n, m, r): the
    densest failure state cut down, or filled up, to m edges."""
    _check_m(n, m)
    base = _failure_state(n, _edge_tau(n, r))
    return canonical_graph(Graph(n, (base.edges() + base.non_edges())[:m]))


def covmax_tail(n: int, m: int, r: Fraction) -> int | None:
    """Family maximum vertex value where it is known: 0 below tau edges,
    n - tau within tau edges of complete or at tau = 0; None otherwise."""
    _check_m(n, m)
    tau = threshold(r, n)
    if m < tau:
        return 0
    if m > comb(n, 2) - tau or tau == 0:
        return n - tau
    return None


def coemax_tail(n: int, m: int, r: Fraction) -> int | None:
    """Family maximum edge value where it is known: 0 below tau edges, and
    the complete-graph value at m = C(n,2); None otherwise.

    The full upper tail does not extend below C(n,2): see
    complete_minus_two_disjoint_edges for the instance that breaks it at
    m = C(n,2) - 2 when tau = n - 1.
    """
    _check_m(n, m)
    tau = _edge_tau(n, r)
    if m < tau:
        return 0
    if m == comb(n, 2):
        return comb(n, 2) - _failure_edges(n, tau)
    return None


def complete_minus_two_disjoint_edges(n: int) -> Graph:
    """K_n minus two vertex-disjoint edges; at tau = n-1 no order-(n-1)
    clique survives, so its edge value drops to n-2 instead of the n-1 the
    full upper tail would predict."""
    if n < 4:
        raise ValueError("needs n >= 4 for two disjoint edges")
    return complete(n).remove_edges([(0, 1), (2, 3)])


def extremal_by_enumeration(n: int, m: int, r: Fraction,
                            stat: str) -> ExtremalResult:
    """Ground truth for any of the four family statistics: solve every
    isomorphism-class representative exactly and reduce.  The witness is
    the extremal representative with the smallest canonical key."""
    if stat not in _STATS:
        raise ValueError(f"stat must be one of {_STATS}, got {stat!r}")
    edge = stat in ("coemin", "coemax")
    values = family_profile(n, m, r, "edge" if edge else "vertex")
    if edge:
        _edge_tau(n, r)
    value = min(values) if stat.endswith("min") else max(values)
    witness = next(g for g, v in zip(enumerate_gnm(n, m), values) if v == value)
    return ExtremalResult(value, witness)
