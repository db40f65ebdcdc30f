"""Closed-form connectivity values for paths, cycles, complete and complete
bipartite graphs, and the harness that adjudicates each formula against the
exact solver.

The cycle values ship in two variants each.  For vertex removal the
``reduced_order`` variant recomputes the admissible order from n-1 (the
order after one deletion) while the ``original_order`` variant keeps the
threshold at floor(r*n); the two disagree whenever floor(r*(n-1)) differs
from floor(r*n), so the harness records both against the solver instead of
picking one.  For edge removal the ``path_reduction`` variant chains one cut
with the path value and the ``arc_cover`` variant counts the arcs directly;
these are algebraically equal, and the harness confirms both.

There is no closed form for edge removal on complete bipartite graphs; use
the exact solver for those instances.
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .graph import Graph, Threshold, path, cycle, complete, complete_bipartite
from .solver import copvc_value, copec_value

# Formula identifiers whose values the discrepancy harness treats as
# settled; the cycle variants stay under adjudication and never fail a run.
PROVEN_FORMULAS = frozenset({
    "path_vertex", "path_edge", "complete_vertex", "complete_edge",
    "complete_bipartite_vertex",
})


class FormulaResult(NamedTuple):
    value: int
    formula_id: str
    tau: int


class ClassSpec(NamedTuple):
    """A concrete instance of one of the supported graph classes."""

    family: str                    # path | cycle | complete | complete_bipartite
    n: int | None = None
    a: int | None = None
    b: int | None = None

    def build(self) -> Graph:
        if self.family == "path":
            return path(self.n)
        if self.family == "cycle":
            return cycle(self.n)
        if self.family == "complete":
            return complete(self.n)
        if self.family == "complete_bipartite":
            return complete_bipartite(self.a, self.b)
        raise ValueError(f"unknown graph family {self.family!r}")

    @property
    def order(self) -> int:
        return self.n if self.n is not None else self.a + self.b


def _tau(r: Fraction, n: int) -> int:
    return Threshold.for_order(r, n).tau


def _require_positive_tau(tau: int, formula_id: str) -> None:
    if tau < 1:
        raise ValueError(f"{formula_id} requires floor(r*n) >= 1")


def copvc_path(n: int, r: Fraction) -> FormulaResult:
    """floor(n / (floor(r*n) + 1)) vertices disconnect a path."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    tau = _tau(r, n)
    _require_positive_tau(tau, "path_vertex")
    return FormulaResult(n // (tau + 1), "path_vertex", tau)


def copvc_cycle(n: int, r: Fraction) -> FormulaResult:
    """Reduced-order cycle variant: threshold recomputed from n-1."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    tau = _tau(r, n)
    _require_positive_tau(tau, "cycle_vertex")
    reduced = _tau(r, n - 1)
    return FormulaResult((n - 1) // (reduced + 1) + 1,
                         "cycle_vertex_reduced_order", tau)


def copvc_cycle_original_order(n: int, r: Fraction) -> FormulaResult:
    """Cycle variant keeping the threshold at floor(r*n)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    tau = _tau(r, n)
    _require_positive_tau(tau, "cycle_vertex")
    return FormulaResult((n - 1) // (tau + 1) + 1,
                         "cycle_vertex_original_order", tau)


def copvc_complete(n: int, r: Fraction) -> FormulaResult:
    """n - floor(r*n): complete graphs shrink but never disconnect."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    tau = _tau(r, n)
    return FormulaResult(n - tau, "complete_vertex", tau)


def copvc_complete_bipartite(a: int, b: int, r: Fraction) -> FormulaResult:
    """min(a, a+b-floor(r*n)) with a <= b and n = a+b."""
    if not 1 <= a <= b:
        raise ValueError("complete bipartite needs 1 <= a <= b")
    n = a + b
    tau = _tau(r, n)
    _require_positive_tau(tau, "complete_bipartite_vertex")
    return FormulaResult(min(a, n - tau), "complete_bipartite_vertex", tau)


def copec_path(n: int, r: Fraction) -> FormulaResult:
    """floor((n-1) / floor(r*n)) edges disconnect a path."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    tau = _tau(r, n)
    _require_positive_tau(tau, "path_edge")
    return FormulaResult((n - 1) // tau, "path_edge", tau)


def copec_cycle(n: int, r: Fraction) -> FormulaResult:
    """Path-reduction cycle variant: one cut plus the path value."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    tau = _tau(r, n)
    _require_positive_tau(tau, "cycle_edge")
    return FormulaResult((n - 1) // tau + 1, "cycle_edge_path_reduction", tau)


def copec_cycle_arc_cover(n: int, r: Fraction) -> FormulaResult:
    """Cycle variant counting arcs directly: ceil(n / floor(r*n))."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    tau = _tau(r, n)
    _require_positive_tau(tau, "cycle_edge")
    return FormulaResult(-(-n // tau), "cycle_edge_arc_cover", tau)


def copec_complete(n: int, r: Fraction) -> FormulaResult:
    """C(n,2) - p*C(tau,2) - C(q,2) with n = p*tau + q, 0 <= q < tau."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    tau = _tau(r, n)
    _require_positive_tau(tau, "complete_edge")
    p, q = divmod(n, tau)
    return FormulaResult(comb(n, 2) - p * comb(tau, 2) - comb(q, 2),
                         "complete_edge", tau)


class FormulaCheck(NamedTuple):
    formula_id: str
    value: int
    matches_oracle: bool
    proven: bool


class DiscrepancyEntry(NamedTuple):
    """One (class instance, r, mode) adjudication record."""

    spec: ClassSpec
    r: Fraction
    mode: str
    oracle: int
    checks: tuple[FormulaCheck, ...] = ()

    @property
    def failed_proven(self) -> tuple[str, ...]:
        return tuple(c.formula_id for c in self.checks
                     if c.proven and not c.matches_oracle)

    @property
    def any_match(self) -> bool:
        return any(c.matches_oracle for c in self.checks)

    @property
    def ok(self) -> bool:
        return not self.failed_proven and self.any_match


def formulas_for(spec: ClassSpec, r: Fraction, mode: str) -> list[FormulaResult]:
    """The closed form(s) for one class instance and mode.  Cycles give
    both variants; ``propconn formula`` reports the first as the value."""
    if spec.family == "path":
        return [copvc_path(spec.n, r) if mode == "vertex" else copec_path(spec.n, r)]
    if spec.family == "cycle":
        if mode == "vertex":
            return [copvc_cycle_original_order(spec.n, r), copvc_cycle(spec.n, r)]
        return [copec_cycle_arc_cover(spec.n, r), copec_cycle(spec.n, r)]
    if spec.family == "complete":
        return [copvc_complete(spec.n, r) if mode == "vertex"
                else copec_complete(spec.n, r)]
    if spec.family == "complete_bipartite":
        if mode == "vertex":
            return [copvc_complete_bipartite(spec.a, spec.b, r)]
        raise ValueError("no closed form for complete bipartite edge removal; "
                         "use the exact solver")
    raise ValueError(f"unknown graph family {spec.family!r}")


def formula_vs_oracle(spec: ClassSpec, r: Fraction, mode: str) -> DiscrepancyEntry:
    """Run the matching formula(s) and the exact solver on a concrete
    instance and record both sides.  Cycle entries carry both variants."""
    g = spec.build()
    tau = _tau(r, g.n)
    if mode == "vertex":
        oracle = copvc_value(g, tau)
    elif mode == "edge":
        oracle = copec_value(g, tau)
    else:
        raise ValueError(f"mode must be 'vertex' or 'edge', got {mode!r}")
    checks = tuple(
        FormulaCheck(f.formula_id, f.value, f.value == oracle,
                     f.formula_id in PROVEN_FORMULAS)
        for f in formulas_for(spec, r, mode)
    )
    return DiscrepancyEntry(spec, r, mode, oracle, checks)
