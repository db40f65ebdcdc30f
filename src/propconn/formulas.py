"""Closed-form connectivity values for paths, cycles, complete and complete
bipartite graphs, and the harness that adjudicates each formula against the
exact solver.

``FORMULAS`` maps each (family, mode) to its closed forms, the reported one
first; ``formulas_for``, the ``formula`` and ``verify`` commands and the
harness all read it, and a pair it does not list has no closed form.  Each
form reads ``graph.threshold`` of the instance's order, as the solver does,
and the domain guard ``_tau`` raises ValueError outside the form's domain.

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

from .graph import Graph, path, cycle, complete, complete_bipartite, threshold
from .families import max_failure_edges
from .solver import copvc_value, copec_value

# Formula identifiers whose values the discrepancy harness treats as
# settled; the cycle variants stay under adjudication and never fail a run.
PROVEN_FORMULAS = frozenset({
    "path_vertex", "path_edge", "complete_vertex", "complete_edge",
    "complete_bipartite_vertex",
})

_BUILDERS = {"path": path, "cycle": cycle, "complete": complete,
             "complete_bipartite": complete_bipartite}


class FormulaResult(NamedTuple):
    value: int
    formula_id: str


class ClassSpec(NamedTuple):
    """A concrete instance of one of the supported graph classes."""

    family: str                    # path | cycle | complete | complete_bipartite
    n: int | None = None
    a: int | None = None
    b: int | None = None

    @property
    def args(self) -> tuple:
        """The arguments of the family's builder and closed forms, before
        r: (a, b) for complete_bipartite, (n,) for the other families."""
        if self.family == "complete_bipartite":
            return (self.a, self.b)
        return (self.n,)

    def build(self) -> Graph:
        return _BUILDERS[self.family](*self.args)

    @property
    def order(self) -> int:
        return sum(self.args)


def _tau(r: Fraction, n: int, formula_id: str, fits: bool = True,
         domain: str = "") -> int:
    """The domain guard of a closed form: raises ValueError when ``fits``
    is false (``domain`` says why), when n < 1 (``threshold``), or when
    floor(r*n) < 1; otherwise returns floor(r*n)."""
    if not fits:
        raise ValueError(domain)
    tau = threshold(r, n)
    if tau < 1:
        raise ValueError(f"{formula_id} requires floor(r*n) >= 1")
    return tau


def copvc_path(n: int, r: Fraction) -> FormulaResult:
    """floor(n / (floor(r*n) + 1)) vertices disconnect a path."""
    tau = _tau(r, n, "path_vertex")
    return FormulaResult(n // (tau + 1), "path_vertex")


def copvc_cycle(n: int, r: Fraction) -> FormulaResult:
    """Reduced-order cycle variant: threshold recomputed from n-1."""
    _tau(r, n, "cycle_vertex", fits=n >= 3, domain="cycle needs n >= 3")
    reduced = threshold(r, n - 1)
    return FormulaResult((n - 1) // (reduced + 1) + 1,
                         "cycle_vertex_reduced_order")


def copvc_cycle_original_order(n: int, r: Fraction) -> FormulaResult:
    """Cycle variant keeping the threshold at floor(r*n)."""
    tau = _tau(r, n, "cycle_vertex", fits=n >= 3, domain="cycle needs n >= 3")
    return FormulaResult((n - 1) // (tau + 1) + 1,
                         "cycle_vertex_original_order")


def copvc_complete(n: int, r: Fraction) -> FormulaResult:
    """n - floor(r*n): complete graphs shrink but never disconnect."""
    return FormulaResult(n - threshold(r, n), "complete_vertex")


def copvc_complete_bipartite(a: int, b: int, r: Fraction) -> FormulaResult:
    """min(a, a+b-floor(r*n)) with a <= b and n = a+b."""
    tau = _tau(r, a + b, "complete_bipartite_vertex", fits=1 <= a <= b,
               domain="complete bipartite needs 1 <= a <= b")
    return FormulaResult(min(a, a + b - tau), "complete_bipartite_vertex")


def copec_path(n: int, r: Fraction) -> FormulaResult:
    """floor((n-1) / floor(r*n)) edges disconnect a path."""
    tau = _tau(r, n, "path_edge")
    return FormulaResult((n - 1) // tau, "path_edge")


def copec_cycle(n: int, r: Fraction) -> FormulaResult:
    """Path-reduction cycle variant: one cut plus the path value."""
    tau = _tau(r, n, "cycle_edge", fits=n >= 3, domain="cycle needs n >= 3")
    return FormulaResult((n - 1) // tau + 1, "cycle_edge_path_reduction")


def copec_cycle_arc_cover(n: int, r: Fraction) -> FormulaResult:
    """Cycle variant counting arcs directly: ceil(n / floor(r*n))."""
    tau = _tau(r, n, "cycle_edge", fits=n >= 3, domain="cycle needs n >= 3")
    return FormulaResult(-(-n // tau), "cycle_edge_arc_cover")


def copec_complete(n: int, r: Fraction) -> FormulaResult:
    """C(n,2) minus the densest failure state's ``max_failure_edges``."""
    _tau(r, n, "complete_edge")
    return FormulaResult(comb(n, 2) - max_failure_edges(n, r), "complete_edge")


# (family, mode) -> its closed forms, the one ``propconn formula`` reports
# first; cycles keep both variants.
FORMULAS = {
    ("path", "vertex"): (copvc_path,),
    ("path", "edge"): (copec_path,),
    ("cycle", "vertex"): (copvc_cycle_original_order, copvc_cycle),
    ("cycle", "edge"): (copec_cycle_arc_cover, copec_cycle),
    ("complete", "vertex"): (copvc_complete,),
    ("complete", "edge"): (copec_complete,),
    ("complete_bipartite", "vertex"): (copvc_complete_bipartite,),
}


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


def formulas_for(spec: ClassSpec, r: Fraction, mode: str) -> list[FormulaResult]:
    """The closed forms of one class instance and mode, in ``FORMULAS``
    order.  Raises ValueError, before any solve, when the pair has no
    closed form or the instance is outside the forms' domain."""
    forms = FORMULAS.get((spec.family, mode))
    if forms is None:
        raise ValueError(f"no closed form for {spec.family.replace('_', ' ')} "
                         f"{mode} removal; use the exact solver")
    return [form(*spec.args, r) for form in forms]


def formula_vs_oracle(spec: ClassSpec, r: Fraction, mode: str) -> DiscrepancyEntry:
    """Run the instance's closed forms, then the exact solver, and record
    both sides.  The forms come first, so an instance without one raises
    ValueError before the graph is built or solved."""
    forms = formulas_for(spec, r, mode)
    solve = copvc_value if mode == "vertex" else copec_value
    oracle = solve(spec.build(), threshold(r, spec.order))
    return DiscrepancyEntry(spec, r, mode, oracle, tuple(
        FormulaCheck(f.formula_id, f.value, f.value == oracle,
                     f.formula_id in PROVEN_FORMULAS)
        for f in forms))
