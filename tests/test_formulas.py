from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from propconn import formulas
from propconn.formulas import (ClassSpec, copec_complete, copec_cycle,
                               copec_cycle_arc_cover, copec_path,
                               copvc_complete, copvc_complete_bipartite,
                               copvc_cycle, copvc_cycle_original_order,
                               copvc_path, formula_vs_oracle)
from propconn.solver import copec_exact, copvc_exact, copvc_value
from propconn.graph import complete, complete_bipartite, cycle, path

from conftest import STANDARD_GRID, proportions

HALF = Fraction(1, 2)


def test_path_vertex_values():
    assert copvc_path(10, Fraction(3, 10)).value == 2
    assert copvc_path(4, HALF).value == 1
    assert copvc_path(2, HALF).value == 1


def test_path_vertex_rejects_tau_zero():
    with pytest.raises(ValueError):
        copvc_path(3, Fraction(1, 4))


def test_cycle_vertex_variants():
    # both variants agree here
    assert copvc_cycle(6, HALF).value == 2
    assert copvc_cycle_original_order(6, HALF).value == 2
    assert copvc_cycle(3, HALF).value == 2
    # and disagree here; the exact solver sides with the original-order form
    assert copvc_cycle(4, Fraction(3, 4)).value == 2
    assert copvc_cycle_original_order(4, Fraction(3, 4)).value == 1
    assert copvc_exact(cycle(4), Fraction(3, 4)).cardinality == 1


def test_complete_vertex_values():
    assert copvc_complete(5, HALF).value == 3
    assert copvc_complete(2, HALF).value == 1
    assert copvc_complete(10, Fraction(9, 10)).value == 1


def test_complete_bipartite_vertex_values():
    assert copvc_complete_bipartite(2, 3, HALF).value == 2
    assert copvc_complete_bipartite(3, 3, Fraction(5, 6)).value == 1
    assert copvc_complete_bipartite(1, 1, HALF).value == 1
    with pytest.raises(ValueError):
        copvc_complete_bipartite(3, 2, HALF)


def test_path_edge_values():
    assert copec_path(7, HALF).value == 2
    assert copec_path(2, HALF).value == 1
    assert copec_path(10, Fraction(1, 5)).value == 4


def test_cycle_edge_values():
    assert copec_cycle(6, HALF).value == 2
    assert copec_cycle(4, HALF).value == 2
    assert copec_cycle(3, Fraction(1, 3)).value == 3
    # the two cycle edge variants are algebraically identical
    for n in range(3, 12):
        for r in STANDARD_GRID:
            if (r.numerator * n) // r.denominator >= 1:
                assert copec_cycle(n, r).value == copec_cycle_arc_cover(n, r).value


def test_complete_edge_values():
    assert copec_complete(6, HALF).value == 9
    assert copec_complete(5, HALF).value == 8
    assert copec_complete(3, Fraction(2, 3)).value == 2
    with pytest.raises(ValueError):
        copec_complete(3, Fraction(1, 4))


@given(st.integers(1, 40), proportions())
def test_complete_vertex_plus_tau_identity(n, r):
    tau = (r.numerator * n) // r.denominator
    assert copvc_complete(n, r).value + tau == n


@given(st.integers(1, 30), proportions())
def test_complete_edge_zero_remainder_identity(n, r):
    tau = (r.numerator * n) // r.denominator
    if tau >= 1 and n % tau == 0:
        p = n // tau
        assert copec_complete(n, r).value == comb(n, 2) - p * comb(tau, 2)


def test_formulas_match_oracle_up_to_ten():
    for r in STANDARD_GRID:
        for n in range(1, 11):
            tau = (r.numerator * n) // r.denominator
            if tau >= 1:
                assert copvc_path(n, r).value == copvc_exact(path(n), r).cardinality
                assert copec_path(n, r).value == copec_exact(path(n), r).cardinality
                assert (copec_complete(n, r).value
                        == copec_exact(complete(n), r).cardinality)
            assert copvc_complete(n, r).value == copvc_exact(complete(n), r).cardinality
        for a in range(1, 6):
            for b in range(a, 11 - a):
                if (r.numerator * (a + b)) // r.denominator >= 1:
                    assert (copvc_complete_bipartite(a, b, r).value
                            == copvc_exact(complete_bipartite(a, b), r).cardinality)


def test_vertex_closed_forms_at_every_tau_past_the_oracles():
    # Closed forms at orders the brute-force oracles cannot reach.  Every
    # K_{a, 24 - a} at every tau: K_{12,12} at tau = 12 is among the vertex
    # search's hardest inputs of its order.  P30 and C30 at every tau:
    # removals split them into many small live pieces.
    for a in range(1, 13):
        g = complete_bipartite(a, 24 - a)
        for tau in range(1, 24):
            assert (copvc_value(g, tau) == copvc_complete_bipartite(
                a, 24 - a, Fraction(tau, 24)).value), (a, tau)
    for tau in range(1, 30):
        r = Fraction(tau, 30)
        assert copvc_value(path(30), tau) == copvc_path(30, r).value, tau
        assert (copvc_value(cycle(30), tau)
                == copvc_cycle_original_order(30, r).value), tau


def test_formula_vs_oracle_entries():
    entry = formula_vs_oracle(ClassSpec("path", n=10), Fraction(3, 10), "vertex")
    assert entry.oracle == 2 and entry.ok and not entry.failed_proven
    entry = formula_vs_oracle(ClassSpec("complete", n=5), HALF, "vertex")
    assert entry.oracle == 3 and entry.ok
    entry = formula_vs_oracle(ClassSpec("cycle", n=6), HALF, "vertex")
    values = {c.formula_id: c.value for c in entry.checks}
    assert values == {"cycle_vertex_reduced_order": 2,
                      "cycle_vertex_original_order": 2}
    assert entry.oracle == 2


def test_cycle_harness_never_asserted_away():
    # the reduced-order variant misses the oracle here, and the record says so
    entry = formula_vs_oracle(ClassSpec("cycle", n=8), Fraction(1, 4), "vertex")
    assert entry.oracle == 3
    values = {c.formula_id: (c.value, c.matches_oracle) for c in entry.checks}
    assert values["cycle_vertex_reduced_order"] == (4, False)
    assert values["cycle_vertex_original_order"] == (3, True)
    assert entry.any_match and not entry.failed_proven


def test_bipartite_edge_has_no_formula():
    with pytest.raises(ValueError):
        formula_vs_oracle(ClassSpec("complete_bipartite", a=2, b=2), HALF, "edge")


def test_formula_vs_oracle_looks_up_forms_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solver called for an instance with no form")

    monkeypatch.setattr(formulas, "copec_value", no_solve)
    monkeypatch.setattr(formulas, "copvc_value", no_solve)
    with pytest.raises(ValueError, match="no closed form"):
        formula_vs_oracle(ClassSpec("complete_bipartite", a=2, b=2), HALF, "edge")
    # outside a form's domain: floor(r*n) = 0, and a cycle on two vertices
    with pytest.raises(ValueError, match="floor"):
        formula_vs_oracle(ClassSpec("path", n=3), Fraction(1, 4), "vertex")
    with pytest.raises(ValueError, match="n >= 3"):
        formula_vs_oracle(ClassSpec("cycle", n=2), HALF, "edge")


def test_path_and_cycle_edge_formulas_at_fifteen_to_eighteen():
    # Up to the edge solver's limit of 18 vertices: 40 entries, where no
    # proven form fails and the unproven cycle forms match as well.
    for n in range(15, 19):
        for family in ("path", "cycle"):
            for r in STANDARD_GRID:
                entry = formula_vs_oracle(ClassSpec(family, n=n), r, "edge")
                assert not entry.failed_proven, entry
                assert entry.checks and all(c.matches_oracle
                                            for c in entry.checks), entry
