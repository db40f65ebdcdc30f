from fractions import Fraction
from math import comb

import pytest

from propconn.graph import complete, threshold
from propconn.solver import copec_value, copvc_value
from propconn.families import (build_max_failure_state,
                               coemax_tail, coemin, coemin_witness,
                               complete_minus_two_disjoint_edges, covmax_tail,
                               covmin, covmin_piecewise_crosscheck,
                               covmin_witness,
                               covmin_threshold_f, extremal_by_enumeration,
                               max_failure_edges)
from propconn.enumeration import enumerate_gnm, family_profile

from conftest import STANDARD_GRID
from oracles import max_partition_edges

HALF = Fraction(1, 2)


def test_pq_decomposition():
    # n = 7 = 2*3 + 1 at r = 1/2: the densest failure state is 2 K_3 + K_1
    assert threshold(HALF, 7) == 3
    g = build_max_failure_state(7, HALF)
    assert sorted(c.bit_count() for c in g.component_masks()) == [1, 3, 3]
    assert g.m == max_failure_edges(7, HALF) == 6
    # floor(n/4) = 0 at n = 3: there is no decomposition
    for densest in (build_max_failure_state, max_failure_edges):
        with pytest.raises(ValueError, match=r"^decomposition requires "
                                             r"floor\(r\*n\) >= 1$"):
            densest(3, Fraction(1, 4))


def test_max_failure_edges_values():
    assert max_failure_edges(7, HALF) == 6
    assert max_failure_edges(6, HALF) == 6
    assert max_failure_edges(2, HALF) == 0


def test_max_failure_edges_matches_partition_oracle():
    for n in range(2, 9):
        for r in STANDARD_GRID:
            tau = (r.numerator * n) // r.denominator
            if tau >= 1:
                assert max_failure_edges(n, r) == max_partition_edges(n, tau)


def test_max_failure_edges_matches_enumerated_failure_states():
    for n in range(2, 7):
        for r in STANDARD_GRID:
            tau = (r.numerator * n) // r.denominator
            if tau < 1:
                continue
            best = max(m for m in range(comb(n, 2) + 1)
                       for g in enumerate_gnm(n, m) if g.is_failure_state(tau))
            assert max_failure_edges(n, r) == best


def test_build_max_failure_state_shape():
    g = build_max_failure_state(7, HALF)
    assert sorted(c.bit_count() for c in g.component_masks()) == [1, 3, 3]
    assert g.m == max_failure_edges(7, HALF)
    assert build_max_failure_state(3, Fraction(1, 3)).m == 0
    g = build_max_failure_state(5, Fraction(2, 5))
    assert sorted(c.bit_count() for c in g.component_masks()) == [1, 2, 2]
    assert g.m == 2


def test_covmin_threshold_values():
    assert covmin_threshold_f(0, 6, HALF) == 6
    assert covmin_threshold_f(1, 6, HALF) == 9
    assert covmin_threshold_f(2, 4, HALF) == 6
    with pytest.raises(ValueError):
        covmin_threshold_f(4, 6, HALF)


def test_covmin_threshold_at_tau_zero():
    # At floor(r*n) = 0 every vertex must go: k = n is the only value, and
    # the piecewise labeling has no case for it.
    quarter = Fraction(1, 4)
    assert covmin_threshold_f(3, 3, quarter) == comb(3, 2)
    for k in (0, 1, 2, 4):
        with pytest.raises(ValueError, match=r"out of range \[3, 3\]"):
            covmin_threshold_f(k, 3, quarter)
    assert [covmin_piecewise_crosscheck(3, m, quarter)
            for m in range(comb(3, 2) + 1)] == [None] * 4


def test_covmin_values():
    assert covmin(6, 6, HALF) == 0
    assert covmin(6, 9, HALF) == 1
    # at the complete graph the family minimum is n - tau
    assert covmin(6, 15, HALF) == 3
    with pytest.raises(ValueError):
        covmin(6, 16, HALF)


def test_covmin_witness_attains_value():
    for n in (5, 6):
        for r in (Fraction(1, 3), HALF):
            tau = (r.numerator * n) // r.denominator
            if tau < 1:
                continue
            for m in range(comb(n, 2) + 1):
                witness = covmin_witness(n, m, r)
                assert witness.n == n and witness.m == m
                assert copvc_value(witness, tau) == covmin(n, m, r)


def test_coemin_values():
    assert coemin(6, 6, HALF) == 0
    assert coemin(6, 10, HALF) == 4
    assert coemin(6, 15, HALF) == 9


def test_coemin_witness_attains_value():
    for m in range(comb(6, 2) + 1):
        witness = coemin_witness(6, m, HALF)
        assert witness.m == m
        assert copec_value(witness, 3) == coemin(6, m, HALF)


def test_piecewise_crosscheck_examples():
    assert covmin_piecewise_crosscheck(6, 6, HALF) == 0
    assert covmin_piecewise_crosscheck(6, 15, HALF) == 3
    assert covmin_piecewise_crosscheck(4, 0, HALF) == 0


def test_piecewise_crosscheck_agrees_when_remainder_zero():
    # with q = 0 the case windows line up with the threshold scan
    for n, r in [(6, HALF), (4, HALF), (6, Fraction(1, 3)), (8, Fraction(1, 4))]:
        assert n % threshold(r, n) == 0
        for m in range(comb(n, 2) + 1):
            assert covmin_piecewise_crosscheck(n, m, r) == covmin(n, m, r)


def test_piecewise_crosscheck_disagrees_where_windows_shift():
    # with q >= 1 the printed windows shift by one block; reported, not fixed
    mismatches = [m for m in range(comb(7, 2) + 1)
                  if covmin_piecewise_crosscheck(7, m, HALF)
                  != covmin(7, m, HALF)]
    assert mismatches, "expected reportable disagreements at n=7, r=1/2"
    assert covmin_piecewise_crosscheck(7, 13, HALF) == 1
    assert covmin(7, 13, HALF) == 2


def test_tail_values():
    assert covmax_tail(6, 2, HALF) == 0
    assert covmax_tail(6, 15, HALF) == 3
    assert covmax_tail(6, 8, HALF) is None
    assert coemax_tail(6, 15, HALF) == 9
    assert coemax_tail(4, 1, HALF) == 0
    assert coemax_tail(5, 8, Fraction(9, 10)) is None
    # the full upper tail stops strictly before m = C(n,2)
    assert coemax_tail(5, 9, Fraction(9, 10)) is None
    assert coemax_tail(5, 10, Fraction(9, 10)) == comb(5, 2) - comb(4, 2)
    # floor(r*n) = 0: every vertex must go, and no edge removal suffices
    for m in range(comb(3, 2) + 1):
        assert covmax_tail(3, m, Fraction(1, 4)) == 3
        with pytest.raises(ValueError, match="edge statistics need"):
            coemax_tail(3, m, Fraction(1, 4))


def test_zero_threshold_vertex_statistics_are_n():
    quarter = Fraction(1, 4)
    for m in range(comb(3, 2) + 1):
        assert covmin(3, m, quarter) == 3
        witness = covmin_witness(3, m, quarter)
        assert witness.m == m and copvc_value(witness, 0) == 3
        assert witness == next(enumerate_gnm(3, m))


def test_edge_statistics_refuse_zero_threshold_alike():
    quarter = Fraction(1, 4)
    entry_points = (coemin, coemax_tail,
                    lambda n, m, r: extremal_by_enumeration(n, m, r, "coemin"),
                    lambda n, m, r: extremal_by_enumeration(n, m, r, "coemax"))
    for entry in entry_points:
        with pytest.raises(ValueError) as info:
            entry(3, 1, quarter)
        assert str(info.value) == "edge statistics need floor(r*n) >= 1"


def test_tails_match_enumeration_wherever_defined():
    for n in range(2, 7):
        for r in STANDARD_GRID:
            if (r.numerator * n) // r.denominator < 1:
                continue
            for m in range(comb(n, 2) + 1):
                profile = family_profile(n, m, r)
                tail = covmax_tail(n, m, r)
                if tail is not None:
                    assert tail == max(profile.vertex_values), ("covmax", n, m, r)
                tail = coemax_tail(n, m, r)
                if tail is not None:
                    assert tail == max(profile.edge_values), ("coemax", n, m, r)


def test_complete_minus_two_disjoint_edges_drops_below_full_tail():
    g = complete_minus_two_disjoint_edges(5)
    assert g.m == comb(5, 2) - 2
    # at tau = n-1 the value is n-2, not the n-1 the full tail would give
    assert copec_value(g, 4) == 3
    assert copec_value(complete(5), 4) == 4


def test_extremal_by_enumeration_examples():
    res = extremal_by_enumeration(6, 9, HALF, "covmin")
    assert res.value == 1 and res.stat == "covmin"
    assert copvc_value(res.witness, 3) == 1
    res = extremal_by_enumeration(3, 3, HALF, "covmin")
    assert res.value == 2
    res = extremal_by_enumeration(5, 8, Fraction(9, 10), "coemax")
    assert res.value == 3  # attained by K_5 minus two disjoint edges
    with pytest.raises(ValueError):
        extremal_by_enumeration(6, 9, HALF, "comax")
    with pytest.raises(ValueError):
        extremal_by_enumeration(4, 2, Fraction(1, 5), "coemin")


def test_formula_matches_enumeration_n_up_to_5():
    for n in range(2, 6):
        for r in STANDARD_GRID:
            tau = (r.numerator * n) // r.denominator
            if tau < 1:
                continue
            for m in range(comb(n, 2) + 1):
                assert (covmin(n, m, r)
                        == extremal_by_enumeration(n, m, r, "covmin").value)
                assert (coemin(n, m, r)
                        == extremal_by_enumeration(n, m, r, "coemin").value)


def test_family_profile_aligns_with_classes():
    profile = family_profile(5, 6, HALF)
    classes = list(enumerate_gnm(5, 6))
    assert len(profile.vertex_values) == len(classes)
    assert profile.edge_values is not None
    assert min(profile.vertex_values) == covmin(5, 6, HALF)
