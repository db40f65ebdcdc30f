import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from propconn import enumeration
from propconn.graph import Graph

STANDARD_GRID = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                 Fraction(2, 3), Fraction(3, 4))
SOLVER_GRID = STANDARD_GRID + (Fraction(9, 10),)


@st.composite
def graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)))
    return Graph(n, edges)


@st.composite
def proportions(draw, max_denominator=12):
    den = draw(st.integers(2, max_denominator))
    num = draw(st.integers(1, den - 1))
    return Fraction(num, den)


def forget_family_profiles(monkeypatch):
    """Give family_profile an empty store until the test ends, so that later
    requests solve, or inherit, from scratch."""
    monkeypatch.setattr(enumeration, "_SOLVED", {})
