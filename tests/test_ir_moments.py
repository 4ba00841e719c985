"""Moments from power-sum tables against chained symbolic summation.

``weighted_moments`` builds each triplet's power sums once and sums a
moment as ``sum c * prod_j P_e_j(t_j)`` over the weight's terms.  The
reference (``tests/moments_reference.py``) sums the polynomial over one
LIV at a time with ``sum_over``; the tables must give the same exact
scalar — the value, its ``int`` / ``Fraction`` type and the key order of
``m1`` — on every box, and on every box the planner prices.  The
``sum_over`` properties live here with the reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moments_reference import chained_moments, sum_over
from repro.ir import LIV, IterationSpace, Polynomial, Triplet, weighted_moments

k = LIV("k")
j = LIV("j")


def assert_same_moments(got, want) -> None:
    """Equal values of equal types, ``m1`` in the same key order."""
    assert (got.m0, type(got.m0)) == (want.m0, type(want.m0))
    assert list(got.m1) == list(want.m1)
    assert [(v, type(v)) for v in got.m1.values()] == [
        (v, type(v)) for v in want.m1.values()
    ]


# -- sum_over, the reference's one step ---------------------------------------


def _values(lo, hi, step):
    return list(Triplet(lo, hi, step))


class TestSumOver:
    @pytest.mark.parametrize(
        "lo,hi,step",
        [(1, 10, 1), (2, 20, 3), (5, 5, 1), (10, 1, -2), (1, 0, 1)],
    )
    def test_degree2_sum(self, lo, hi, step):
        p = Polynomial.variable(k) ** 2 + Polynomial.variable(k) * 2 + 1
        expect = sum(v * v + 2 * v + 1 for v in _values(lo, hi, step))
        got = sum_over(p, k, lo, hi, step)
        assert got.is_constant
        assert got.const == expect

    def test_sum_keeps_other_vars(self):
        p = Polynomial.variable(k) * Polynomial.variable(j)
        s = sum_over(p, k, 1, 4)  # 10 * j
        assert s.evaluate({j: 3}) == 30
        assert k not in s.livs()

    def test_zero_step_raises(self):
        with pytest.raises(ValueError):
            sum_over(Polynomial.variable(k), k, 1, 5, 0)

    @given(
        st.builds(
            lambda lo, n, s: Triplet(lo, lo + (n - 1) * s, s),
            st.integers(-20, 20),
            st.integers(1, 40),
            st.sampled_from([-3, -2, -1, 1, 2, 3]),
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=40)
    def test_sum_over_matches_enumeration(self, t, deg):
        p = Polynomial.variable(k) ** deg
        s = sum_over(p, k, t.lo, t.hi, t.step)
        assert s.const == sum(Fraction(v) ** deg for v in t)


# -- the tables against the chained reference ---------------------------------

LIVS = (LIV("i", 0), LIV("j", 1), LIV("k", 2))

# Empty triplets (n = 0) and negative steps included.
triplets = st.builds(
    lambda lo, n, s: Triplet(lo, lo + (n - 1) * s, s),
    st.integers(-9, 9),
    st.integers(0, 7),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def boxes_and_weights(draw):
    depth = draw(st.integers(0, 3))
    livs = LIVS[:depth]
    space = IterationSpace(livs, tuple(draw(triplets) for _ in livs))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        # Per-LIV degree up to 5: a first moment then reads P_6, past
        # the closed-form index sums.
        exps = [draw(st.integers(0, 5)) for _ in livs]
        mono = tuple((liv, e) for liv, e in zip(livs, exps) if e)
        terms[mono] = draw(coefficients)
    return space, Polynomial(terms)


class TestTablesMatchTheChainedReference:
    @given(boxes_and_weights())
    @settings(max_examples=300, deadline=None)
    def test_weighted_moments_equal_the_chained_reference(self, box):
        space, weight = box
        assert_same_moments(
            weighted_moments(space, weight), chained_moments(space, weight)
        )

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_a_degree_above_three_reads_faulhaber(self, degree):
        space = IterationSpace(
            (LIVS[0], LIVS[1]), (Triplet(-4, 11, 3), Triplet(9, -3, -2))
        )
        weight = Polynomial.variable(LIVS[0]) ** degree * Fraction(1, 3) + 2
        got = weighted_moments(space, weight)
        assert_same_moments(got, chained_moments(space, weight))
        pts = [(a, b) for a in space.triplets[0] for b in space.triplets[1]]
        assert got.m1[LIVS[0]] == sum(
            (Fraction(a) ** degree / 3 + 2) * a for a, _ in pts
        )

    def test_every_box_the_planner_prices(self, monkeypatch):
        """Each moment the planner computes — on the 16 kernels and on
        ``generate_corpus(14, 0)`` — equals the reference's."""
        from pathlib import Path

        import repro.align.cost as cost
        from repro import cachestats
        from repro.align import align_and_distribute
        from repro.lang import parse
        from repro.lang.generate import generate_corpus

        real = cost.weighted_moments
        checked = []

        def checking(space, weight):
            got = real(space, weight)
            assert_same_moments(got, chained_moments(space, weight))
            checked.append(space.depth)
            return got

        monkeypatch.setattr(cost, "weighted_moments", checking)
        cachestats.clear_caches()
        corpus = Path(__file__).parent.parent / "benchmarks" / "perf" / "corpus"
        programs = [parse(p.read_text(), name=p.stem) for p in sorted(corpus.glob("*.dp"))]
        programs += [sc.parse() for sc in generate_corpus(14, 0)]
        for program in programs:
            align_and_distribute(program, nprocs=16)
        cachestats.clear_caches()
        assert len(programs) == 30
        assert len(checked) > 400 and max(checked) >= 2
