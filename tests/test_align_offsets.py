"""Unit tests for Sections 4.1-4.4: offset alignment by RLP."""

from fractions import Fraction

import pytest

from repro.adg import build_adg
from repro.align import (
    abs_weighted_span,
    offset_only_cost,
    solve_axis_stride,
    solve_mobile_offsets,
    solve_offsets,
)
from repro.align.offset_mobile import ALGORITHMS, fixed_partitioning, unrolling
from repro.ir import LIV, AffineForm, IterationSpace, Polynomial
from repro.lang import parse
from repro.lang import programs

k = LIV("k", 0)

BACKENDS = ["scipy", "simplex"]


def solve(program, algorithm="fixed", backend="scipy", **kw):
    adg = build_adg(program)
    skel = solve_axis_stride(adg).skeletons
    res = solve_mobile_offsets(adg, skel, algorithm, backend=backend, **kw)
    return adg, skel, res


class TestStaticOffsets:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_example1_offsets(self, backend):
        """Example 1: B at [i-1] relative to A removes the shift."""
        adg, skel, res = solve(programs.example1(), backend=backend)
        assert res.cost == 0
        offs = {}
        for p in adg.ports():
            if p.node.kind.name == "SOURCE":
                offs[p.node.label] = res.offsets[(p.key, 0)]
        assert offs["source(B)"] - offs["source(A)"] == AffineForm(-1)

    def test_stencil_cost_positive(self):
        """A 3-point stencil cannot be made communication-free."""
        adg, skel, res = solve(programs.stencil_sweep(n=32, iters=2))
        assert res.cost > 0

    def test_rounding_preserves_node_constraints(self):
        adg, skel, res = solve(programs.example1())
        from repro.align.constraints import EqualShift, node_offset_relations

        for n in adg.nodes:
            for rel in node_offset_relations(n, dict(skel)):
                if isinstance(rel, EqualShift):
                    p_off = res.offsets[(rel.p.key, rel.axis)]
                    q_off = res.offsets[(rel.q.key, rel.axis)]
                    assert q_off - p_off == rel.shift, (n.label, rel.axis)

    def test_integral_offsets(self):
        adg, skel, res = solve(programs.figure1())
        for form in res.offsets.values():
            assert form.is_integral()


class TestMobileOffsets:
    def test_figure1_unrolling_exact(self):
        adg, skel, res = solve(programs.figure1(), algorithm="unrolling")
        assert res.cost == 39600  # 200 elements x L1 distance 2 x 99 moves

    def test_figure1_mobile_alignment_found(self):
        adg, skel, res = solve(programs.figure1(), algorithm="unrolling")
        for p in adg.ports():
            if "merge(V" in p.uid:
                row = res.offsets[(p.key, 0)]
                col = res.offsets[(p.key, 1)]
                assert row == AffineForm.variable(k)  # V row tracks k
                assert col == AffineForm(1, {k: -1})  # Example 4: i - k + 1

    def test_fixed_within_paper_bound(self):
        """Section 4.2: fixed partitioning is within 1 + 2/m^2 of optimal
        (22% for m=3, 8% for m=5)."""
        adg, skel, _ = solve(programs.figure1())
        exact = unrolling(adg, skel)
        for m, bound in [(3, 1 + 2 / 9), (5, 1 + 2 / 25)]:
            res = fixed_partitioning(adg, skel, m=m)
            ratio = float(res.cost / exact.cost)
            assert ratio <= bound + 1e-9, (m, ratio)

    def test_m1_unprotected_by_bound(self):
        """With a single subrange the span's sign change cancels inside the
        sum (Figure 3(b)) and the approximation can be arbitrarily poor —
        the paper's motivation for partitioning at all."""
        adg, skel, _ = solve(programs.figure1())
        exact = unrolling(adg, skel)
        res = fixed_partitioning(adg, skel, m=1)
        assert res.cost > exact.cost * 2

    def test_monotone_in_m(self):
        adg, skel, _ = solve(programs.skewed_wavefront(n=16))
        costs = [fixed_partitioning(adg, skel, m=m).cost for m in (1, 3, 5)]
        assert costs[0] >= costs[1] >= costs[2]

    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_all_algorithms_run_and_bound_exact(self, alg):
        adg, skel, _ = solve(programs.figure1(n=16))
        exact = unrolling(adg, skel)
        res = ALGORITHMS[alg](adg, skel)
        assert res.cost >= exact.cost  # exact is a lower bound
        assert res.cost <= exact.cost * 60  # and nothing absurd

    def test_static_pins_loop_values(self):
        adg, skel, res = solve(programs.figure1(n=16), static=True)
        for p in adg.ports():
            if p.node.kind.name in ("SOURCE", "MERGE", "SINK"):
                for tau in range(adg.template_rank):
                    assert res.offsets[(p.key, tau)].is_constant

    def test_static_costs_more(self):
        _, _, mobile = solve(programs.figure1(n=16))
        _, _, static = solve(programs.figure1(n=16), static=True)
        assert static.cost > mobile.cost

    def test_variable_size_objects(self):
        """Section 4.3: triangular sections still solve exactly."""
        adg, skel, res = solve(programs.triangular_sections(iters=10, m=4), algorithm="unrolling")
        assert res.cost == 0  # all sections start at 1: perfectly alignable

    def test_loop_nest_3k_subranges(self):
        """Section 4.4: 2-deep nest partitions into 3^2 subranges."""
        adg, skel, _ = solve(programs.doubly_nested(n=4))
        res = fixed_partitioning(adg, skel, m=3)
        per_edge = {
            e.eid: len(e.space.grid_partition(3)) for e in adg.edges
        }
        assert max(per_edge.values()) == 9

    def test_backends_agree_on_cost(self):
        _, _, a = solve(programs.example1(), backend="scipy")
        _, _, b = solve(programs.example1(), backend="simplex")
        assert a.cost == b.cost


class TestAbsWeightedSpan:
    def test_enumeration_matches_closed_form(self):
        span = AffineForm(3, {k: 2})
        w = Polynomial.from_affine(AffineForm(1, {k: 1}))
        space = IterationSpace.single(k, 1, 30)
        got = abs_weighted_span(span, w, space)
        brute = sum((1 + i) * abs(3 + 2 * i) for i in range(1, 31))
        assert got == brute

    def test_sign_change_exact(self):
        span = AffineForm(-7, {k: 1})
        w = Polynomial.constant(2)
        space = IterationSpace.single(k, 1, 20)
        brute = sum(2 * abs(i - 7) for i in range(1, 21))
        assert abs_weighted_span(span, w, space) == brute

    def test_scalar_space(self):
        span = AffineForm(-4)
        assert abs_weighted_span(span, Polynomial.constant(3), IterationSpace.scalar()) == 12

    def test_large_space_recursive_split(self):
        span = AffineForm(-5000, {k: 1})
        w = Polynomial.constant(1)
        space = IterationSpace.single(k, 1, 10000)
        got = abs_weighted_span(span, w, space)
        # sum |i - 5000| for i=1..10000
        brute = sum(abs(i - 5000) for i in (1, 10000))  # just ends for speed
        assert got == sum(abs(i - 5000) for i in range(1, 10001))


class TestMomentSumsGoThroughTheMemo:
    """The §4.3 closed-form sums are exact ``Fraction`` arithmetic and
    the same (space, weight) pair is summed by the axis-stride weights,
    the min-cut capacities, every LP build of every fixpoint round and
    the final pricing — so every caller under ``repro.align`` must reach
    them through :func:`repro.align.cost.cached_moments`."""

    def test_cold_plan_mostly_hits(self):
        from repro import cachestats
        from repro.align import align_and_distribute
        from repro.align.cost import _MOMENTS

        cachestats.clear_caches()
        before = cachestats.snapshot()
        align_and_distribute(programs.figure1(), nprocs=16)
        hits, misses = cachestats.delta(before)["align.moments"]
        assert hits + misses > 100
        assert hits / (hits + misses) >= 0.85
        # No new cache, and the one cell keeps its bound.
        assert 0 < len(_MOMENTS) <= _MOMENTS.maxsize == 4096

    def test_only_cost_module_imports_the_uncached_function(self):
        import re
        from pathlib import Path

        import repro.align

        offenders = [
            path.name
            for path in sorted(Path(repro.align.__file__).parent.glob("*.py"))
            if path.name != "cost.py"
            and re.search(r"\bweighted_moments\b", path.read_text())
        ]
        assert not offenders, (
            f"{offenders} mention ir.closedform.weighted_moments; "
            "use repro.align.cost.cached_moments"
        )
