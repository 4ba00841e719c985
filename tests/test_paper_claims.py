"""Integration tests: every quantitative claim in the paper, end to end.

Each test cites the paper location it reproduces.  The golden-snapshot
class at the bottom pins every paper example's full plan (costs,
offsets, strides, schemes) to ``tests/golden/*.json`` so refactors
cannot silently shift the numbers; regenerate deliberately with
``pytest --update-golden``.
"""

from fractions import Fraction

import pytest

from repro.adg import build_adg
from repro.align import align_and_distribute, align_program, solve_axis_stride
from repro.align.axis_stride import AxisStrideSolver
from repro.align.offset_mobile import fixed_partitioning, unrolling
from repro.lang import programs
from repro.machine import measure_plan


class TestExample1:
    """Section 2.1 Example 1: offsets A at [i], B at [i-1] remove the
    nearest-neighbour shift."""

    def test_zero_cost_and_relative_offset(self):
        plan = align_program(programs.example1())
        assert plan.total_cost == 0
        src = plan.source_alignments()
        assert src["B"].axes[0].offset - src["A"].axes[0].offset == -1


class TestExample2:
    """Example 2: strides A at [2i], B at [i] avoid general comm."""

    def test_zero_cost_and_stride_ratio(self):
        plan = align_program(programs.example2())
        assert plan.total_cost == 0
        src = plan.source_alignments()
        sa = src["A"].axes[0].stride
        sb = src["B"].axes[0].stride
        assert sa == sb * 2


class TestExample3:
    """Example 3: C axis-reversed relative to B removes the transpose."""

    def test_zero_cost_and_swapped_axes(self):
        plan = align_program(programs.example3())
        assert plan.total_cost == 0
        src = plan.source_alignments()
        assert src["B"].axis_signature() != src["C"].axis_signature()


class TestExample4Figure1:
    """Example 4 / Figure 1: mobile offset V(i) at [k, i-k+1]."""

    def test_mobile_alignment_exact(self):
        from repro.ir import LIV, AffineForm

        k = LIV("k", 0)
        adg = build_adg(programs.figure1())
        skel = solve_axis_stride(adg).skeletons
        res = unrolling(adg, skel)
        for p in adg.ports():
            if "merge(V" in p.uid:
                assert res.offsets[(p.key, 0)] == AffineForm.variable(k)
                assert res.offsets[(p.key, 1)] == AffineForm(1, {k: -1})

    def test_mobile_vs_static_factor(self):
        static = align_program(programs.figure1(), replication=False, mobile=False)
        mobile = align_program(programs.figure1(), replication=False)
        assert mobile.total_cost == 39600
        assert static.total_cost / mobile.total_cost > 10


class TestExample5:
    """Example 5: mobile stride halves general communication (2 -> 1
    per iteration)."""

    @pytest.mark.parametrize("iters", [25, 50, 100])
    def test_cost_is_one_comm_per_iteration(self, iters):
        adg = build_adg(programs.example5(iters=iters, m=20))
        res = solve_axis_stride(adg)
        # 20 elements x one loop-back realignment per iteration boundary
        # (980 for the paper's 50 iterations)
        assert res.cost == 20 * (iters - 1)
        # The best static stride: the arrays' homes (source, merge and
        # sink ports) may take constant strides only, and one of the two
        # statements then communicates generally in every iteration.
        solver = AxisStrideSolver(adg)
        solver.generate_candidates()
        for p in adg.ports():
            if p.node.kind.name in ("SOURCE", "MERGE", "SINK"):
                static = [
                    lab
                    for lab in solver.candidates[p.key]
                    if all(ax.stride is None or ax.stride.is_constant for ax in lab.axes)
                ]
                if static:
                    solver.candidates[p.key] = static
        assert 1.8 <= solver.solve(regenerate=False).cost / res.cost <= 2.2


class TestFigure3ErrorBound:
    """Section 4.2: approximation within (1 + 2/m^2); at most one
    subrange per edge contains a zero crossing after refinement."""

    @pytest.mark.parametrize("m,bound", [(3, 1 + 2 / 9), (5, 1 + 2 / 25), (10, 1.02)])
    def test_bound_on_wavefront(self, m, bound):
        adg = build_adg(programs.figure1(n=40))
        skel = solve_axis_stride(adg).skeletons
        exact = unrolling(adg, skel)
        approx = fixed_partitioning(adg, skel, m=m)
        assert approx.cost <= exact.cost * bound + 1e-9

    def test_error_decreases_with_m(self):
        adg = build_adg(programs.skewed_wavefront(n=24))
        skel = solve_axis_stride(adg).skeletons
        costs = [fixed_partitioning(adg, skel, m=m).cost for m in (1, 2, 3, 5)]
        assert costs[-1] <= costs[0]
        assert costs[-2] <= costs[0]


class TestFigure4:
    """Figure 4: replicate t -> one broadcast at loop entry instead of
    one per iteration."""

    @pytest.mark.parametrize("nt,nk", [(100, 200), (50, 25), (64, 128)])
    def test_cost_ratio_is_iteration_count(self, nt, nk):
        with_rep = align_program(programs.figure4(nt=nt, nk=nk))
        without = align_program(programs.figure4(nt=nt, nk=nk), replication=False)
        assert with_rep.total_cost == nt
        assert without.total_cost == nk * nt


class TestTheorem1:
    """Theorem 1: the min-cut labeling is optimal (see
    test_align_replication.TestEndToEnd.test_cut_optimality_vs_exhaustive
    for the brute-force cross-check)."""

    def test_cut_never_worse_than_all_n_or_all_r_baselines(self):
        from repro.align import label_replication
        from repro.ir import weighted_moments

        program = programs.figure4()
        adg = build_adg(program)
        skel = solve_axis_stride(adg).skeletons
        rep = label_replication(adg, skel, program)
        # all-N baseline: every forced-R edge broadcast per iteration
        minimal = label_replication(adg, skel, program, minimal=True)

        def broadcast_cost(labels):
            total = Fraction(0)
            for e in adg.edges:
                for axis in range(adg.template_rank):
                    lu = labels.get((e.tail.key, axis), "N")
                    lv = labels.get((e.head.key, axis), "N")
                    if lu == "N" and lv == "R":
                        total += weighted_moments(e.space, e.weight).m0
                        break
            return total

        assert broadcast_cost(rep.labels) <= broadcast_cost(minimal.labels)


class TestEquation1Validation:
    """Section 2.3: the cost model is operational — the machine simulator
    under the identity distribution reproduces equation 1 exactly."""

    @pytest.mark.parametrize(
        "prog,kwargs",
        [
            (programs.figure1(n=12), dict(replication=False)),
            (programs.figure1(n=12), dict(replication=False, mobile=False)),
            (programs.example1(n=24), {}),
            (programs.example2(n=16), {}),
            (programs.stencil_sweep(n=16, iters=2), dict(replication=False)),
            (programs.skewed_wavefront(n=8), dict(replication=False)),
        ],
        ids=[
            "figure1", "figure1-static", "example1", "example2", "stencil",
            "wavefront",
        ],
    )
    def test_hops_equal_analytic(self, prog, kwargs):
        plan = align_program(prog, **kwargs)
        rep = measure_plan(plan, scheme="identity")
        nongeneral = all(not t.count.general for t in rep.edges)
        if nongeneral:
            assert rep.hop_cost == plan.total_cost


def plan_snapshot(plan) -> dict:
    """A JSON-stable projection of everything the pipeline decided.

    Exact rationals are serialized as strings; alignments via their
    canonical repr (axis/stride/offset/replication all visible).
    """
    snap = {
        "program": plan.program.name,
        "total_cost": str(plan.total_cost),
        "axis_stride_cost": str(plan.axis_stride.cost),
        "replication_rounds": plan.replication_rounds,
        "alignments": {
            arr: repr(al) for arr, al in sorted(plan.source_alignments().items())
        },
    }
    if plan.distribution is not None:
        d = plan.distribution
        snap["distribution"] = {
            "directive": d.directive(),
            "grid": list(d.grid),
            "exact": d.exact,
            "axes": [
                {
                    "scheme": a.scheme,
                    "nprocs": a.nprocs,
                    "block": a.block,
                    "base": a.base,
                }
                for a in d.axes
            ],
            "cost": {
                "hops": d.cost.hops,
                "moved": d.cost.moved,
                "broadcast": d.cost.broadcast,
            },
        }
    return snap


class TestGoldenSnapshots:
    """Every paper example's full plan, pinned to tests/golden/*.json.

    A refactor that shifts any paper number — total cost, an offset, a
    stride, the chosen distribution — fails here even if the coarser
    claim-level assertions above still hold.
    """

    NPROCS = 4

    @pytest.mark.parametrize("name", sorted(programs.ALL_PAPER_FRAGMENTS))
    def test_plan_matches_golden(self, name, golden):
        prog = programs.ALL_PAPER_FRAGMENTS[name]()
        plan = align_and_distribute(prog, self.NPROCS)
        golden.check(name, plan_snapshot(plan))
