"""Unit tests for Section 3: axis and mobile stride alignment."""

from collections import Counter
from fractions import Fraction

import pytest
from axis_stride_reference import ReferenceSolver
from conftest import reference_programs

from repro.adg import build_adg
from repro.adg.nodes import SubscriptSpec
from repro.align import axis_stride as axs
from repro.align import canonical_skeletons, solve_axis_stride
from repro.align.axis_stride import (
    AxisStrideSolver,
    _div_affine,
    section_backward,
    section_forward,
    spread_backward,
    spread_forward,
    transpose_transform,
)
from repro.ir import LIV, AffineForm
from repro.lang import parse
from repro.lang import programs

k = LIV("k", 0)


class TestLabelTransforms:
    def test_canonical_count(self):
        assert len(canonical_skeletons(1, 2)) == 2
        assert len(canonical_skeletons(2, 2)) == 2
        assert len(canonical_skeletons(2, 3)) == 6

    def test_transpose_involution(self):
        for lab in canonical_skeletons(2, 2):
            assert transpose_transform(transpose_transform(lab)) == lab

    def test_section_forward_stride(self):
        lab = canonical_skeletons(1, 1)[0]
        subs = (SubscriptSpec("slice", lo=AffineForm(2), step=AffineForm(2)),)
        out = section_forward(lab, subs)
        assert out.axes[0].stride == AffineForm(2)

    def test_section_forward_mobile_step(self):
        lab = canonical_skeletons(1, 1)[0]
        subs = (SubscriptSpec("slice", lo=AffineForm(1), step=AffineForm.variable(k)),)
        out = section_forward(lab, subs)
        assert out.axes[0].stride == AffineForm.variable(k)

    def test_section_forward_index_drops(self):
        lab = canonical_skeletons(2, 2)[0]
        subs = (
            SubscriptSpec("index", index=AffineForm.variable(k)),
            SubscriptSpec("full"),
        )
        out = section_forward(lab, subs)
        assert out.rank == 1
        assert not out.axes[0].is_body

    def test_section_backward_inverts_forward(self):
        lab = canonical_skeletons(1, 1)[0]
        subs = (SubscriptSpec("slice", lo=AffineForm(3), step=AffineForm(4)),)
        sec = section_forward(lab, subs)
        back = section_backward(sec, subs, 1)
        assert back == lab

    def test_div_affine(self):
        assert _div_affine(AffineForm(0, {k: 2}), AffineForm.variable(k)) == AffineForm(2)
        assert _div_affine(AffineForm(4), AffineForm(2)) == AffineForm(2)
        assert _div_affine(AffineForm(1, {k: 2}), AffineForm.variable(k)) is None
        assert _div_affine(AffineForm(1), AffineForm(0)) is None

    def test_spread_roundtrip(self):
        lab = canonical_skeletons(1, 2)[0]
        outs = spread_forward(lab, dim=2)
        assert len(outs) == 1
        assert spread_backward(outs[0], dim=2) == lab


class TestPaperExamples:
    def test_example2_stride_alignment(self):
        """Example 2: A at [2i], B at [i] avoids communication."""
        adg = build_adg(programs.example2())
        res = solve_axis_stride(adg)
        assert res.cost == 0
        strides = {}
        for p in adg.ports():
            if p.node.kind.name == "SOURCE":
                strides[p.node.label] = res.of(p).axes[0].stride
        assert strides["source(A)"] == AffineForm(2)
        assert strides["source(B)"] == AffineForm(1)

    def test_example3_axis_alignment(self):
        """Example 3: C axis-swapped relative to B kills the transpose."""
        adg = build_adg(programs.example3())
        res = solve_axis_stride(adg)
        assert res.cost == 0
        sigs = {}
        for p in adg.ports():
            if p.node.kind.name == "SOURCE":
                sigs[p.node.label] = res.of(p).axis_signature()
        assert sigs["source(B)"] != sigs["source(C)"]

    def test_example5_mobile_stride(self):
        """Example 5: V gets the mobile stride [k*i]; cost halves."""
        adg = build_adg(programs.example5())
        res = solve_axis_stride(adg)
        # one general communication per iteration boundary: 49 * 20
        assert res.cost == 980
        mobile = AffineForm(0, {k: 1})
        found = False
        for p in adg.ports():
            if "merge(V" in p.uid:
                assert res.of(p).axes[0].stride == mobile
                found = True
        assert found

    def test_figure1_no_stride_cost(self):
        adg = build_adg(programs.figure1())
        assert solve_axis_stride(adg).cost == 0

    def test_all_ports_labeled(self):
        adg = build_adg(programs.figure1())
        res = solve_axis_stride(adg)
        for p in adg.ports():
            lab = res.of(p)
            assert lab.rank == p.rank

    def test_integral_strides_only(self):
        for name, fn in programs.ALL_PAPER_FRAGMENTS.items():
            adg = build_adg(fn())
            res = solve_axis_stride(adg)
            for p in adg.ports():
                for ax in res.of(p).axes:
                    if ax.is_body:
                        assert ax.stride.is_integral(), (name, p.uid)

    def test_gather_table_free(self):
        adg = build_adg(programs.lookup_table(n=16, m=8))
        res = solve_axis_stride(adg)
        assert res.cost == 0


# ---------------------------------------------------------------------------
# Differential: semi-naive candidate propagation == the naive propagation
# ---------------------------------------------------------------------------


class NaiveSolver(ReferenceSolver):
    """``reference_generate_candidates``: the propagation as it was before
    use sites kept watermarks — every round re-transforms and re-offers
    every label of every source port.  Kept as the reference only."""

    def _propagate_node(self, n):
        from repro.adg.nodes import NodeKind

        cands, offer = self.candidates, self._offer
        changed = False
        kind = n.kind
        if kind in (
            NodeKind.ELEMENTWISE, NodeKind.MERGE, NodeKind.FANOUT, NodeKind.BRANCH
        ):  # fmt: skip
            pool = []
            for p in n.ports:
                pool.extend(cands[p.key])
            for p in n.ports:
                changed |= offer(p, pool)
        elif kind is NodeKind.TRANSPOSE:
            inp, out = n.inputs()[0], n.outputs()[0]
            changed |= offer(out, [axs.transpose_transform(l) for l in cands[inp.key]])
            changed |= offer(inp, [axs.transpose_transform(l) for l in cands[out.key]])
        elif kind is NodeKind.SECTION:
            subs = n.payload.subscripts
            inp, out = n.inputs()[0], n.outputs()[0]
            changed |= offer(out, [axs.section_forward(l, subs) for l in cands[inp.key]])
            changed |= offer(
                inp, [axs.section_backward(l, subs, inp.rank) for l in cands[out.key]]
            )
        elif kind is NodeKind.SECTION_ASSIGN:
            subs = n.payload.subscripts
            ports = {p.name: p for p in n.ports}
            arr, out = ports["array"], ports["out"]
            value = ports.get("value")
            pool = cands[arr.key] + cands[out.key]
            changed |= offer(arr, pool)
            changed |= offer(out, pool)
            if value is not None:
                changed |= offer(value, [axs.section_forward(l, subs) for l in pool])
                for target in (arr, out):
                    changed |= offer(
                        target,
                        [
                            axs.section_backward(l, subs, arr.rank)
                            for l in cands[value.key]
                        ],
                    )
        elif kind is NodeKind.SPREAD:
            dim = n.payload.dim
            inp, out = n.inputs()[0], n.outputs()[0]
            for l in cands[inp.key]:
                changed |= offer(out, axs.spread_forward(l, dim))
            changed |= offer(inp, [axs.spread_backward(l, dim) for l in cands[out.key]])
        elif kind is NodeKind.REDUCE:
            dim = n.payload.dim
            outs = n.outputs()
            if outs and dim is not None:
                inp, out = n.inputs()[0], outs[0]
                changed |= offer(out, [axs.reduce_forward(l, dim) for l in cands[inp.key]])
                for l in cands[out.key]:
                    changed |= offer(inp, axs.reduce_backward(l, dim))
        elif kind is NodeKind.GATHER:
            ports = {p.name: p for p in n.ports}
            index, out = ports["index"], ports["out"]
            pool = cands[index.key] + cands[out.key]
            changed |= offer(index, pool)
            changed |= offer(out, pool)
        elif kind is NodeKind.TRANSFORMER:
            payload = n.payload
            inp, out = n.inputs()[0], n.outputs()[0]
            k = payload.liv
            if payload.kind == "entry":
                at = AffineForm(payload.value)
                changed |= offer(out, cands[inp.key])
                changed |= offer(
                    inp, [axs.substitute_liv(l, k, at) for l in cands[out.key]]
                )
            elif payload.kind == "exit":
                at = AffineForm(payload.value)
                changed |= offer(
                    out, [axs.substitute_liv(l, k, at) for l in cands[inp.key]]
                )
                changed |= offer(inp, cands[out.key])
            else:
                shift_out = AffineForm.variable(k) - payload.value
                shift_in = AffineForm.variable(k) + payload.value
                changed |= offer(
                    out, [axs.substitute_liv(l, k, shift_out) for l in cands[inp.key]]
                )
                changed |= offer(
                    inp, [axs.substitute_liv(l, k, shift_in) for l in cands[out.key]]
                )
        return changed

    def _propagate_edges(self):
        changed = False
        for e in self.adg.edges:
            changed |= self._offer(e.head, self.candidates[e.tail.key])
            changed |= self._offer(e.tail, self.candidates[e.head.key])
        return changed


TRANSFORMS = (
    "transpose_transform", "section_forward", "section_backward", "spread_forward",
    "spread_backward", "reduce_forward", "reduce_backward", "substitute_liv",
)  # fmt: skip


class Tracked:
    """Mixin: remembers which node is being propagated, and counts how
    often ``_fresh`` hands one label of one source port to one site."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.current = None
        self.handed = Counter()

    def _propagate_node(self, n):
        self.current = n
        return super()._propagate_node(n)

    def _fresh(self, site, src):
        labels = super()._fresh(site, src)
        self.handed.update((site, src.key, lab) for lab in labels)
        return labels


class TrackedSolver(Tracked, AxisStrideSolver):
    pass


class TrackedNaiveSolver(Tracked, NaiveSolver):
    pass


def count_transforms(monkeypatch, solver):
    """``{(node being propagated, transform name and arguments, label):
    calls}`` of every label transform ``solver`` makes from here on."""
    calls = Counter()
    for name in TRANSFORMS:

        def counted(lab, *args, _real=getattr(axs, name), _name=name):
            calls[(solver.current, (_name, *args), lab)] += 1
            return _real(lab, *args)

        monkeypatch.setattr(axs, name, counted)
    return calls


class TestSemiNaivePropagation:
    """Each use site offers only the labels its source port gained since
    the site last ran; the additions, their order and the round count
    are the naive loop's."""

    @pytest.mark.parametrize("cap", [64, 4], ids=["default-cap", "cap-4"])
    def test_candidate_lists_equal_the_naive_ones_in_order(self, make_program, cap):
        adg = build_adg(make_program())
        fast = AxisStrideSolver(adg, max_candidates=cap)
        naive = NaiveSolver(adg, max_candidates=cap)
        fast.generate_candidates()
        naive.generate_candidates()
        assert list(fast.candidates) == list(naive.candidates)
        for key, labels in naive.candidates.items():
            assert fast.candidates[key] == labels, fast.port_by_key[key]

    def test_the_cap_of_4_does_refuse_labels(self):
        adg = build_adg(programs.example5())
        capped = AxisStrideSolver(adg, max_candidates=4)
        free = AxisStrideSolver(adg)
        capped.generate_candidates()
        free.generate_candidates()
        assert max(map(len, capped.candidates.values())) == 4
        assert max(map(len, free.candidates.values())) > 4

    def test_every_round_reports_the_same_changed(self, make_program):
        adg = build_adg(make_program())
        fast, naive = AxisStrideSolver(adg), NaiveSolver(adg)
        fast._seed()
        naive._seed()
        for _ in range(fast.rounds):
            got = [fast._propagate_node(n) for n in adg.nodes]
            want = [naive._propagate_node(n) for n in adg.nodes]
            got.append(fast._propagate_edges())
            want.append(naive._propagate_edges())
            assert got == want
            if not any(want):
                break

    def test_each_site_transforms_each_label_once(self, make_program, monkeypatch):
        from repro.adg.nodes import NodeKind

        adg = build_adg(make_program())
        solver = TrackedSolver(adg)
        calls = count_transforms(monkeypatch, solver)
        solver.generate_candidates()
        # A site reads each label of its source port once ...
        assert solver.handed and set(solver.handed.values()) == {1}
        # ... so a node applies one transform to one label once, or
        # twice where the transform has two uses in the node: a transpose
        # maps input to output and back, a SectionAssign forwards a pool
        # fed by two ports and sends each image of ``value`` to two.
        for (node, transform, _label), count in calls.items():
            two_uses = node.kind in (NodeKind.TRANSPOSE, NodeKind.SECTION_ASSIGN)
            assert count <= (2 if two_uses else 1), (node, transform, count)

    def test_fewer_transforms_than_the_naive_loop(self, monkeypatch):
        adg = build_adg(programs.figure4())
        totals = []
        for cls in (TrackedSolver, TrackedNaiveSolver):
            solver = cls(adg)
            with monkeypatch.context() as patch:
                calls = count_transforms(patch, solver)
                solver.generate_candidates()
            totals.append(sum(calls.values()))
        assert 0 < totals[0] < totals[1]


def _rank_program(rank, template_rank=None):
    """``A = A + B`` over rank-``rank`` arrays, every extent 2; a
    rank-``template_rank`` array ``C`` widens the template."""
    dims = ",".join(["2"] * rank)
    decls = f"real A({dims}), B({dims})"
    body = "A = A + B"
    if template_rank is not None:
        wide = ",".join(["2"] * template_rank)
        decls += f", C({wide})"
        body += "\nC = C + 1"
    return parse(f"{decls}\n{body}\n", name=f"rank{rank}")


class TestSeedStopsAtTheCap:
    """A source is seeded with the first ``max_candidates`` axis
    embeddings in ``permutations`` order, and builds no more: those are
    the labels a full list offered to an empty port would keep."""

    @staticmethod
    def _count_embeddings(monkeypatch):
        drawn = []
        real = axs.permutations

        def counting(*args):
            for perm in real(*args):
                drawn.append(perm)
                yield perm

        monkeypatch.setattr(axs, "permutations", counting)
        return drawn

    def test_seeds_are_the_full_lists_first_64(self, monkeypatch):
        from repro.adg.nodes import NodeKind

        adg = build_adg(_rank_program(5, template_rank=6))
        assert adg.template_rank == 6
        solver = AxisStrideSolver(adg)
        with monkeypatch.context() as patch:
            drawn = self._count_embeddings(patch)
            solver._seed()
        assert len(drawn) == 3 * 64  # of 720 each
        full = canonical_skeletons(5, 6)
        assert len(full) == 720
        sources = [n for n in adg.nodes if n.kind is NodeKind.SOURCE]
        ranks = sorted(n.outputs()[0].rank for n in sources)
        assert ranks == [5, 5, 6]
        for n in sources:
            out = n.outputs()[0]
            want = canonical_skeletons(out.rank, 6)[: solver.max_candidates]
            assert solver.candidates[out.key] == want
        assert canonical_skeletons(5, 6, 64) == full[:64]

    def test_the_rank_9_witness_builds_64_embeddings_a_source(self, monkeypatch):
        from repro.align import align_and_distribute

        drawn = self._count_embeddings(monkeypatch)
        plan = align_and_distribute(_rank_program(9), nprocs=16)
        assert plan.distribution is not None
        # Two sources, 64 each, out of 9! = 362 880 apiece; no port was
        # left without a candidate, so the fallback built none.
        assert len(drawn) == 2 * 64


    def test_the_fallback_stops_at_the_cap(self, monkeypatch):
        """A port left with no candidate gets the first ``max_candidates``
        embeddings, as a seeded source does.  No real program reaches the
        fallback (none of the 16 kernels, their 48 edits,
        ``generate_corpus(14, 0)`` or ``(40, 3)``), so a solver that
        seeds nothing sends every port there."""
        adg = build_adg(_rank_program(5, template_rank=6))
        solver = AxisStrideSolver(adg)

        # _reset is _seed without the seeds: every port empty.
        monkeypatch.setattr(solver, "_seed", solver._reset)
        with monkeypatch.context() as patch:
            drawn = self._count_embeddings(patch)
            solver.generate_candidates()
        ports = list(adg.ports())
        full = {p.key: canonical_skeletons(p.rank, 6) for p in ports}
        assert max(len(f) for f in full.values()) == 720
        for p in ports:
            assert solver.candidates[p.key] == full[p.key][: solver.max_candidates]
        assert len(drawn) == sum(min(len(f), 64) for f in full.values())


class TestSolverObjectReuse:
    """The watermarks live and die with the candidate lists."""

    @pytest.mark.parametrize(
        "make", [programs.example5, programs.figure4, programs.skewed_wavefront]
    )
    def test_solve_twice_on_one_solver(self, make):
        solver = AxisStrideSolver(build_adg(make()))
        first = solver.solve()
        lists = {k: list(v) for k, v in solver.candidates.items()}
        again = solver.solve()  # regenerate=True re-seeds: lists emptied
        assert solver.candidates == lists
        assert again.skeletons == first.skeletons
        assert (again.cost, again.exact) == (first.cost, first.exact)

    def test_hand_edited_candidates_do_not_consult_the_watermarks(self):
        """The best-static-stride baseline: generate, strike the mobile
        labels, solve with ``regenerate=False``."""

        def static_only(solver):
            for key, cands in solver.candidates.items():
                kept = [
                    lab
                    for lab in cands
                    if all(ax.stride.is_constant for ax in lab.axes if ax.is_body)
                ]
                if kept:
                    solver.candidates[key] = kept

        adg = build_adg(programs.example5())
        solver = AxisStrideSolver(adg)
        solver.generate_candidates()
        static_only(solver)
        edited = {k: list(v) for k, v in solver.candidates.items()}
        solver._offered = None  # any read or write of a watermark raises
        static = solver.solve(regenerate=False)
        assert solver.candidates == edited
        assert static.cost > solve_axis_stride(adg).cost == 980
        # ... and a naive solver given the same edit agrees.
        naive = NaiveSolver(adg)
        naive.generate_candidates()
        static_only(naive)
        assert naive.solve(regenerate=False).skeletons == static.skeletons


# ---------------------------------------------------------------------------
# Differential: numbered skeletons and integer tables == the label objects
# and predicates of the reference solver
# ---------------------------------------------------------------------------


def _solve_both(monkeypatch, fast, slow, regenerate=True):
    """Solve with ``fast`` (an ``AxisStrideSolver``) and ``slow`` (a
    ``ReferenceSolver``) on the same candidates; assert equal results
    and equal problems (the reference's priced pair by pair)."""
    import axis_stride_reference as ref
    from axis_stride_reference import LabeledProblem, tabulate

    from repro.solvers.dp import DiscreteLabelingProblem

    built = {}

    def capture(base):
        class Captured(base):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                built.setdefault(base, self)  # not ICM's spanning tree

        return Captured

    with monkeypatch.context() as patch:
        patch.setattr(axs, "DiscreteLabelingProblem", capture(DiscreteLabelingProblem))
        patch.setattr(ref, "LabeledProblem", capture(LabeledProblem))
        got, want = fast.solve(regenerate), slow.solve(regenerate)
    assert list(fast.candidates) == list(slow.candidates)
    for key, labels in slow.candidates.items():
        assert fast.candidates[key] == labels, fast.port_by_key[key]
    assert got.skeletons == want.skeletons
    assert (got.cost, got.exact) == (want.cost, want.exact)

    problem = built[DiscreteLabelingProblem]
    priced = tabulate(built[LabeledProblem])
    assert problem.sizes == priced.sizes

    def exact(prob):
        return [
            (u, v, [[Fraction(c, prob.den) for c in row] for row in table])
            for u, v, table in prob.edges
        ]

    assert exact(problem) == exact(priced)


class TestAgainstTheReferenceSolver:
    """The solver that numbers its skeletons and prices every label edge
    once into an integer table makes the reference's candidate lists,
    in order, poses the same labeling problem, and chooses the same
    skeletons at the same cost with the same ``exact``."""

    @pytest.mark.parametrize("name, source", reference_programs())
    def test_candidates_tables_and_result_equal_the_reference(
        self, monkeypatch, name, source
    ):
        adg = build_adg(parse(source, name=name.split("@")[0]))
        _solve_both(monkeypatch, AxisStrideSolver(adg), ReferenceSolver(adg))

    def test_an_empty_intersection_falls_back_to_the_union_in_list_order(
        self, monkeypatch
    ):
        """No real program reaches the union fallback, so edit by hand:
        the elementwise node's ports share no candidate, and the first
        lists its two labels in the order opposite to their numbering."""
        adg = build_adg(parse("real A(4,4), B(4,4)\nA = A + transpose(B)\n", name="t"))
        (node,) = [n for n in adg.nodes if n.kind.name == "ELEMENTWISE"]
        fast, slow = AxisStrideSolver(adg), ReferenceSolver(adg)
        for solver in (fast, slow):
            solver.generate_candidates()
            ident, swap = solver.candidates[node.ports[0].key]
            assert ident.axis_signature() == (0, 1)
            solver.candidates[node.ports[0].key] = [swap, ident]
            for p in node.ports[1:]:
                solver.candidates[p.key] = []
        _solve_both(monkeypatch, fast, slow, regenerate=False)


class TestUnusedRank20Arrays:
    """``x = x + y`` beside N unused ``real zᵢ(2,…,2)`` of rank 20 (the
    template rank): every zᵢ is a source–sink component seeded with the
    same 64 embeddings.  The skeletons are numbered once, so their count
    does not grow with N, and the transforms computed and the table
    cells priced grow at most linearly."""

    @staticmethod
    def _counts(monkeypatch, n):
        from repro.solvers.dp import DiscreteLabelingProblem

        dims = ",".join(["2"] * 20)
        decls = "real x(8), y(8)" + "".join(f", z{i}({dims})" for i in range(n))
        adg = build_adg(parse(f"{decls}\nx = x + y\n", name=f"unused{n}"))
        assert adg.template_rank == 20
        built = []

        class Captured(DiscreteLabelingProblem):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                built.append(self)

        solver = TrackedSolver(adg)
        with monkeypatch.context() as patch:
            patch.setattr(axs, "DiscreteLabelingProblem", Captured)
            calls = count_transforms(patch, solver)
            result = solver.solve()
        assert result.cost == 0
        (problem,) = built
        cells = sum(len(t) * len(t[0]) for _, _, t in problem.edges)
        return len(solver._labels), sum(calls.values()), cells

    def test_skeletons_do_not_grow_and_work_grows_linearly(self, monkeypatch):
        (s4, t4, c4), (s8, t8, c8), (s16, t16, c16) = (
            self._counts(monkeypatch, n) for n in (4, 8, 16)
        )
        assert s4 == s8 == s16
        assert t8 <= 2 * t4 and t16 <= 2 * t8
        assert 0 < c8 <= 2 * c4 and c16 <= 2 * c8
