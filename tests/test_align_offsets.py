"""Unit tests for Sections 4.1-4.4: offset alignment by RLP."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import build_adg
from repro.align import (
    OffsetProblem,
    abs_weighted_span,
    offset_only_cost,
    solve_axis_stride,
    solve_mobile_offsets,
)
from repro.align.offset_mobile import ALGORITHMS, fixed_partitioning, unrolling
from repro.ir import LIV, AffineForm, IterationSpace, Polynomial
from repro.lang import parse
from repro.lang import programs

from lp_reference import Rows, as_lp, linprog_input

k = LIV("k", 0)


def solve(program, algorithm="fixed", **kw):
    adg = build_adg(program)
    skel = solve_axis_stride(adg).skeletons
    res = solve_mobile_offsets(adg, skel, algorithm, **kw)
    return adg, skel, res


class TestStaticOffsets:
    def test_example1_offsets(self):
        """Example 1: B at [i-1] relative to A removes the shift."""
        adg, skel, res = solve(programs.example1())
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

    @pytest.mark.parametrize(
        "make",
        [lambda: programs.skewed_wavefront(n=16), lambda: programs.figure1(n=40)],
        ids=["wavefront", "figure1"],
    )
    def test_monotone_in_m(self, make):
        adg, skel, _ = solve(make())
        costs = [fixed_partitioning(adg, skel, m=m).cost for m in (1, 3, 5)]
        assert costs[0] >= costs[1] >= costs[2]

    @pytest.mark.parametrize(
        "make",
        [lambda: programs.figure1(n=16), lambda: programs.skewed_wavefront(n=48)],
        ids=["figure1", "wavefront"],
    )
    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_all_algorithms_run_and_bound_exact(self, alg, make):
        adg, skel, _ = solve(make())
        exact = unrolling(adg, skel)
        res = ALGORITHMS[alg].run(adg, skel)
        assert res.cost >= exact.cost  # exact is a lower bound
        assert res.cost <= exact.cost * 60  # and nothing absurd

    def test_unrolling_is_exact_but_large(self):
        """Section 4.2's menu on a 48-iteration wavefront: unrolling's LP
        has variables per iteration, fixed partitioning's per subrange.
        Rounding (the R of RLP) can exceed 1 + 2/m^2 on a multi-span
        program like this one, so the factor here is an operational one;
        the strict bound is asserted on figure1 above."""
        adg, skel, _ = solve(programs.skewed_wavefront(n=48))
        exact = unrolling(adg, skel)
        m3, m5 = (fixed_partitioning(adg, skel, m=m) for m in (3, 5))
        assert m3.cost <= 2.5 * exact.cost and m5.cost <= 2.5 * exact.cost
        assert exact.lp_vars_total > 3 * m3.lp_vars_total

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

    @pytest.mark.parametrize(
        "prog",
        [
            # all sections start at 1: a common offset aligns everything
            programs.triangular_sections(iters=10, m=4),
            programs.triangular_sections(iters=30, m=8),
            # B sits 2 to the left of A, whatever size the section has grown to
            parse("real A(300), B(300)\ndo k = 1, 30\n  B(1:8*k) = A(3:8*k+2)\nenddo"),
        ],
        ids=["triangular-10x4", "triangular-30x8", "shifted"],
    )
    def test_variable_size_objects(self, prog):
        """Section 4.3: growing sections still solve exactly, unrolled or
        through the sigma closed forms."""
        adg, skel, res = solve(prog, algorithm="unrolling")
        assert res.cost == 0
        assert fixed_partitioning(adg, skel, m=3).cost == 0

    @pytest.mark.parametrize(
        "make,cells",
        [
            (lambda: programs.figure1(n=24), 3),
            (lambda: programs.doubly_nested(n=4), 9),
            (lambda: programs.doubly_nested(n=6), 9),
        ],
        ids=["depth-1", "depth-2-n4", "depth-2-n6"],
    )
    def test_loop_nest_3k_subranges(self, make, cells):
        """Section 4.4: a k-deep nest partitions into 3^k subranges."""
        adg, skel, _ = solve(make())
        res = fixed_partitioning(adg, skel, m=3)
        assert res.cost >= unrolling(adg, skel).cost
        per_edge = {
            e.eid: len(e.space.grid_partition(3)) for e in adg.edges
        }
        assert max(per_edge.values()) == cells


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
    the min-cut capacities, the offset problem's edge rows and the final
    pricing — so every caller under ``repro.align`` must reach
    them through :func:`repro.align.cost.cached_moments`."""

    def test_cold_plan_mostly_hits(self):
        from repro import cachestats
        from repro.align import align_and_distribute
        from repro.align.cost import _MOMENTS

        cachestats.clear_caches()
        before = cachestats.snapshot()
        align_and_distribute(programs.figure1(), nprocs=16)
        hits, misses = cachestats.delta(before)["align.moments"]
        # 29 distinct (space, weight) pairs, each summed once; every
        # other lookup hits.  The min-cut capacities are priced once per
        # fixpoint, the offset edge rows once per plan and the axis-stride
        # weights once per edge, so the 267 lookups of per-axis,
        # per-round pricing are down to 92 (113 while axis-stride priced
        # each edge's weight twice).
        assert (hits, misses) == (63, 29)
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


# ---------------------------------------------------------------------------
# Differential: rows written as numbers == the reference-built LP, bit for bit
# ---------------------------------------------------------------------------


def reference_build(lp):
    """The offset LP of ``lp``'s inputs rebuilt from its definition, kept
    as the reference: each row is a ``{column: coefficient}`` map summed
    term by term (zeros dropped), each bound ``theta >= |inner|`` is the
    two rows ``theta +- inner >= 0``, and a slot's column is created when
    a row first names it — the builder the offset LP had before it wrote
    its rows as numbers: same columns in the same first-use order, same
    rows.  Returns the :class:`Rows` and each column's key: ``(port key,
    LIV or None)`` for a slot, ``("theta", edge id, j)`` for the bound
    of the edge's ``j``-th non-empty subrange."""
    import math

    from repro.adg.nodes import NodeKind
    from repro.align.constraints import (
        EntryEval,
        EqualShift,
        LoopBack,
        node_offset_relations,
    )
    from repro.align.cost import cached_moments
    from repro.align.offset_static import edge_is_offset_costed

    m = Rows()
    order = []
    slots = {}

    def column(key, lower=-math.inf):
        slots[key] = m.column(lower)
        order.append(key)
        return slots[key]

    def slot(p, liv):
        key = (p.key, liv)
        return slots[key] if key in slots else column(key)

    def add(terms, sense, rhs):
        # ``terms`` is ``[(column, coefficient), ...]`` in the order the
        # expression names them; the columns exist already.
        row = {}
        for col, coef in terms:
            row[col] = row.get(col, 0.0) + float(coef)
        m.add({col: coef for col, coef in row.items() if coef != 0.0}, sense, rhs)

    relations = []
    for n in lp.adg.nodes:
        for rel in node_offset_relations(n, dict(lp.skeleton)):
            if rel.axis != lp.axis:
                continue
            relations.append(rel)
            p, q = rel.p, rel.q
            if isinstance(rel, EqualShift):
                shift = rel.shift
                q0, p0 = slot(q, None), slot(p, None)
                add([(q0, 1), (p0, -1)], "==", shift.const)
                livs = set(q.space.livs) | set(p.space.livs) | set(shift.livs())
                for liv in sorted(livs):
                    terms = []
                    if liv in q.space.livs:
                        terms.append((slot(q, liv), 1))
                    if liv in p.space.livs:
                        terms.append((slot(p, liv), -1))
                    add(terms, "==", shift.coeff(liv))
            elif isinstance(rel, EntryEval):
                q0, qk, p0 = slot(q, None), slot(q, rel.liv), slot(p, None)
                add([(q0, 1), (qk, rel.value), (p0, -1)], "==", 0)
                for liv in p.space.livs:
                    ql, pl = slot(q, liv), slot(p, liv)
                    add([(ql, 1), (pl, -1)], "==", 0)
            else:
                assert isinstance(rel, LoopBack)
                q0, p0, pk = slot(q, None), slot(p, None), slot(p, rel.liv)
                add([(q0, 1), (p0, -1), (pk, rel.step)], "==", 0)
                for liv in q.space.livs:
                    ql, pl = slot(q, liv), slot(p, liv)
                    add([(ql, 1), (pl, -1)], "==", 0)
    objective = {}
    for e in lp.adg.edges:
        if not edge_is_offset_costed(e, lp.skeleton, lp.axis, lp.replicated):
            continue
        subs = [sub for sub in lp.plan.get(e.eid, [e.space]) if not sub.is_empty()]
        for j, sub in enumerate(subs):
            moments = cached_moments(sub, e.weight)
            inner = []
            for liv, moment in [(None, moments.m0), *moments.m1.items()]:
                t, h = slot(e.tail, liv), slot(e.head, liv)
                inner += [(t, float(moment)), (h, -float(moment))]
            theta = column(("theta", e.eid, j), lower=0.0)
            add([(theta, 1), *inner], ">=", 0)
            add([(theta, 1), *((c, -v) for c, v in inner)], ">=", 0)
            objective[theta] = float(e.control_weight)
    # One pin per weakly-connected component, first port in port order.
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in [(r.p.key, r.q.key) for r in relations] + [
        (e.tail.key, e.head.key) for e in lp.adg.edges
    ]:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    pinned = set()
    for p in lp.adg.ports():
        root = find(p.key)
        if root not in pinned:
            pinned.add(root)
            add([(slot(p, None), 1)], "==", 0)
    if lp.static:
        for n in lp.adg.nodes:
            if n.kind in (NodeKind.SOURCE, NodeKind.MERGE, NodeKind.SINK):
                for p in n.ports:
                    for liv in p.space.livs:
                        add([(slot(p, liv), 1)], "==", 0)
    m.objective = {col: w for col, w in objective.items() if w != 0.0}
    return m, order


def _reference_derive_q(rel, pa, q, values):
    from repro.align.constraints import EntryEval, EqualShift, LoopBack

    if isinstance(rel, EqualShift):
        return pa + rel.shift
    if isinstance(rel, EntryEval):
        k, v = rel.liv, rel.value
        ak = round(values.get((q.key, k), 0))
        coeffs = {liv: pa.coeff(liv) for liv in rel.p.space.livs}
        coeffs[k] = ak
        return AffineForm(pa.const - v * ak, coeffs)
    assert isinstance(rel, LoopBack)
    return pa.shift_liv(rel.liv, -rel.step)


def _reference_derive_p(rel, qa, p, values):
    from repro.align.constraints import EntryEval, EqualShift, LoopBack

    if isinstance(rel, EqualShift):
        return qa - rel.shift
    if isinstance(rel, EntryEval):
        coeffs = {liv: qa.coeff(liv) for liv in p.space.livs}
        return AffineForm(qa.const + rel.value * qa.coeff(rel.liv), coeffs)
    assert isinstance(rel, LoopBack)
    return qa.shift_liv(rel.liv, rel.step)


def reference_rounded_offsets(lp, values):
    """The rounding of an offset LP's values as it was written first,
    kept as the reference: every node scans every relation for its own
    and derives its ports in whatever order it finds them assignable."""
    out = {}

    def lp_slot(p, liv):
        return values.get((p.key, liv), 0)

    def rounded_port(p):
        coeffs = {liv: round(lp_slot(p, liv)) for liv in p.space.livs}
        return AffineForm(round(lp_slot(p, None)), coeffs)

    for n in lp.adg.nodes:
        rels = [r for r in lp.relations if r.p.node is n or r.q.node is n]
        node_rels = [r for r in rels if r.p.node is n and r.q.node is n]
        assigned = {}
        pending = list(node_rels)
        progress = True
        while progress:
            progress = False
            for rel in list(pending):
                pa, qa = assigned.get(rel.p.key), assigned.get(rel.q.key)
                if pa is not None and qa is not None:
                    pending.remove(rel)
                    continue
                if pa is None and qa is None:
                    continue
                if pa is not None:
                    assigned[rel.q.key] = _reference_derive_q(rel, pa, rel.q, values)
                else:
                    assigned[rel.p.key] = _reference_derive_p(rel, qa, rel.p, values)
                pending.remove(rel)
                progress = True
            if not progress and pending:
                for rel in pending:
                    if rel.p.key not in assigned:
                        assigned[rel.p.key] = rounded_port(rel.p)
                        progress = True
                        break
                    if rel.q.key not in assigned:
                        assigned[rel.q.key] = rounded_port(rel.q)
                        progress = True
                        break
        for p in n.ports:
            if p.key not in assigned:
                assigned[p.key] = rounded_port(p)
        for p in n.ports:
            out[(p.key, lp.axis)] = assigned[p.key]
    return out


def column_keys(problem, plan, ids):
    """The :func:`reference_build` key of each slot code in ``ids``."""
    key_of = {s: key for key, s in problem._extra.items()}
    for port, (base, livs) in problem._port_slots.items():
        key_of[base] = (port, None)
        key_of.update((s, (port, liv)) for liv, s in livs)
    thetas, seen = [], {}
    for i in problem._block(plan).item_edge:
        eid = problem.edges[i].eid
        thetas.append(("theta", eid, seen.get(eid, 0)))
        seen[eid] = seen.get(eid, 0) + 1
    n_slots = problem._n_slots
    return [key_of[s] if s < n_slots else thetas[s - n_slots] for s in ids]


@pytest.fixture
def every_built_lp(monkeypatch):
    """Every offset LP the planner builds while the fixture is live
    (``OffsetProblem.lp``): the LP, its columns' keys, and the inputs it
    was built from as ``reference_build`` reads them."""
    from types import SimpleNamespace

    from repro.align.offset_static import OffsetProblem

    built = []
    real_lp = OffsetProblem.lp

    def recording_lp(problem, axis, plan, replicated):
        lp, ids = real_lp(problem, axis, plan, replicated)
        built.append(
            SimpleNamespace(
                adg=problem.adg,
                skeleton=problem.skeleton,
                axis=axis,
                plan=plan,
                replicated=set(replicated),
                static=problem.static,
                lp=lp,
                keys=column_keys(problem, plan, ids),
            )
        )
        return lp, ids

    monkeypatch.setattr(OffsetProblem, "lp", recording_lp)
    return built


#: Loops whose first subrange (``k = 0``) has a zero first moment at a
#: port with no relation on the axis.
ZERO_MOMENT_SOURCES = [
    "real A(8,8), s(8)\ndo k = 0, 2\n  s = sum(A, dim=2) + s\nenddo\n",
    "real A(8,8), s(8)\ndo k = 0, 2\n  s(k+2) = sum(A(:, k+2))\nenddo\n",
    "real A(8,8), V(8)\ndo k = 0, 2\n  A = A + spread(V, dim=2, ncopies=8)\nenddo\n",
]


def assert_built_lps_are_the_reference(built, mobile):
    """Every LP of ``built`` reaches HiGHS as :func:`reference_build`
    and the dense export (``lp_reference.as_lp``) make it, byte for
    byte, its columns in the reference's first-use order."""
    from scipy.sparse import csc_array

    assert built
    assert {rec.static for rec in built} == {not mobile}
    for rec in built:
        rows, order = reference_build(rec)
        assert rec.keys == order
        lp, want = rec.lp, as_lp(rows)
        assert lp.shape == want.shape == (len(rows.rows), len(order))
        a = csc_array((lp.data, lp.indices, lp.indptr), shape=lp.shape)
        assert a.has_canonical_format
        assert lp.data.all()  # no explicit zeros
        assert lp.indptr.tolist() == want.indptr.tolist()
        assert lp.indices.tolist() == want.indices.tolist()
        for name in ("c", "data", "lo", "hi", "lb", "ub"):
            assert getattr(lp, name).tobytes() == getattr(want, name).tobytes(), name


class TestRowsAreTheLinExprRows:
    """HiGHS must receive the problem it received when the offset LP was
    assembled row by row through an expression layer (``LinExpr``, since
    removed; :func:`reference_build` rebuilds those rows from coefficient
    maps) and exported dense; the compiled problem writes it as masks
    over arrays.  An LP with ties returns a different vertex under a
    column permutation."""

    @pytest.mark.parametrize("mobile", [True, False], ids=["mobile", "static"])
    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_sparse_input_is_the_dense_reference_on_every_lp(
        self, make_program, alg, mobile, every_built_lp
    ):
        from repro.align import align_program

        # The real fixpoint: every template axis, under the replicated
        # set of every round that re-solves.
        align_program(make_program(), algorithm=alg, mobile=mobile)
        assert_built_lps_are_the_reference(every_built_lp, mobile)

    @pytest.mark.parametrize("mobile", [True, False], ids=["mobile", "static"])
    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    @pytest.mark.parametrize("source", ZERO_MOMENT_SOURCES, ids=["reduce", "section", "spread"])
    def test_a_zero_moment_slot_keeps_its_place(
        self, source, alg, mobile, every_built_lp
    ):
        """``k`` runs over 0, 1, 2, so the first subrange of each edge in
        the loop has a zero first moment, at a port that no relation of
        the axis names (the reduced axis, the replicated axis): the slot
        is numbered where its edge row names it, before its ``theta``."""
        from repro.align import align_program

        align_program(parse(source), algorithm=alg, mobile=mobile)
        assert_built_lps_are_the_reference(every_built_lp, mobile)

    @pytest.mark.parametrize("mobile", [True, False], ids=["mobile", "static"])
    def test_rounding_is_the_quadratic_reference(
        self, make_program, mobile, monkeypatch
    ):
        from types import SimpleNamespace

        from repro.align import align_program
        from repro.align.offset_static import OffsetProblem

        seen = []
        real = OffsetProblem.rounded_offsets

        def recording(problem, axis, v):
            out = real(problem, axis, v)
            seen.append((problem, axis, v, out))
            return out

        monkeypatch.setattr(OffsetProblem, "rounded_offsets", recording)
        align_program(make_program(), mobile=mobile)
        assert seen
        for problem, axis, v, out in seen:
            values = {slot: v[s] for slot, s in problem._extra.items()}
            for key, (base, livs) in problem._port_slots.items():
                values[(key, None)] = v[base]
                values.update(((key, liv), v[s]) for liv, s in livs)
            lp = SimpleNamespace(
                adg=problem.adg, relations=problem.relations[axis], axis=axis
            )
            want = reference_rounded_offsets(lp, values)
            assert list(out.items()) == list(want.items())

    def test_corpus_round_solves_what_the_parent_solved(
        self, every_built_lp, monkeypatch
    ):
        """A ``cold_kernels`` round (the 16 pinned kernels of
        ``benchmarks/perf/corpus``) is 19 offset solves, 27 LPs built and
        26 HiGHS calls: the rows got cheaper to write and the hand-off
        cheaper to make, no problem was added or dropped.  The 3 axes a
        later round leaves with the costed edges they were solved with
        reuse that answer without being built (they were built and
        answered by the solved-LP memo before); the memo still answers
        example3's axis 1, whose LP is axis 0's number for number."""
        from pathlib import Path

        import scipy.optimize

        from repro.align import align_and_distribute
        from repro.passes import align_passes

        solves, highs = [], []
        real = align_passes.solve_mobile_offsets
        real_milp = scipy.optimize.milp

        def counting(*args, **kw):
            solves.append(1)
            return real(*args, **kw)

        def counting_milp(*args, **kw):
            highs.append(1)
            return real_milp(*args, **kw)

        monkeypatch.setattr(align_passes, "solve_mobile_offsets", counting)
        monkeypatch.setattr(scipy.optimize, "milp", counting_milp)
        corpus = Path(__file__).parent.parent / "benchmarks" / "perf" / "corpus"
        kernels = sorted(corpus.glob("*.dp"))
        assert len(kernels) == 16
        for path in kernels:
            align_and_distribute(parse(path.read_text(), name=path.stem), nprocs=16)
        assert (len(solves), len(every_built_lp), len(highs)) == (19, 27, 26)


def kkt_violations(inp, res):
    """The worst violation of each optimality condition of the LP
    ``linprog(**inp)`` by ``res``, HiGHS's primal point and marginals.

    With scipy's signs the certificate of ``min c.x`` subject to
    ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and ``lo <= x <= hi`` is:
    ``x`` feasible; ``ineqlin`` and ``upper`` marginals ``<= 0`` and
    ``lower`` marginals ``>= 0``; ``c = A_ub'y + A_eq'z + l_lo + l_hi``;
    no multiplier on an infinite bound; and the dual objective
    ``b_ub.y + b_eq.z + lo.l_lo + hi.l_hi`` equal to ``c.x``."""
    import numpy as np

    c, x = inp["c"], res.x
    lo, hi = inp["bounds"][:, 0], inp["bounds"][:, 1]
    lam_lo, lam_hi = res.lower.marginals, res.upper.marginals
    primal = [np.maximum(lo - x, 0), np.maximum(x - hi, 0)]
    signs = [np.maximum(-lam_lo, 0), np.maximum(lam_hi, 0)]
    combined = lam_lo + lam_hi
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    dual = lo[finite_lo] @ lam_lo[finite_lo] + hi[finite_hi] @ lam_hi[finite_hi]
    if inp["A_ub"] is not None:
        a, b, y = inp["A_ub"], inp["b_ub"], res.ineqlin.marginals
        primal.append(np.maximum(a @ x - b, 0))
        signs.append(np.maximum(y, 0))
        combined = combined + a.T @ y
        dual += b @ y
    if inp["A_eq"] is not None:
        a, b, z = inp["A_eq"], inp["b_eq"], res.eqlin.marginals
        primal.append(np.abs(a @ x - b))
        combined = combined + a.T @ z
        dual += b @ z
    on_infinite = np.concatenate((lam_lo[~finite_lo], lam_hi[~finite_hi]))
    return {
        "primal": max(np.max(v, initial=0.0) for v in primal),
        "dual sign": max(np.max(v, initial=0.0) for v in signs),
        "stationarity": np.max(np.abs(c - combined), initial=0.0),
        "infinite bound": np.max(np.abs(on_infinite), initial=0.0),
        "gap": abs(c @ x - dual),
    }


class TestEveryOffsetLPIsCertifiedOptimal:
    """HiGHS is the only LP solver, so its answer is checked against the
    optimality conditions of the problem it was given rather than against
    a second solver: every distinct offset LP the planner builds, each
    condition within ``1e-6 * max(1, |objective|)``.  The point checked
    is the one the planner uses (``solve``); ``milp`` returns no
    multipliers, so the certificate's multipliers are the ones HiGHS
    returns through ``linprog`` on the same input."""

    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_highs_returns_a_kkt_point(self, make_program, alg, every_built_lp):
        import numpy as np
        from scipy.optimize import linprog

        from repro.align import align_program
        from repro.solvers.lp import solve

        align_program(make_program(), algorithm=alg)
        assert every_built_lp
        seen = set()
        for rec in every_built_lp:
            digest = rec.lp.digest()
            if digest in seen:
                continue
            seen.add(digest)
            sol = solve(rec.lp)
            assert sol.status == "optimal"
            inp = linprog_input(reference_build(rec)[0])
            res = linprog(**inp, method="highs")
            assert res.status == 0, res.message
            res.x = np.array(sol.x)
            worst = kkt_violations(inp, res)
            tol = 1e-6 * max(1.0, abs(res.fun))
            assert max(worst.values()) <= tol, (rec.axis, worst)


def _assert_solves_as_linprog(built):
    """``solve`` on each distinct LP of ``built`` returns, bit for bit,
    the point and objective ``linprog``'s HiGHS returns on the reference
    rows of that LP."""
    from scipy.optimize import linprog

    from repro.solvers.lp import solve

    seen = set()
    for rec in built:
        digest = rec.lp.digest()
        if digest in seen:
            continue
        seen.add(digest)
        sol = solve(rec.lp)
        res = linprog(**linprog_input(reference_build(rec)[0]), method="highs")
        assert res.status == 0 and sol.status == "optimal", res.message
        assert sol.x == res.x.tolist(), rec.axis
        assert sol.objective == float(res.fun)


class TestMilpSolvesWhatLinprogSolved:
    """The planner hands HiGHS its LPs through ``milp``; ``linprog`` on
    :func:`linprog_input` is the hand-off it replaced, kept as the
    oracle.  Both reach the same HiGHS with the same numbers, so every
    offset LP of every algorithm, mobile and static, gets the same
    vertex and objective to the last bit."""

    @pytest.mark.parametrize("mobile", [True, False], ids=["mobile", "static"])
    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_on_every_differential_lp(
        self, make_program, alg, mobile, every_built_lp
    ):
        from repro.align import align_program

        align_program(make_program(), algorithm=alg, mobile=mobile)
        assert every_built_lp
        _assert_solves_as_linprog(every_built_lp)

    @pytest.mark.parametrize("mobile", [True, False], ids=["mobile", "static"])
    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_on_every_generated_lp(self, alg, mobile, every_built_lp):
        from repro.align import align_program
        from repro.lang.generate import generate_corpus

        for sc in generate_corpus(14, 0):
            align_program(sc.parse(), algorithm=alg, mobile=mobile)
        assert every_built_lp
        _assert_solves_as_linprog(every_built_lp)


class TestEachDistinctLPIsSolvedOnce:
    """``OffsetProblem.solve`` keeps each solved LP under a digest of the
    numbers HiGHS receives; an equal digest is an equal solver input, so
    a hit must return what a fresh solve returns."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        from repro.align import offset_static

        calls = []
        real = offset_static.solve

        def counting(lp):
            calls.append(lp)
            return real(lp)

        monkeypatch.setattr(offset_static, "solve", counting)
        return calls

    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_a_hit_returns_what_a_fresh_solve_returns(self, alg, solver_calls):
        adg = build_adg(programs.figure1(n=10))
        skel = solve_axis_stride(adg).skeletons
        memo = {}
        first = solve_mobile_offsets(adg, skel, alg, memo=memo)
        solved = len(solver_calls)
        assert 0 < len(memo) == solved <= len(first.lp_stats)
        again = solve_mobile_offsets(adg, skel, alg, memo=memo)
        assert len(solver_calls) == solved  # answered from the memo
        fresh = solve_mobile_offsets(adg, skel, alg)
        assert len(solver_calls) == 2 * solved
        for other in (again, fresh):
            assert other.offsets == first.offsets
            assert other.lp_stats == first.lp_stats
            assert other.cost == first.cost

    def test_on_every_lp_of_a_plan(self, make_program, solver_calls):
        adg = build_adg(make_program())
        skel = solve_axis_stride(adg).skeletons
        plan = {e.eid: e.space.grid_partition(3) for e in adg.edges}
        memo = {}
        # A fresh problem each time: its answers are the memo's alone.
        first = OffsetProblem(adg, skel).solve(plan, memo=memo)
        solved = len(solver_calls)
        again = OffsetProblem(adg, skel).solve(plan, memo=memo)
        assert len(solver_calls) == solved
        assert again.offsets == first.offsets and again.stats == first.stats
        # One entry per distinct LP, keyed by its digest alone.
        assert {len(key) for key in memo} == {2}
        assert {key[0] for key in memo} == {"offset_lp"}
        assert len({key[1] for key in memo}) == len(memo) == solved

    def test_a_non_optimal_outcome_is_not_kept(self, monkeypatch):
        from repro.align import offset_static
        from repro.solvers.lp import LPSolution

        monkeypatch.setattr(offset_static, "solve", lambda lp: LPSolution("infeasible"))
        adg = build_adg(programs.example1())
        skel = solve_axis_stride(adg).skeletons
        memo = {}
        with pytest.raises(RuntimeError, match="infeasible"):
            OffsetProblem(adg, skel).solve({}, memo=memo)
        assert memo == {}

    @staticmethod
    def _lp(rhs=1.0, lower=0.0, coeff=2.0):
        m = Rows()
        x, y = m.column(), m.column(lower)
        m.add({x: coeff, y: -1.0}, ">=", rhs)
        m.add({x: 1.0}, "==", 0.0)
        m.objective = {x: 1.0, y: 3.0}
        return as_lp(m)

    def test_one_number_apart_is_another_digest(self):
        import dataclasses

        import numpy as np

        base = self._lp().digest()
        assert base == self._lp().digest()
        # The numbers count, not the width of the index arrays.
        lp = self._lp()
        wide = dataclasses.replace(
            lp, indptr=lp.indptr.astype(np.int64), indices=lp.indices.astype(np.int64)
        )
        assert lp.indices.dtype != wide.indices.dtype and wide.digest() == base
        others = [
            self._lp(rhs=2.0).digest(),
            self._lp(lower=1.0).digest(),
            self._lp(lower=-np.inf).digest(),
            self._lp(coeff=3.0).digest(),
        ]
        assert len({base, *others}) == len(others) + 1
        assert all(len(d) == 32 for d in others)  # full-width SHA-256


class TestOneCompiledProblemPerSolve:
    """An offset solve prices each edge's moments once for all template
    axes and reads the LP's values by column."""

    def test_moments_are_looked_up_once_per_costed_subrange(self, monkeypatch):
        from repro.align import offset_static
        from repro.align.offset_static import edge_is_offset_costed

        adg = build_adg(programs.figure1())
        skel = solve_axis_stride(adg).skeletons
        assert adg.template_rank == 2
        plan = {e.eid: e.space.grid_partition(3) for e in adg.edges}
        lookups = []
        real = offset_static.cached_moments

        def counting(space, weight):
            lookups.append(space)
            return real(space, weight)

        monkeypatch.setattr(offset_static, "cached_moments", counting)
        OffsetProblem(adg, skel).solve(plan)
        costed = [
            (e.eid, j, axis)
            for axis in range(adg.template_rank)
            for e in adg.edges
            if edge_is_offset_costed(e, skel, axis, set())
            for j, sub in enumerate(plan[e.eid])
            if not sub.is_empty()
        ]
        once = {(eid, j) for eid, j, _ in costed}
        # Every edge costed on one axis is costed on the other: a lookup
        # per axis would be twice as many.
        assert len(costed) == 2 * len(once)
        assert 0 < len(lookups) <= len(once)

    def test_a_problem_compiled_for_other_inputs_is_refused(self):
        from repro.align.offset_static import OffsetProblem

        adg = build_adg(programs.figure1())
        skel = solve_axis_stride(adg).skeletons
        # Another skeleton: one port takes an alignment it does not have.
        key = next(iter(skel))
        other = dict(skel)
        other[key] = next(a for a in skel.values() if a != skel[key])
        fixed_partitioning(adg, skel, problem=OffsetProblem(adg, skel))
        for problem in (
            OffsetProblem(adg, other),
            OffsetProblem(adg, skel, static=True),
            OffsetProblem(build_adg(programs.figure1()), skel),
        ):
            with pytest.raises(ValueError, match="another graph, skeleton or mode"):
                fixed_partitioning(adg, skel, problem=problem)

    @pytest.mark.parametrize(
        "x", [0.5000000001, 2.4999999999, -1.5, 0.5, 2.5, -0.4999999999, 1 / 3]
    )
    def test_a_value_near_a_half_rounds_as_its_fraction(self, x):
        from repro.align.offset_static import lp_value

        want = Fraction(x).limit_denominator(10**9)
        assert lp_value(x) == want
        assert round(lp_value(x)) == round(want)

    @pytest.mark.parametrize("x", [0.0, -0.0, 3.0, -7.0, 2.0**60, 4.0000000000001, -1e-12])
    def test_an_integral_value_is_an_int(self, x):
        # ... and so is solver noise around one: the planner's canonical
        # scalar never stores an integral Fraction.
        from repro.align.offset_static import lp_value

        got = lp_value(x)
        assert type(got) is int
        assert got == Fraction(x).limit_denominator(10**9) == round(x)


def _lp_points():
    """Floats HiGHS could return: integers, halves and thirds, values
    within 1e-12 of an integer or 1e-9 of a half, -0.0, and anything in
    between, up to 2**49 in magnitude."""
    big = 2**49
    return st.one_of(
        st.integers(-big, big).map(float),
        st.integers(-(2**48), 2**48).map(lambda n: n + 0.5),
        st.integers(-(2**20), 2**20).map(lambda n: n / 3),
        st.builds(lambda n, d: n + d, st.integers(-(2**20), 2**20), st.floats(-1e-12, 1e-12)),
        st.builds(lambda n, d: n + 0.5 + d, st.integers(-(2**20), 2**20), st.floats(-1e-9, 1e-9)),
        st.just(-0.0),
        st.floats(-float(big), float(big), allow_nan=False),
    )


class TestVectorizedReadBack:
    """The solved point is read back as one array: each value is what
    ``round(lp_value(x))`` makes of it, tie to even and all."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_lp_points(), max_size=30))
    def test_it_is_the_scalar_read_back(self, xs):
        import numpy as np

        from repro.align.offset_static import lp_value, rounded_lp_values

        got = rounded_lp_values(np.array(xs, dtype=float))
        assert got.dtype == np.int64
        assert got.tolist() == [round(lp_value(x)) for x in xs]

    def test_a_near_half_rounds_as_its_fraction(self):
        import numpy as np

        from repro.align.offset_static import rounded_lp_values

        # 0.5000000001 is 1/2 to within 10**-9, and 1/2 rounds to 0.
        xs = [0.5000000001, 2.4999999999, -1.5, 0.5, 2.5, -0.0, 1 / 3, 2.0**49 + 0.5]
        assert rounded_lp_values(np.array(xs)).tolist() == [0, 2, -2, 0, 2, 0, 0, 2**49]
