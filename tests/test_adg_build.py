"""Unit tests for ADG construction."""

import pytest

from repro.adg import NodeKind, build_adg, summary, to_dot
from repro.adg.nodes import TransformerPayload
from repro.ir import IterationSpace
from repro.lang import parse
from repro.lang import programs


def kinds_count(adg):
    from collections import Counter

    return Counter(n.kind for n in adg.nodes)


class TestStraightLine:
    def test_example1_structure(self):
        adg = build_adg(programs.example1())
        c = kinds_count(adg)
        assert c[NodeKind.SOURCE] == 2
        assert c[NodeKind.SINK] == 2
        assert c[NodeKind.SECTION] == 2  # A(1:N-1) read and B(2:N)
        assert c[NodeKind.SECTION_ASSIGN] == 1
        assert c[NodeKind.ELEMENTWISE] == 1

    def test_every_edge_same_space(self):
        for fn in programs.ALL_PAPER_FRAGMENTS.values():
            adg = build_adg(fn())
            for e in adg.edges:
                assert e.tail.space.livs == e.head.space.livs or e.space is not None

    def test_validate_passes(self):
        for fn in programs.ALL_PAPER_FRAGMENTS.values():
            build_adg(fn()).validate()

    def test_ranks_match_on_edges(self):
        adg = build_adg(programs.figure1())
        for e in adg.edges:
            assert e.tail.rank == e.head.rank

    def test_template_rank(self):
        assert build_adg(programs.example1()).template_rank == 1
        assert build_adg(programs.figure1()).template_rank == 2
        assert build_adg(programs.figure4()).template_rank == 2

    def test_copy_aliases_no_node(self):
        adg = build_adg(parse("real A(5), B(5)\nA = B"))
        # whole-array copy introduces no computation node
        c = kinds_count(adg)
        assert c[NodeKind.ELEMENTWISE] == 0

    def test_scalar_fill_makes_generator(self):
        adg = build_adg(parse("real A(5)\nA = 0"))
        c = kinds_count(adg)
        assert c[NodeKind.ELEMENTWISE] == 1  # the fill node


class TestLoops:
    def test_figure1_loop_structure(self):
        adg = build_adg(programs.figure1())
        c = kinds_count(adg)
        # A and V each get entry + loopback; A (defined) also gets exit.
        assert c[NodeKind.TRANSFORMER] == 5
        assert c[NodeKind.MERGE] == 2
        assert c[NodeKind.BRANCH] == 1  # A's loop-exit branch
        # ... around the body Figure 2 draws: two sections, a '+', an assign.
        assert c[NodeKind.SECTION] == 2
        assert c[NodeKind.ELEMENTWISE] == 1
        assert c[NodeKind.SECTION_ASSIGN] == 1

    def test_transformer_payloads(self):
        adg = build_adg(programs.figure1())
        kinds = sorted(
            n.payload.kind
            for n in adg.nodes
            if n.kind is NodeKind.TRANSFORMER
            and isinstance(n.payload, TransformerPayload)
        )
        assert kinds == ["entry", "entry", "exit", "loop_back", "loop_back"]

    def test_entry_edge_is_outer_space(self):
        adg = build_adg(programs.figure1())
        for n in adg.nodes:
            if n.kind is NodeKind.TRANSFORMER and n.payload.kind == "entry":
                (inp,) = n.inputs()
                for e in adg.in_edges(inp):
                    assert e.space.depth == 0

    def test_loopback_recv_space_starts_second_iteration(self):
        adg = build_adg(programs.figure1())
        for n in adg.nodes:
            if n.kind is NodeKind.TRANSFORMER and n.payload.kind == "loop_back":
                (out,) = n.outputs()
                for e in adg.out_edges(out):
                    trip = e.space.triplets[0]
                    assert trip.lo == 2
                    assert trip.hi == 100

    def test_readonly_send_space_ends_early(self):
        adg = build_adg(programs.figure1())
        for n in adg.nodes:
            if n.label.startswith("loopback(V"):
                (inp,) = n.inputs()
                for e in adg.in_edges(inp):
                    assert e.space.triplets[0].hi == 99

    def test_zero_trip_loop_skipped(self):
        adg = build_adg(parse("real A(5)\ndo k = 5, 1\nA(k) = 0\nenddo"))
        assert kinds_count(adg)[NodeKind.TRANSFORMER] == 0

    def test_single_trip_loop_no_loopback_edges(self):
        adg = build_adg(parse("real A(5)\ndo k = 3, 3\nA(k) = 1\nenddo"))
        for n in adg.nodes:
            if n.kind is NodeKind.TRANSFORMER and n.payload.kind == "loop_back":
                assert not adg.in_edges(n.inputs()[0])
                assert not adg.out_edges(n.outputs()[0])

    def test_nested_loops(self):
        adg = build_adg(programs.doubly_nested(n=4))
        depths = {e.space.depth for e in adg.edges}
        assert 2 in depths  # innermost edges
        adg.validate()


class TestBranches:
    def test_if_makes_phi(self):
        adg = build_adg(programs.conditional_update(n=10))
        labels = [n.label for n in adg.nodes if n.kind is NodeKind.MERGE]
        assert any(l.startswith("phi(") for l in labels)

    def test_control_weights_scaled(self):
        adg = build_adg(
            parse(
                "real A(5), B(5)\nif (c) then\nA = B\nelse\nA = B + 1\nendif",
            )
        )
        cws = sorted({e.control_weight for e in adg.edges})
        assert 0.5 in cws

    def test_branch_node_for_alternate_uses(self):
        adg = build_adg(
            parse(
                "real A(5), B(5), C(5)\n"
                "if (c) then\nA = B + 1\nelse\nC = B + 2\nendif"
            )
        )
        c = kinds_count(adg)
        assert c[NodeKind.BRANCH] >= 1  # B feeds alternate uses


class TestWeightsAndRender:
    def test_edge_weight_is_size(self):
        adg = build_adg(programs.figure1())
        for e in adg.edges:
            if e.tail.node.label == "source(A)":
                assert e.weight == 10000

    def test_variable_size_weight(self):
        adg = build_adg(programs.triangular_sections(iters=10, m=4))
        polys = {str(e.weight) for e in adg.edges}
        assert any("k" in s for s in polys)  # growing sections

    def test_dot_render(self):
        adg = build_adg(programs.figure1())
        dot = to_dot(adg)
        assert dot.startswith("digraph")
        assert "loop_back" in dot

    def test_summary_lists_everything(self):
        adg = build_adg(programs.example1())
        s = summary(adg)
        assert "SECTION_ASSIGN" in s
        assert f"{len(adg.edges)}" in s.splitlines()[0]

    def test_stats(self):
        st = build_adg(programs.example1()).stats()
        assert st["nodes"] == len(build_adg(programs.example1()).nodes)
        assert "kind_SECTION" in st


def _structure(adg):
    """Everything an ADG holds, as plain comparable values."""
    nodes = [
        (
            n.nid, n.kind, n.label, n.stmt, n.payload,
            [(p.key, p.name, p.shape, p.space, p.is_output) for p in n.ports],
        )
        for n in adg.nodes
    ]  # fmt: skip
    edges = [
        (e.eid, e.tail.key, e.head.key, e.weight, e.space, e.control_weight)
        for e in adg.edges
    ]
    return adg.name, adg.template_rank, nodes, edges


class TestSizeMemo:
    """One ``size_poly`` per distinct shape per build: the weights are
    what they were, shared within a build and never across builds."""

    def test_every_weight_is_the_size_of_its_tail(self, make_program):
        from repro.adg.build import size_poly

        adg = build_adg(make_program())
        assert adg.edges
        for e in adg.edges:
            assert e.weight == size_poly(e.tail.shape), e

    def test_corpus_kernels(self, corpus_kernels):
        from repro.adg.build import size_poly

        assert len(corpus_kernels) == 16
        for name, source in corpus_kernels.items():
            adg = build_adg(parse(source, name=name))
            by_shape = {}
            for e in adg.edges:
                assert e.weight == size_poly(e.tail.shape), (name, e)
                # equal shapes share the object
                assert by_shape.setdefault(e.tail.shape, e.weight) is e.weight

    def test_two_builds_share_no_weight_objects(self, make_program):
        program = make_program()
        first, second = build_adg(program), build_adg(program)
        assert _structure(first) == _structure(second)
        assert not {id(e.weight) for e in first.edges} & {
            id(e.weight) for e in second.edges
        }

    def test_a_pickled_prefix_round_trips_to_an_equal_graph(self):
        import pickle

        from repro.align.pipeline import plan_context
        from repro.passes import Pipeline

        ctx = plan_context(programs.figure1())
        Pipeline().run(ctx, goal=("plan", "profile"))
        adg = ctx.get("adg")
        thawed = pickle.loads(pickle.dumps(ctx)).get("adg")
        assert thawed is not adg
        assert _structure(thawed) == _structure(adg)
        assert len({id(e.weight) for e in thawed.edges}) == len(
            {id(e.weight) for e in adg.edges}
        )
        assert len({id(e.weight) for e in adg.edges}) == len(
            {e.tail.shape for e in adg.edges}
        )
