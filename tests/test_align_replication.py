"""Unit tests for Section 5: replication labeling by min-cut."""

from fractions import Fraction

import networkx as nx
import pytest

from repro.adg import build_adg, NodeKind
from repro.align import (
    align_program,
    label_replication,
    read_only_arrays,
    solve_axis_stride,
    value_carriers,
)
from repro.lang import parse
from repro.lang import programs
from repro.solvers.maxflow import FlowNetwork


def networkx_checked_labels(monkeypatch, *args, **kw):
    """``label_replication`` with every cut it takes checked against
    networkx, the max-flow oracle: the cut value is networkx's minimum
    cut value, and so is the capacity leaving the labeler's S side."""
    min_cut = FlowNetwork.min_cut
    checked = []

    def oracle_checked(g, s, t):
        value, s_side, t_side = min_cut(g, s, t)
        G = nx.DiGraph()
        G.add_nodes_from(g.name_of(i) for i in range(g.num_nodes))
        for i in range(g.num_nodes):
            for u, v, c in g.cut_edges({g.name_of(i)}):
                if G.has_edge(u, v):
                    G[u][v]["capacity"] += c
                else:
                    G.add_edge(u, v, capacity=c)
        want = nx.minimum_cut_value(G, s, t)
        assert value == pytest.approx(want)
        assert sum(c for _, _, c in g.cut_edges(s_side)) == pytest.approx(want)
        checked.append(value)
        return value, s_side, t_side

    with monkeypatch.context() as m:
        m.setattr(FlowNetwork, "min_cut", oracle_checked)
        result = label_replication(*args, **kw)
    assert checked, "no cut was taken"
    return result


class TestSources:
    def test_read_only_detection(self):
        p = programs.figure1()
        assert read_only_arrays(p) == {"V"}

    def test_explicit_readonly(self):
        p = parse("readonly real T(8)\nreal A(8)\nA = T")
        assert read_only_arrays(p) == {"T"}

    def test_carrier_nodes_stop_at_computation(self):
        adg = build_adg(programs.figure1())
        carriers = value_carriers(adg, {"V"})
        labels = {adg.nodes[nid].label for nid in carriers}
        assert any(l.startswith("merge(V") for l in labels)
        assert any(l.startswith("loopback(V") for l in labels)
        assert not any(l.startswith("section") for l in labels)


class TestCarrierIndexScales:
    """The read-only carriers are found in one pass over the ADG, not
    one per read-only array: unused declarations are read-only, and a
    scan per array made planning quadratic in their number."""

    @staticmethod
    def visited(unused: int, monkeypatch) -> int:
        """ADG nodes the carrier search of ``a0 = a0 + a1`` beside
        ``unused`` unused declarations visits: each node a scan yields,
        and each output port it follows."""
        from repro.adg.graph import ADG
        from repro.align import replication

        decls = "".join(f"real u{i}(8)\n" for i in range(unused))
        program = parse("real a0(8), a1(8)\n" + decls + "a0 = a0 + a1\n")
        adg = build_adg(program)
        count = [0]

        class Counted(list):
            def __iter__(self):
                for n in super().__iter__():
                    count[0] += 1
                    yield n

        real_out_edges = ADG.out_edges

        def out_edges(graph, p):
            count[0] += 1
            return real_out_edges(graph, p)

        searches = []
        real_search = replication.value_carriers

        def search(graph, arrays):
            searches.append(arrays)
            nodes, graph.nodes = graph.nodes, Counted(graph.nodes)
            with monkeypatch.context() as m:
                m.setattr(ADG, "out_edges", out_edges)
                try:
                    return real_search(graph, arrays)
                finally:
                    graph.nodes = nodes

        monkeypatch.setattr(replication, "value_carriers", search)
        skel = solve_axis_stride(adg).skeletons
        label_replication(adg, skel, program)
        assert len(searches) == 1 and len(searches[0]) == unused + 1
        return count[0]

    @staticmethod
    def reference_carriers(adg, array):
        """The search per array the index replaced: scan for the array's
        sources, then follow transformers, merges, fanouts and branches."""
        passthrough = {"TRANSFORMER", "MERGE", "FANOUT", "BRANCH"}
        carriers = {
            n.nid
            for n in adg.nodes
            if n.kind is NodeKind.SOURCE and getattr(n.payload, "array", None) == array
        }
        frontier = list(carriers)
        while frontier:
            n = adg.nodes[frontier.pop()]
            for p in n.outputs():
                for e in adg.out_edges(p):
                    m = e.head.node
                    if m.kind.name in passthrough and m.nid not in carriers:
                        carriers.add(m.nid)
                        frontier.append(m.nid)
        return carriers

    def test_the_index_is_the_search_per_array(self, corpus_kernels):
        from repro.lang.generate import generate_corpus

        sources = ["real a0(8), a1(8)\na0 = a0 + a1\n", *corpus_kernels.values()]
        sources += [sc.source for sc in generate_corpus(40, 3)]
        for src in sources:
            program = parse(src)
            adg = build_adg(program)
            arrays = read_only_arrays(program)
            want = set()
            for array in arrays:
                want |= self.reference_carriers(adg, array)
            assert value_carriers(adg, arrays) == want, src

    def test_doubling_the_unused_declarations_at_most_doubles_the_visits(
        self, monkeypatch
    ):
        counts = [self.visited(n, monkeypatch) for n in (200, 400, 800)]
        assert counts[1] <= 2 * counts[0] and counts[2] <= 2 * counts[1], counts


class TestFigure4:
    def setup_method(self):
        self.program = programs.figure4()
        self.adg = build_adg(self.program)
        self.skel = solve_axis_stride(self.adg).skeletons

    def test_spread_input_forced_r(self):
        rep = label_replication(self.adg, self.skel, self.program)
        for n in self.adg.nodes:
            if n.kind is NodeKind.SPREAD:
                inp = n.inputs()[0]
                out = n.outputs()[0]
                assert rep.labels[(inp.key, 1)] == "R"
                assert rep.labels[(out.key, 1)] == "N"

    def test_t_cycle_replicated(self):
        rep = label_replication(self.adg, self.skel, self.program)
        for n in self.adg.nodes:
            if n.label.startswith("merge(t") or n.label == "cos":
                for p in n.ports:
                    assert rep.labels[(p.key, 1)] == "R", n.label

    def test_cut_value_is_entry_broadcast(self):
        rep = label_replication(self.adg, self.skel, self.program)
        assert rep.cut_value[1] == 100  # one broadcast of t at loop entry
        assert rep.cut_value[0] == 0

    def test_body_axes_always_n(self):
        rep = label_replication(self.adg, self.skel, self.program)
        for p in self.adg.ports():
            sk = self.skel[p.key]
            for tau in range(sk.template_rank):
                if sk.axes[tau].is_body:
                    assert rep.labels[(p.key, tau)] == "N"

    def test_minimal_labels_only_forced(self):
        rep = label_replication(
            self.adg, self.skel, self.program, minimal=True
        )
        r_ports = {key for key, v in rep.labels.items() if v == "R"}
        spread_inputs = {
            (n.inputs()[0].key, 1)
            for n in self.adg.nodes
            if n.kind is NodeKind.SPREAD
        }
        assert r_ports == spread_inputs

    def test_cuts_match_networkx(self, monkeypatch):
        a = label_replication(self.adg, self.skel, self.program)
        b = networkx_checked_labels(monkeypatch, self.adg, self.skel, self.program)
        assert a.cut_value == b.cut_value
        assert a.labels == b.labels


class TestEndToEnd:
    def test_figure4_cost_ratio(self):
        """Paper: 1 broadcast at entry vs one per iteration (200x)."""
        with_rep = align_program(programs.figure4())
        without = align_program(programs.figure4(), replication=False)
        assert with_rep.total_cost == 100
        assert without.total_cost == 20000
        assert without.total_cost / with_rep.total_cost == 200

    def test_rule3_replicates_mobile_readonly(self):
        """Figure 1 + Section 5 rule 3: replicating V removes the row
        movement; the body-axis column shift remains."""
        plan = align_program(programs.figure1())
        norep = align_program(programs.figure1(), replication=False)
        assert plan.total_cost < norep.total_cost
        # V's merge ports replicated on axis 0
        found = False
        for p in plan.adg.ports():
            if "merge(V" in p.uid:
                assert plan.alignments[p.key].axes[0].is_replicated
                found = True
        assert found

    def test_lookup_table_hint(self):
        plan = align_program(programs.lookup_table(n=32, m=16))
        src = plan.source_alignments()["tab"]
        # table replicated or at least analysis completes with zero cost
        assert plan.total_cost >= 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: programs.figure4(nt=6, nk=4),
            lambda: programs.figure4(nt=20, nk=30),
            lambda: programs.figure1(n=10),
        ],
        ids=["figure4-small", "figure4-paper", "figure1"],
    )
    def test_cut_optimality_vs_exhaustive(self, make, monkeypatch):
        """Theorem 1: the cut cost matches brute-force optimal labeling
        (the forced-labels-only labeling is one of those enumerated), and
        every cut it takes is networkx's minimum cut."""
        from itertools import product

        program = make()
        adg = build_adg(program)
        skel = solve_axis_stride(adg).skeletons
        rep = label_replication(adg, skel, program)
        checked = networkx_checked_labels(monkeypatch, adg, skel, program)
        assert checked.cut_value == rep.cut_value
        axis = 1
        labeler_cost = rep.cut_value[axis]

        # Brute force over node labels subject to the same constraints.
        from repro.align.replication import ReplicationLabeler, _current_axis_spread
        from repro.ir import weighted_moments

        lab = ReplicationLabeler(adg, skel, program)
        free_nodes = []
        forced = {}
        for n in adg.nodes:
            if _current_axis_spread(n, skel, axis):
                continue  # handled per-port
            body = any(
                axis < skel[p.key].template_rank and skel[p.key].axes[axis].is_body
                for p in n.ports
            )
            if body or n.kind.name in ("SOURCE", "SINK"):
                forced[n.nid] = "N"
            else:
                free_nodes.append(n.nid)

        def vertex_label(nid, assign):
            return forced.get(nid) or assign.get(nid, "N")

        def edge_label(port, assign):
            n = port.node
            if _current_axis_spread(n, skel, axis):
                return "R" if not port.is_output else "N"
            return vertex_label(n.nid, assign)

        best = None
        for combo in product("NR", repeat=len(free_nodes)):
            assign = dict(zip(free_nodes, combo))
            cost = Fraction(0)
            for e in adg.edges:
                lu = edge_label(e.tail, assign)
                lv = edge_label(e.head, assign)
                if lu == "N" and lv == "R":
                    cost += weighted_moments(e.space, e.weight).m0
            best = cost if best is None else min(best, cost)
        assert labeler_cost == best
