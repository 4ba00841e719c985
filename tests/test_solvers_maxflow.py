"""Unit tests for max-flow/min-cut, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.solvers import INF, FlowNetwork


def classic_network():
    g = FlowNetwork()
    edges = [
        ("s", "a", 10),
        ("s", "b", 10),
        ("a", "b", 2),
        ("a", "t", 4),
        ("a", "c", 8),
        ("b", "c", 9),
        ("c", "t", 10),
    ]
    for u, v, c in edges:
        g.add_edge(u, v, c)
    return g, edges


class TestMaxFlow:
    def test_classic(self):
        g, _ = classic_network()
        assert g.max_flow("s", "t") == pytest.approx(14.0)

    def test_disconnected(self):
        g = FlowNetwork()
        g.add_edge("s", "a", 5)
        g.node("t")
        assert g.max_flow("s", "t") == 0.0

    def test_parallel_edges(self):
        g = FlowNetwork()
        g.add_edge("s", "t", 3)
        g.add_edge("s", "t", 4)
        assert g.max_flow("s", "t") == pytest.approx(7.0)

    def test_infinite_arc(self):
        g = FlowNetwork()
        g.add_edge("s", "a", INF)
        g.add_edge("a", "t", 5)
        assert g.max_flow("s", "t") == pytest.approx(5.0)

    def test_source_equals_sink_rejected(self):
        g = FlowNetwork()
        g.add_edge("s", "t", 1)
        with pytest.raises(ValueError):
            g.max_flow("s", "s")


class TestMinCut:
    def test_cut_value_matches_flow(self):
        g, edges = classic_network()
        value, s_side, t_side = g.min_cut("s", "t")
        assert value == pytest.approx(14.0)
        assert "s" in s_side and "t" in t_side
        crossing = sum(c for (u, v, c) in edges if u in s_side and v in t_side)
        assert crossing == pytest.approx(value)

    def test_cut_edges_helper(self):
        g, _ = classic_network()
        _, s_side, _ = g.min_cut("s", "t")
        crossing = g.cut_edges(s_side)
        assert sum(c for (_, _, c) in crossing) == pytest.approx(14.0)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        g = FlowNetwork()
        G = nx.DiGraph()
        for _ in range(24):
            u, v = rng.integers(0, n, size=2)
            if u == v:
                continue
            c = int(rng.integers(1, 20))
            g.add_edge(int(u), int(v), c)
            if G.has_edge(int(u), int(v)):
                G[int(u)][int(v)]["capacity"] += c
            else:
                G.add_edge(int(u), int(v), capacity=c)
        g.node(0)
        g.node(n - 1)
        G.add_node(0)
        G.add_node(n - 1)
        ours = g.max_flow(0, n - 1)
        theirs = nx.maximum_flow_value(G, 0, n - 1)
        assert ours == pytest.approx(theirs)
        # The cut, parallel arcs kept apart: its value and the capacity
        # leaving its S side are both networkx's minimum cut.
        value, s_side, t_side = g.min_cut(0, n - 1)
        cut_value, _ = nx.minimum_cut(G, 0, n - 1)
        assert 0 in s_side and n - 1 in t_side
        assert value == pytest.approx(cut_value)
        assert sum(c for _, _, c in g.cut_edges(s_side)) == pytest.approx(cut_value)

    def test_negative_capacity_rejected(self):
        g = FlowNetwork()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", -1)


def networkx_residual_s_side(g, s, t):
    """networkx's cut of ``g``: its maximum flow value (Edmonds–Karp) and
    the nodes reachable from ``s`` over arcs its flow leaves residual
    capacity on.  That set is the same for every maximum flow, so it is
    the S side ``min_cut`` must report."""
    from networkx.algorithms.flow import edmonds_karp

    G = nx.DiGraph()
    G.add_nodes_from(g.name_of(i) for i in range(g.num_nodes))
    for a in range(0, len(g.head), 2):
        u, v, c = g.name_of(g.head[g.rev[a]]), g.name_of(g.head[a]), g.cap[a]
        if G.has_edge(u, v):
            G[u][v]["capacity"] += c
        else:
            G.add_edge(u, v, capacity=c)
    R = edmonds_karp(G, s, t)
    seen, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for v, arc in R[u].items():
            if v not in seen and arc["capacity"] - arc["flow"] > 1e-12:
                seen.add(v)
                stack.append(v)
    return R.graph["flow_value"], seen


class TestEveryPlannerNetwork:
    """Each min-cut network replication labeling builds — every template
    axis under every set of pins a fixpoint meets, on the 16 kernels and on
    ``generate_corpus(14, 0)`` — is cut as networkx cuts it: the same
    value and the same S side."""

    def test_min_cut_agrees_with_networkx(self, monkeypatch, corpus_kernels):
        from repro.align import align_and_distribute
        from repro.lang import parse
        from repro.lang.generate import generate_corpus

        min_cut = FlowNetwork.min_cut
        cuts = []

        def recording(g, s, t):
            value, s_side, t_side = min_cut(g, s, t)
            cuts.append((g, s, t, value, s_side, t_side))
            return value, s_side, t_side

        monkeypatch.setattr(FlowNetwork, "min_cut", recording)
        programs = [parse(src, name=k) for k, src in corpus_kernels.items()]
        programs += [sc.parse() for sc in generate_corpus(14, 0)]
        for program in programs:
            align_and_distribute(program, nprocs=16)
        # One cut per template axis per set of pinned vertices a fixpoint
        # meets: a round that pins what an earlier round pinned reuses
        # that cut (100 cuts when every round cut afresh).
        assert len(cuts) == 50
        for g, s, t, value, s_side, t_side in cuts:
            want, reachable = networkx_residual_s_side(g, s, t)
            assert value == pytest.approx(want)
            assert s_side == reachable
            assert t_side == {g.name_of(i) for i in range(g.num_nodes)} - reachable
