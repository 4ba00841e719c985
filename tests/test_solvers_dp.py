"""Unit tests for the compact-DP discrete labeling engine.

The engine reads compiled problems: candidate indices and integer edge
tables.  Most tests state a problem over labels, as the test-only
``axis_stride_reference.LabeledProblem`` (edges priced by identity,
relation or predicate), compile it with ``tabulate`` and read the chosen
labels back with ``labels_of``.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from axis_stride_reference import LabeledProblem, labels_of, tabulate

from repro.solvers import DiscreteLabelingProblem


def run(p, method="solve_tree", **kw):
    """Compile the labeled problem ``p``, solve it with ``method`` and
    name the chosen labels."""
    r = getattr(tabulate(p), method)(**kw)
    return SimpleNamespace(labels=labels_of(p, r.labels), cost=r.cost, exact=r.exact)


def chain(labels_per_node, weights):
    p = LabeledProblem()
    for i, cands in enumerate(labels_per_node):
        p.add_node(i, cands)
    for i, w in enumerate(weights):
        p.add_edge(i, i + 1, w)
    return p


class TestTreeDP:
    def test_chain_prefers_agreement(self):
        p = chain([[1, 2], [1, 2], [1, 2]], [5, 5])
        r = run(p)
        assert r.cost == 0
        assert len(set(r.labels.values())) == 1

    def test_pinned_endpoints_conflict(self):
        p = chain([[1], [1, 2], [2]], [3, 7])
        r = run(p)
        # must pay the cheaper of the two edges
        assert r.cost == 3
        assert r.labels[1] == 2  # agree with the heavier edge

    def test_star_majority(self):
        p = LabeledProblem()
        p.add_node("hub", ["a", "b"])
        for i, (lab, w) in enumerate([("a", 1), ("a", 1), ("b", 5)]):
            p.add_node(i, [lab])
            p.add_edge("hub", i, w)
        r = run(p)
        assert r.labels["hub"] == "b"
        assert r.cost == 2

    def test_relation_edge(self):
        p = LabeledProblem()
        p.add_node("x", [1, 2])
        p.add_node("y", [2, 4])
        p.add_edge("x", "y", 10, relation=lambda v: v * 2)
        r = run(p)
        assert r.cost == 0
        assert r.labels["y"] == r.labels["x"] * 2

    def test_predicate_edge(self):
        p = LabeledProblem()
        p.add_node("x", [1, 2, 3])
        p.add_node("y", [3, 5])
        p.add_edge("x", "y", 10, predicate=lambda a, b: a + b == 5)
        r = run(p)
        assert r.cost == 0
        assert r.labels["x"] + r.labels["y"] == 5

    def test_forest_multiple_components(self):
        p = LabeledProblem()
        for n in "abcd":
            p.add_node(n, [1, 2])
        p.add_edge("a", "b", 4)
        p.add_edge("c", "d", 4)
        r = run(p)
        assert r.cost == 0

    def test_cycle_rejected_by_tree_solver(self):
        p = chain([[1], [1, 2], [1]], [1, 1])
        p.add_edge(0, 2, 1)
        with pytest.raises(ValueError):
            tabulate(p).solve_tree()


class TestGeneralSolve:
    def test_cycle_matches_exhaustive(self):
        p = LabeledProblem()
        p.add_node("a", [1])
        p.add_node("b", [1, 2])
        p.add_node("c", [2])
        p.add_edge("a", "b", 1)
        p.add_edge("b", "c", 1)
        p.add_edge("a", "c", 10)
        assert run(p, "solve").cost == run(p, "solve_exhaustive").cost == 11

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cycles_not_worse_than_double_optimal(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        p = LabeledProblem()
        n = 6
        for i in range(n):
            p.add_node(i, [0, 1, 2])
        for _ in range(9):
            u, v = rng.integers(0, n, size=2)
            if u == v:
                continue
            p.add_edge(int(u), int(v), int(rng.integers(1, 10)))
        heur = run(p, "solve")
        exact = run(p, "solve_exhaustive")
        assert heur.cost >= exact.cost
        # ICM from a spanning-tree seed is decent on small instances.
        assert heur.cost <= exact.cost * 3 + 1

    def test_exhaustive_limit(self):
        p = LabeledProblem()
        for i in range(30):
            p.add_node(i, list(range(10)))
        with pytest.raises(ValueError):
            tabulate(p).solve_exhaustive(limit=1000)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            DiscreteLabelingProblem([2, 0])

    def test_edge_before_nodes_rejected(self):
        p = DiscreteLabelingProblem([1])
        with pytest.raises(KeyError):
            p.add_edge(0, 1, [[0]])

    def test_table_of_the_wrong_shape_rejected(self):
        p = DiscreteLabelingProblem([2, 3])
        with pytest.raises(ValueError, match="2 x 3"):
            p.add_edge(0, 1, [[0, 1], [1, 0]])

    def test_total_cost_fractions(self):
        p = tabulate(chain([[1], [2]], [Fraction(3, 2)]))
        assert p.total_cost([0, 0]) == Fraction(3, 2)


def reference_exhaustive(p):
    """The plain enumerator ``solve_exhaustive`` was: every labeling in
    ``product`` order, every edge re-priced, ``Fraction`` sums, first
    minimum wins.  Kept as the reference only."""
    from itertools import product

    nodes = list(p.candidates)
    best_cost, best = None, {}
    for combo in product(*(p.candidates[n] for n in nodes)):
        labels = dict(zip(nodes, combo))
        c = p.total_cost(labels)
        if best_cost is None or c < best_cost:
            best_cost, best = c, labels
    return best, best_cost


class TestExhaustiveTables:
    def _mixed(self):
        """Predicate, relation and identity edges, a cycle, a parallel
        edge, weights with denominators 1, 2, 3 and 7."""
        p = LabeledProblem()
        p.add_node("a", [1, 2, 3])
        p.add_node("b", [2, 4, 6])
        p.add_node("c", [3, 2, 1])
        p.add_node("d", [5, 1])
        p.add_edge("a", "b", Fraction(3, 2), relation=lambda v: v * 2)
        p.add_edge("b", "c", Fraction(1, 3))
        p.add_edge("c", "a", 4, predicate=lambda x, y: x + y == 4)
        p.add_edge("a", "d", Fraction(5, 7))
        p.add_edge("d", "a", Fraction(1, 7), predicate=lambda x, y: x > y)
        return p

    def test_equals_the_plain_enumerator(self):
        p = self._mixed()
        labels, cost = reference_exhaustive(p)
        r = run(p, "solve_exhaustive")
        assert (r.labels, r.cost, r.exact) == (labels, cost, True)
        assert isinstance(r.cost, Fraction)
        assert list(r.labels) == list(p.candidates)

    def test_first_minimum_in_product_order_wins_a_tie(self):
        # Four labelings cost 0; product order reaches (1, 1) first.
        p = chain([[1, 2, 3, 4], [4, 3, 1, 2]], [Fraction(7, 3)])
        r = run(p, "solve_exhaustive")
        assert r.labels == reference_exhaustive(p)[0] == {0: 1, 1: 1}
        # Every labeling ties at the full weight: the very first one wins.
        q = chain([["x", "y"], ["p", "q"], ["r"]], [2, Fraction(1, 2)])
        r = run(q, "solve_exhaustive")
        assert r.labels == reference_exhaustive(q)[0] == {0: "x", 1: "p", 2: "r"}
        assert r.cost == Fraction(5, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_problems_equal_the_plain_enumerator(self, seed):
        import random

        rng = random.Random(seed)
        p = LabeledProblem()
        n = 5
        for i in range(n):
            p.add_node(i, rng.sample(range(4), rng.randint(1, 4)))
        for _ in range(8):
            u, v = rng.randrange(n), rng.randrange(n)
            w = Fraction(rng.randint(0, 6), rng.choice([1, 2, 3, 5]))
            if rng.random() < 0.5:
                p.add_edge(u, v, w)
            else:
                k = rng.randrange(3)
                p.add_edge(u, v, w, predicate=lambda a, b, k=k: (a + b) % 3 == k)
        r = run(p, "solve_exhaustive")
        assert (r.labels, r.cost) == reference_exhaustive(p)

    def test_each_edge_priced_once_per_label_pair(self, monkeypatch):
        """Compiling prices each pair once; the solver only reads tables."""
        from axis_stride_reference import LabelEdge

        p = self._mixed()
        calls = []
        real = LabelEdge.cost
        monkeypatch.setattr(
            LabelEdge, "cost", lambda e, lu, lv: calls.append(e) or real(e, lu, lv)
        )
        run(p, "solve_exhaustive")
        want = sum(len(p.candidates[e.u]) * len(p.candidates[e.v]) for e in p.edges)
        assert len(calls) == want == 9 + 9 + 9 + 6 + 6
        # ... where the plain enumerator prices every edge per labeling.
        calls.clear()
        reference_exhaustive(p)
        assert len(calls) == 54 * len(p.edges)

    def test_no_edges_and_no_nodes(self):
        p = LabeledProblem()
        assert run(p, "solve_exhaustive").labels == {}
        p.add_node("a", [7, 8])
        r = run(p, "solve_exhaustive")
        assert (r.labels, r.cost) == ({"a": 7}, 0)

    def test_over_limit_error_unchanged(self):
        p = tabulate(chain([[1, 2, 3], [1, 2, 3]], [1]))
        with pytest.raises(ValueError, match=r"search space exceeds limit \(8\)"):
            p.solve_exhaustive(limit=8)
        assert p.solve_exhaustive(limit=9).cost == 0


def _random_labeled(seed, cyclic):
    """Six nodes, a random spanning forest (plus three chords when
    ``cyclic``), identity and predicate edges with small weights, so
    that ties are common."""
    import random

    rng = random.Random(seed)
    p = LabeledProblem()
    for i in range(6):
        p.add_node(i, rng.sample(range(4), rng.randint(1, 4)))
    pairs = [(rng.randrange(i), i) for i in range(1, 6) if rng.random() < 0.9]
    if cyclic:
        pairs += [tuple(rng.sample(range(6), 2)) for _ in range(3)]
    for u, v in pairs:
        if rng.random() < 0.5:
            u, v = v, u
        w = Fraction(rng.randint(0, 3), rng.choice([1, 2]))
        if rng.random() < 0.5:
            p.add_edge(u, v, w)
        else:
            k = rng.randrange(3)
            p.add_edge(u, v, w, predicate=lambda a, b, k=k: (a + b) % 3 == k)
    return p


class TestTablesAgainstTheLabeledReference:
    """Each table solver walks the predicate DP's traversal order and
    keeps its first minimum: the same labels, cost and exactness."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize(
        "method, cyclic",
        [("solve_tree", False), ("solve_exhaustive", True), ("solve", True)],
    )
    def test_same_labels_cost_and_exactness(self, method, cyclic, seed):
        p = _random_labeled(seed, cyclic)
        want = getattr(p, method)()
        got = run(p, method)
        assert (got.labels, got.cost, got.exact) == (want.labels, want.cost, want.exact)

    def test_every_solver_keeps_the_first_minimum(self):
        flat = [[0] * 3 for _ in range(3)]
        path = DiscreteLabelingProblem([3, 3, 3])
        path.add_edge(0, 1, flat)
        path.add_edge(1, 2, flat)
        assert path.solve_tree().labels == [0, 0, 0]
        assert path.solve_exhaustive().labels == [0, 0, 0]
        # A square whose spanning tree leaves out the edge (1, 3): the
        # tree gives node 1 its first candidate, which that edge makes
        # dear, and ICM moves it to the first of the two cheaper ones.
        square = DiscreteLabelingProblem([1, 3, 1, 1])
        square.add_edge(0, 1, [[0, 0, 0]])
        square.add_edge(0, 2, [[0]])
        square.add_edge(2, 3, [[0]])
        square.add_edge(1, 3, [[5], [1], [1]])
        r = square.solve()
        assert (r.labels, r.cost, r.exact) == ([0, 1, 0, 0], 1, False)
