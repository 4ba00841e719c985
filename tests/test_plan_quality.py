"""Plan quality, not only plan cost: the axis/stride labeling is optimal.

The backbone tests check that a plan's price is right (analytic cost ==
simulated cost, incremental == cold).  This file checks that the plan is
good, starting with the axis/stride layer: for every program below, the
discrete-metric cost :func:`~repro.align.axis_stride.solve_axis_stride`
reaches equals the exact minimum of the labeling problem it solved.

The oracle is test-only bucket elimination (min-sum variable
elimination in a min-degree order, parallel edges merged into one
table), exact on any graph and cheap on these: their labeling graphs
are near-forests.  It shares nothing with the solver's exhaustive or
spanning-tree + ICM paths.

Programs: the 16 pinned kernels, their 48 pinned edits, and the
generated corpora ``generate_corpus(14, seed=0)`` and
``generate_corpus(42, seed=5)``.  On two of them ICM stops above the
optimum; they are strict xfails until ROADMAP item 3's exact solver
replaces ICM.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path

import pytest
from axis_stride_reference import LabeledProblem, tabulate

import repro.align.axis_stride as axis_stride
from repro.adg import build_adg
from repro.lang import parse
from repro.ir.affine import exact_div
from repro.lang.generate import generate_corpus
from repro.solvers.dp import DiscreteLabelingProblem

CORPUS_DIR = Path(__file__).parent.parent / "benchmarks" / "perf" / "corpus"

#: Where ICM's local optimum is not the global one (ROADMAP item 3).
ICM_GAPS = {
    "twod_12": "ICM reaches 242, the optimum is 50 (ROADMAP item 3)",
    "twod_500048": "ICM reaches 108, the optimum is 32 (ROADMAP item 3)",
}


def _programs() -> list:
    out = [
        (p.stem, p.read_text())
        for p in sorted(CORPUS_DIR.glob("*.dp"))
    ]
    out += [
        (p.stem, p.read_text())
        for p in sorted((CORPUS_DIR / "edits").glob("*.dp"))
    ]
    for n, seed in ((14, 0), (42, 5)):
        out += [(sc.name, sc.source) for sc in generate_corpus(n, seed=seed)]
    return [
        pytest.param(
            name,
            source,
            id=name,
            marks=(
                [pytest.mark.xfail(reason=ICM_GAPS[name], strict=True)]
                if name in ICM_GAPS
                else []
            ),
        )
        for name, source in out
    ]


def exact_minimum(prob: DiscreteLabelingProblem):
    """The minimum total cost of ``prob`` by bucket elimination.

    Every compiled edge table becomes a table over its two nodes'
    candidate indices, low node first (parallel edges summed into one);
    then, repeatedly, the node with the fewest neighbours (lowest on a
    tie) is eliminated: the tables that mention it are added and
    minimized over its candidates into one table on its neighbours.
    """
    nodes = range(len(prob.sizes))
    rank = {n: n for n in nodes}
    size = dict(enumerate(prob.sizes))
    tables: dict[tuple, dict] = {}
    for eu, ev, priced in prob.edges:
        u, v = sorted((eu, ev))
        table = tables.setdefault((u, v), {})
        for i, row in enumerate(priced):
            for j, cost in enumerate(row):
                key = (i, j) if u == eu else (j, i)
                table[key] = table.get(key, 0) + cost
    factors = list(tables.items())
    total = 0
    remaining = set(nodes)
    while remaining:
        neighbours: dict = {n: set() for n in remaining}
        for scope, _ in factors:
            for a in scope:
                neighbours[a].update(b for b in scope if b != a)
        x = min(remaining, key=lambda n: (len(neighbours[n]), rank[n]))
        touching = [f for f in factors if x in f[0]]
        factors = [f for f in factors if x not in f[0]]
        scope = tuple(sorted(neighbours[x], key=rank.get))
        reduced = {}
        for assign in product(*(range(size[y]) for y in scope)):
            env = dict(zip(scope, assign))
            best = None
            for xi in range(size[x]):
                env[x] = xi
                c = sum(t[tuple(env[y] for y in s)] for s, t in touching)
                if best is None or c < best:
                    best = c
            reduced[assign] = best
        if scope:
            factors.append((scope, reduced))
        else:
            total += reduced[()]
        remaining.remove(x)
    return exact_div(total, prob.den)


@pytest.fixture
def solve_and_capture(monkeypatch):
    """``solve_axis_stride`` on a program, plus the labeling problem it
    built: ``(result, problem)``."""
    built: list[DiscreteLabelingProblem] = []

    class Captured(DiscreteLabelingProblem):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(axis_stride, "DiscreteLabelingProblem", Captured)

    def run(name: str, source: str):
        built.clear()
        result = axis_stride.solve_axis_stride(build_adg(parse(source, name=name)))
        (prob,) = built
        return result, prob

    return run


def test_oracle_matches_enumeration_on_a_cycle():
    """The oracle against plain enumeration on a small cyclic problem
    with parallel edges and a transposing relation."""
    prob = LabeledProblem()
    for n, cands in (("a", "xy"), ("b", "xyz"), ("c", "xz"), ("d", "y")):
        prob.add_node(n, cands)
    prob.add_edge("a", "b", 3)
    prob.add_edge("b", "c", 5)
    prob.add_edge("c", "a", 2)
    prob.add_edge("a", "b", 4, relation={"x": "y", "y": "x"}.get)
    prob.add_edge("c", "d", 1)
    brute = min(
        prob.total_cost(dict(zip(prob.candidates, combo)))
        for combo in product(*prob.candidates.values())
    )
    compiled = tabulate(prob)
    assert exact_minimum(compiled) == brute == compiled.solve_exhaustive().cost


@pytest.mark.parametrize("name, source", _programs())
def test_axis_stride_cost_is_the_exact_optimum(solve_and_capture, name, source):
    result, prob = solve_and_capture(name, source)
    assert result.cost == exact_minimum(prob)
