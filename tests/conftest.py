"""Shared pytest plumbing: golden snapshot files, and the program set
of the solver differential tests.

``pytest --update-golden`` rewrites the files under ``tests/golden/``
from the current plans instead of comparing against them; commit the
diff deliberately.  Without the flag, a missing or mismatching golden
file fails the test with instructions.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_DIR = Path(__file__).parent.parent / "benchmarks" / "perf" / "corpus"

#: A line nested 400 parentheses deep: past the parser's nesting bound.
DEEP_SOURCE = "real x(8)\nx = " + "(" * 400 + "x" + ")" * 400 + "\n"
#: A flat sum of 1 000 terms: its left-associative chain is a tree 999
#: levels deep, past the parser's nesting bound.
CHAIN_SOURCE = "real x(8)\nx = " + " + ".join(["x"] * 1000) + "\n"


def nested_blocks(kind: str, levels: int) -> str:
    """One assignment inside ``levels`` nested ``do`` or ``if`` blocks."""
    opener = {"do": "do i{} = 1, 1\n", "if": "if (c{}) then\n"}[kind]
    closer = {"do": "enddo\n", "if": "endif\n"}[kind]
    return (
        "real x(8)\n"
        + "".join(opener.format(j) for j in range(levels))
        + "x = x + 1\n"
        + closer * levels
    )


def report_facts(report) -> list:
    """What a batch report decided for each program, without timings or
    cache counters: pooled and serial runs must agree on it."""
    return [
        (r.name, r.ok, r.total_cost, dict(r.alignments), r.distribution,
         r.dist_hops, r.dist_moved, r.machine)
        for r in report.results
    ]


def with_axis(alignment, template_axis: int, **fields):
    """``alignment`` with the named fields of one template axis replaced
    (``offset=``, ``replication=``); the axis and the alignment re-check
    their invariants."""
    axes = list(alignment.axes)
    axes[template_axis] = dataclasses.replace(axes[template_axis], **fields)
    return type(alignment)(tuple(axes))


#: 170 nested ``do`` / ``if`` blocks: past the parser's nesting bound,
#: whose 101st block opens on line 102.
DEEP_DO_SOURCE = nested_blocks("do", 170)
DEEP_IF_SOURCE = nested_blocks("if", 170)
#: A section whose extent floors ``i/2`` over 4096 x 4096 loop points:
#: the typechecker refuses it without visiting them.
FLOOR_SOURCE = """real A(4096)
do i = 1, 4096
  do j = 1, 4096
    A(i/2+1:j+4096) = 1
  enddo
enddo
"""


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from current plans",
    )


class GoldenChecker:
    def __init__(self, update: bool) -> None:
        self.update = update

    def check(self, name: str, data: dict) -> None:
        """Compare ``data`` to the stored snapshot (or rewrite it)."""
        path = GOLDEN_DIR / f"{name}.json"
        if self.update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
            return
        if not path.exists():
            pytest.fail(
                f"golden snapshot {path} missing — run "
                f"`pytest --update-golden` and commit the result"
            )
        stored = json.loads(path.read_text())
        assert data == stored, (
            f"plan for {name!r} drifted from its golden snapshot "
            f"({path}); if the change is intended, rerun with "
            f"--update-golden and review the diff"
        )


@pytest.fixture
def golden(request: pytest.FixtureRequest) -> GoldenChecker:
    return GoldenChecker(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def corpus_kernels() -> dict[str, str]:
    """Name -> source of the 16 pinned kernels of ``benchmarks/perf``."""
    return {p.stem: p.read_text() for p in sorted(CORPUS_DIR.glob("*.dp"))}


@pytest.fixture(scope="session")
def corpus_edits() -> list[tuple[str, str, str]]:
    """``(kernel, edit class, source)`` of its 48 pinned single edits."""
    out = []
    for p in sorted((CORPUS_DIR / "edits").glob("*.dp")):
        kernel, edit_class = p.stem.split(".")
        out.append((kernel, edit_class, p.read_text()))
    return out


@pytest.fixture(scope="session")
def corpus_bases(corpus_kernels, corpus_edits) -> dict:
    """Kernel name -> its context solved to ``("plan", "distribution")``
    on 16 processors, for each kernel with pinned edits: the bases the
    edit workloads of ``benchmarks/perf`` replan against.  A replan
    never mutates its base, so the tests share them."""
    from repro.align.pipeline import plan_context
    from repro.lang.parser import parse
    from repro.passes import MachineSpec, Pipeline

    bases = {}
    for kernel in sorted({kernel for kernel, _, _ in corpus_edits}):
        ctx = plan_context(parse(corpus_kernels[kernel], name=kernel))
        ctx.put("machine", MachineSpec.of(16))
        bases[kernel] = Pipeline().run(ctx, goal=("plan", "distribution"))
    return bases


def reference_programs() -> list:
    """The 16 pinned kernels, their 48 edits, ``generate_corpus(14, 0)``
    and ``generate_corpus(40, 3)``, as ``(name, source)`` params: the
    inputs on which a fast path is compared with its test-only
    reference over whole programs."""
    from repro.lang.generate import generate_corpus

    out = [(p.stem, p.read_text()) for p in sorted(CORPUS_DIR.glob("*.dp"))]
    edits = sorted((CORPUS_DIR / "edits").glob("*.dp"))
    out += [(p.stem, p.read_text()) for p in edits]
    for n, seed in ((14, 0), (40, 3)):
        out += [
            (f"{sc.name}@corpus{n},{seed}", sc.source)
            for sc in generate_corpus(n, seed=seed)
        ]
    return [pytest.param(name, source, id=name) for name, source in out]


def _differential_programs() -> list:
    """The 12 paper fragments of ``lang/programs.py`` and seeds 5, 6 of
    every generator family, each as a zero-argument ``Program`` maker."""
    from repro.lang import programs
    from repro.lang.generate import FAMILIES, generate_scenario

    fragments = [
        programs.figure1, programs.figure4, programs.example1, programs.example2,
        programs.example3, programs.example5, programs.lookup_table,
        programs.stencil_sweep, programs.skewed_wavefront,
        programs.triangular_sections, programs.doubly_nested,
        programs.conditional_update,
    ]  # fmt: skip
    out = [pytest.param(fn, id=fn.__name__) for fn in fragments]
    for family in sorted(FAMILIES):
        for seed in (5, 6):
            sc = generate_scenario(seed, family=family)
            out.append(pytest.param(sc.parse, id=sc.name))
    return out


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    # A test that names ``make_program`` runs once per differential
    # program: a fast path is compared with its test-only reference
    # (LP rows, candidate propagation) on the same inputs everywhere.
    if "make_program" in metafunc.fixturenames:
        metafunc.parametrize("make_program", _differential_programs())


def evaluate(profile, dist, topology=None):
    """The scalar reference of a profile's price: exact modeled cost of
    ``dist`` walked record by record, which matches the executor's
    counts.  ``topology`` prices hops with the machine's interconnect
    metrics; ``None`` is the paper's L1 grid.  The planner prices the
    compiled front instead (``repro.distrib.vectorized.evaluate_front``).
    """
    from repro.distrib.costmodel import CostVector
    from repro.machine import Distribution
    from repro.topology import distribution_metrics

    if dist.rank != profile.template_rank:
        raise ValueError(
            f"distribution rank {dist.rank} != template rank "
            f"{profile.template_rank}"
        )
    metrics = None if topology is None else distribution_metrics(topology, dist)
    hops, moved = profile.fixed.hops, profile.fixed.moved
    for r in profile.records:
        sub = Distribution(tuple(dist.axes[t] for t in r.axes))
        sub_metrics = None if metrics is None else tuple(metrics[t] for t in r.axes)
        moved += int(np.sum(sub.moved_mask(r.src, r.dst))) * r.count
        hops += int(np.sum(sub.hop_distance(r.src, r.dst, sub_metrics))) * r.count
    return CostVector(hops, moved, profile.broadcast)


def axis_hops(profile, axis, axdist, metric=None) -> int:
    """Hops one template axis contributes under one axis scheme, walked
    record by record: the one-candidate reference the planner's front
    kernel (``repro.distrib.vectorized.axis_row_hops``) is checked
    against.  Every topology is separable — its hop distance decomposes
    over axes — which is what makes the search a per-axis argmin."""
    total = 0
    for r in profile.records:
        if axis in r.axes:
            j = r.axes.index(axis)
            d = axdist.processor_coordinate_distance(r.src[j], r.dst[j], metric)
            total += int(np.sum(d)) * r.count
    return total


def axis_candidates(lo, extent, nprocs) -> list:
    """The enumerator's rows for one template axis
    (``repro.distrib.enumerate.axis_rows``) as scheme records, in
    enumeration order: the candidates the scalar references price one
    at a time."""
    from repro.distrib.enumerate import axis_rows
    from repro.distrib.vectorized import _row_scheme

    return [_row_scheme(*row) for row in axis_rows(lo, extent, nprocs)]


def candidate_spaces(profile, nprocs, topology=None):
    """``repro.distrib.enumerate.row_spaces`` with every row as its
    scheme record: ``(grid shape, per-axis record lists)`` per grid the
    machine realizes."""
    from repro.distrib.enumerate import row_spaces
    from repro.distrib.vectorized import _row_scheme

    for grid, rows in row_spaces(profile, nprocs, topology):
        yield grid, [[_row_scheme(*row) for row in axis] for axis in rows]


def space_size(profile, nprocs, topology=None) -> int:
    """Candidate distributions the planner covers: the cross-product of
    each grid's per-axis rows, summed over the realizable grids."""
    from repro.distrib.enumerate import covered_size, row_spaces

    return covered_size(row_spaces(profile, nprocs, topology))


def axis_front_hops(profile, axis, cands, metrics=None):
    """``repro.distrib.vectorized.axis_row_hops`` on the rows of the
    scheme records ``cands``, one axis metric per record (``None``: the
    open L1 chain for all)."""
    from repro.distrib.vectorized import _axis_dist_params, axis_row_hops

    rows = np.array([_axis_dist_params(c) for c in cands], dtype=np.int64).reshape(-1, 4)
    runs = None if metrics is None else [(m, 1) for m in metrics]
    return axis_row_hops(profile, axis, rows, runs)


class ReferencePlanner:
    """``plan_distribution`` / ``rank_plans`` rebuilt on the scalar
    oracles only, the way the planner worked before it priced fronts and
    only the tied grids: per grid and per axis the first minimum of
    ``axis_hops`` over the enumerator's candidates, every grid's winner
    priced by ``evaluate``.  Shares nothing with
    ``repro.distrib.search`` or ``repro.distrib.vectorized``."""

    @staticmethod
    def grid_plans(profile, nprocs, topology=None) -> list:
        from repro.distrib.plan import DistributionPlan
        from repro.machine import Distribution

        covered = space_size(profile, nprocs, topology=topology)
        plans = []
        for grid, cands in candidate_spaces(profile, nprocs, topology=topology):
            metrics = [None] * len(grid) if topology is None else topology.metrics(grid)
            axes, hops_sum = [], 0
            for t, clist in enumerate(cands):
                hops = [axis_hops(profile, t, c, metrics[t]) for c in clist]
                axes.append(clist[hops.index(min(hops))])
                hops_sum += min(hops)
            dist = Distribution(tuple(axes))
            cost = evaluate(profile, dist, topology)
            # What lets the planner skip the grids above the minimum.
            assert cost.hops == profile.fixed.hops + hops_sum, grid
            plans.append(
                DistributionPlan(
                    tuple(axes),
                    cost,
                    True,
                    covered,
                    topology=None if topology is None else topology.spec(),
                )
            )
        return plans

    @classmethod
    def plan_distribution(cls, profile, nprocs, topology=None):
        return min(
            cls.grid_plans(profile, nprocs, topology),
            key=lambda pl: (pl.cost, pl.grid),
        )

    @classmethod
    def rank_plans(cls, profile, nprocs, k, topology=None) -> list:
        plans = cls.grid_plans(profile, nprocs, topology)
        plans.sort(key=lambda pl: (pl.cost, pl.grid))
        return [dataclasses.replace(pl, searched=len(plans)) for pl in plans[:k]]


@pytest.fixture(scope="session")
def reference_planner() -> type[ReferencePlanner]:
    return ReferencePlanner
