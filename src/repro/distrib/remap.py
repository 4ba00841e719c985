"""Redistribution planning across program phases.

A single distribution rarely suits a whole program: a phase that sweeps
rows wants the rows' axis kept local, the next phase may want the
opposite.  Changing distribution between phases costs a *remap* — every
occupied template cell whose owner changes must be shipped.  This module
prices those remap edges and solves the classic phase-chain problem:

    minimize  sum_i cost(phase_i, d_i) + sum_i remap(d_i, d_{i+1})

by dynamic programming over a small candidate set of distributions per
phase: the best :data:`PHASE_CANDIDATES` of
:func:`repro.distrib.search.rank_plans`.

Phases are taken to be the top-level statements of a program (each loop
nest is one phase); :func:`split_phases` builds one sub-program per
statement so that each phase is aligned and profiled independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..lang.ast import Program
from ..machine.distribution import Distribution
from ..topology import Topology
from .costmodel import CommProfile, CostVector
from .plan import DistributionPlan
from .search import rank_plans

#: Candidate distributions per phase: the top-k the phase-chain DP picks from.
PHASE_CANDIDATES = 4


def split_phases(program: Program) -> list[Program]:
    """One sub-program per top-level statement, sharing the declarations."""
    return [
        Program(program.decls, (stmt,), f"{program.name}[{i}]")
        for i, stmt in enumerate(program.body)
    ]


def union_window(
    profiles: Sequence[CommProfile],
) -> tuple[tuple[int, int], ...]:
    """Per-axis bounds covering every phase's occupied cells."""
    if not profiles:
        raise ValueError("need at least one phase profile")
    rank = profiles[0].template_rank
    if any(p.template_rank != rank for p in profiles):
        raise ValueError("phase profiles disagree on template rank")
    return tuple(
        (
            min(p.window[t][0] for p in profiles),
            max(p.window[t][1] for p in profiles),
        )
        for t in range(rank)
    )


def remap_cost(
    window: Sequence[tuple[int, int]],
    src: Distribution,
    dst: Distribution,
    topology: Topology | None = None,
) -> CostVector:
    """Cost of redistributing every cell of ``window`` from src to dst.

    Vectorized over the full cell window: an element moves when any
    axis changes its processor coordinate; hops are the interconnect
    distance (``topology=None``: the paper's L1 grid).  This
    over-approximates (empty cells own no data) exactly the way the
    executor's window does — consistently for all candidates, so
    comparisons are fair.
    """
    # Candidate distributions may sit on different logical grid shapes,
    # so remaps are priced on the machine's *physical* axis extents —
    # one metric set for every candidate pair, keeping the DP fair.
    metrics = (
        None
        if topology is None
        else topology.metrics((None,) * src.rank)
    )
    extents = tuple(hi - lo + 1 for lo, hi in window)
    grids = np.indices(extents)
    coords = [g + lo for g, (lo, _) in zip(grids, window)]
    src_procs = src.map_cells(coords)
    dst_procs = dst.map_cells(coords)
    moved = None
    hops = None
    for t, (sp, dp) in enumerate(zip(src_procs, dst_procs)):
        m = sp != dp
        h = np.abs(sp - dp) if metrics is None else metrics[t].hops(sp, dp)
        moved = m if moved is None else (moved | m)
        hops = h if hops is None else hops + h
    assert moved is not None and hops is not None
    return CostVector(hops=int(hops.sum()), moved=int(moved.sum()))


@dataclass
class PhaseChoice:
    """One phase's chosen distribution plus the remap that precedes it."""

    name: str
    plan: DistributionPlan
    remap_in: CostVector = CostVector()


@dataclass
class PhasedPlan:
    """A distribution per phase with costed remap edges between them."""

    phases: list[PhaseChoice] = field(default_factory=list)

    @property
    def phase_cost(self) -> int:
        return sum(c.plan.cost.hops for c in self.phases)

    @property
    def remap_cost(self) -> int:
        return sum(c.remap_in.hops for c in self.phases)

    @property
    def total_hops(self) -> int:
        return self.phase_cost + self.remap_cost

    def render(self) -> str:
        lines = [
            f"phased distribution plan: {len(self.phases)} phase(s), "
            f"total hops {self.total_hops} "
            f"(phases {self.phase_cost} + remaps {self.remap_cost})"
        ]
        for i, c in enumerate(self.phases):
            if i and (c.remap_in.hops or c.remap_in.moved):
                lines.append(
                    f"  -- remap: hops={c.remap_in.hops} "
                    f"moved={c.remap_in.moved}"
                )
            elif i:
                lines.append("  -- remap: none (distribution unchanged)")
            lines.append(f"  {c.name}: {c.plan.directive()} "
                         f"[hops={c.plan.cost.hops}]")
        return "\n".join(lines)


def plan_phase_sequence(
    profiles: Sequence[tuple[str, CommProfile]],
    nprocs: int,
    topology: Topology | None = None,
) -> PhasedPlan:
    """DP over the phase chain with costed remap edges.

    ``profiles`` is an ordered list of (phase name, profile).  Each
    phase contributes its :data:`PHASE_CANDIDATES` best candidate
    distributions; the DP picks one per phase minimizing phase hops plus
    remap hops, both priced on ``topology`` (default: the L1 grid
    machine).
    """
    if not profiles:
        raise ValueError("need at least one phase")
    window = union_window([p for _, p in profiles])
    # Candidates are sized over the union window so that a remap over
    # any cell is within every candidate distribution's covered range.
    cand: list[list[DistributionPlan]] = [
        rank_plans(p, nprocs, k=PHASE_CANDIDATES, window=window, topology=topology)
        for _, p in profiles
    ]
    dists = [[pl.to_distribution() for pl in plans] for plans in cand]
    n = len(profiles)
    # dp[i][c]: best total hops for phases[0..i] ending in candidate c.
    dp: list[list[int]] = [[pl.cost.hops for pl in cand[0]]]
    back: list[list[int]] = [[-1] * len(cand[0])]
    remaps: dict[tuple[int, int, int], CostVector] = {}
    for i in range(1, n):
        row: list[int] = []
        brow: list[int] = []
        for ci, pl in enumerate(cand[i]):
            best_val = None
            best_prev = -1
            for pi in range(len(cand[i - 1])):
                rc = remaps.get((i, pi, ci))
                if rc is None:
                    rc = remap_cost(
                        window, dists[i - 1][pi], dists[i][ci], topology
                    )
                    remaps[(i, pi, ci)] = rc
                val = dp[i - 1][pi] + rc.hops + pl.cost.hops
                if best_val is None or val < best_val:
                    best_val = val
                    best_prev = pi
            assert best_val is not None
            row.append(best_val)
            brow.append(best_prev)
        dp.append(row)
        back.append(brow)
    # backtrack
    last = min(range(len(cand[-1])), key=dp[-1].__getitem__)
    chosen = [0] * n
    chosen[-1] = last
    for i in range(n - 1, 0, -1):
        chosen[i - 1] = back[i][chosen[i]]
    out = PhasedPlan()
    for i, (name, _) in enumerate(profiles):
        remap_in = CostVector()
        if i:
            remap_in = remaps[(i, chosen[i - 1], chosen[i])]
        out.phases.append(PhaseChoice(name, cand[i][chosen[i]], remap_in))
    return out


def plan_program_phases(
    program: Program,
    nprocs: int,
    align_kw: dict | None = None,
    topology: Topology | None = None,
) -> PhasedPlan:
    """Convenience driver: split, align and profile each phase, then DP.

    Single-statement programs degenerate to one phase with no remaps —
    the same answer as :func:`repro.distrib.search.plan_distribution`.

    The phase goal of the planning kernel
    (:func:`repro.align.pipeline.solve_suffix` with ``phases=True``): the
    per-phase profiles are a machine-independent artifact, so sweeping
    machines over a forked context re-runs only the phase-chain DP.
    """
    from ..align.pipeline import machine_record, plan_context, solve_suffix

    ctx = plan_context(program, **(align_kw or {}))
    machine = machine_record(nprocs, topology)
    return solve_suffix(ctx, machine, phases=True).get("phase_plan")
