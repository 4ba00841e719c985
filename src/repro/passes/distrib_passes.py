"""The machine-dependent pipeline suffix: profiling and distribution.

:class:`CommProfilePass` is the last machine-*independent* stage — the
compiled :class:`~repro.distrib.costmodel.CommProfile` holds template
coordinates, not processor assignments, so one profile prices any
machine.  Everything downstream depends on the ``machine`` artifact
(:class:`MachineSpec`); replacing only that artifact on a forked
context re-executes exactly these passes, which is what makes topology
and processor-count sweeps cheap.

The machine crosses process boundaries as a *spec string* (the
:mod:`repro.topology` convention), so a :class:`MachineSpec` — like
every other artifact on the context — pickles cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..distrib.costmodel import build_profile
from ..distrib.search import plan_distribution
from .core import Pass, PlanContext


@dataclass(frozen=True)
class MachineSpec:
    """The target machine as one frozen artifact.

    ``nprocs`` may be ``None`` when a finite topology implies it;
    ``topology`` is either a spec string (``"torus:4x4"``, ... — the
    picklable, content-fingerprintable form every cross-process caller
    uses) or a live :class:`~repro.topology.Topology` object (honored
    as-is, so custom implementations outside the spec table keep
    working in-process; ``None`` is the paper's unbounded L1 grid).
    Those two fields are the whole machine: the planner's candidate
    block sizes are the constant
    :data:`~repro.distrib.enumerate.DEFAULT_BLOCK_SIZES`.
    """

    nprocs: Optional[int] = None
    topology: Any = None  # None | spec str | Topology object

    @classmethod
    def of(cls, nprocs: Optional[int] = None, topology: Any = None) -> "MachineSpec":
        return cls(nprocs, topology)

    def topology_object(self):
        if self.topology is None or not isinstance(self.topology, str):
            return self.topology  # None, or a live Topology: as-is
        from ..topology import parse_topology

        return parse_topology(self.topology)

    def resolved_nprocs(self, topo=None) -> int:
        """The processor count, taking it from a finite topology if the
        spec leaves it implicit."""
        topo = topo if topo is not None else self.topology_object()
        if self.nprocs is not None:
            return self.nprocs
        if topo is not None and topo.shape:
            return topo.nprocs
        raise ValueError(
            f"machine {self} fixes no processor count: give nprocs or a "
            "finite topology"
        )


class CommProfilePass(Pass):
    name = "comm-profile"
    requires = ("adg", "alignments")
    provides = ("profile",)

    def run(self, ctx: PlanContext) -> None:
        ctx.put(
            "profile",
            build_profile(ctx.get("adg"), ctx.get("alignments"), ctx.memo),
        )


class DistributePass(Pass):
    """The program-level distribution search (the paper's deferred phase
    2): grid factorization × per-axis HPF scheme, an exact per-axis
    argmin over every grid, priced on the machine's interconnect."""

    name = "distribute"
    requires = ("profile", "machine")
    provides = ("distribution",)

    def run(self, ctx: PlanContext) -> None:
        machine: MachineSpec = ctx.get("machine")
        topo = machine.topology_object()
        ctx.put(
            "distribution",
            plan_distribution(
                ctx.get("profile"),
                machine.resolved_nprocs(topo),
                topology=topo,
            ),
        )
