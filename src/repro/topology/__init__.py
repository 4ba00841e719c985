"""Topology-aware machine models: pluggable interconnects.

The paper prices every data movement with the L1 grid metric; this
subsystem turns that one hardwired machine into a family of them.  A
:class:`Topology` supplies vectorized per-axis hop metrics for any
logical processor grid, so the same planner, cost model and simulator
price communication on meshes, tori, rings, hypercubes and hierarchical
node/cluster fabrics without forking any planning code.

Quickstart::

    from repro import align_program, parse
    from repro.topology import parse_topology
    from repro.distrib import build_profile, plan_distribution

    plan = align_program(parse(src))
    profile = build_profile(plan.adg, plan.alignments)
    machine = parse_topology("hypercube:16")
    dplan = plan_distribution(profile, machine.nprocs, topology=machine)
"""

from .models import (
    AxisMetric,
    GridTopology,
    HammingAxis,
    HierarchicalTopology,
    HypercubeTopology,
    LinearAxis,
    RingAxis,
    RingTopology,
    Topology,
    TorusTopology,
    TwoLevelAxis,
    distribution_metrics,
)
from .registry import (
    DEFAULT_HIER_COST,
    default_topology,
    parse_topology,
    topology_kinds,
)

__all__ = [
    "AxisMetric",
    "LinearAxis",
    "RingAxis",
    "HammingAxis",
    "TwoLevelAxis",
    "Topology",
    "GridTopology",
    "TorusTopology",
    "RingTopology",
    "HypercubeTopology",
    "HierarchicalTopology",
    "distribution_metrics",
    "DEFAULT_HIER_COST",
    "default_topology",
    "parse_topology",
    "topology_kinds",
]
