"""Staged planning pipeline: the paper's phases as one chain of passes.

The phases that used to be hardwired in ``align_program`` — ADG build,
axis/stride labeling, the replication ↔ mobile-offset fixpoint,
assembly, and the deferred distribution phase — are :class:`Pass`
instances with explicit ``requires``/``provides`` artifact contracts,
chained in the paper's order in :data:`PASSES`.  A :class:`Pipeline`
runs the chain up to the last pass that provides a goal, traces and
times every pass, and reuses artifacts whose inputs are unchanged, so
machine sweeps re-execute only the machine-dependent suffix against a
shared aligned prefix::

    from repro.passes import MachineSpec, Pipeline, PlanContext, AlignOptions

    ctx = PlanContext()
    ctx.put("program", program)
    ctx.put("align_options", AlignOptions.of())
    pipe = Pipeline()
    pipe.run(ctx, goal="profile")            # machine-independent prefix
    for spec in ("torus:4x4", "ring:16", "hypercube:16"):
        sub = ctx.fork()                     # shares the solved prefix
        sub.put("machine", MachineSpec.of(topology=spec))
        pipe.run(sub, goal="distribution")   # suffix only: prefix reused

Driving a :class:`Pipeline` by hand like this is for tests and
benchmarks.  Whatever wants a *plan* asks the planning kernel in
:mod:`repro.align.pipeline` (``planning_records`` / ``solve_prefix`` /
``solve_suffix`` / ``plan_facts``), which runs exactly this recipe; a
pipeline keeps no state — what ran is on ``ctx.trace``.
"""

from .align_passes import (
    AlignOptions,
    AssemblePass,
    AxisStridePass,
    BuildADGPass,
    ReplicationFixpointPass,
    TypecheckPass,
)
from .core import (
    Artifact,
    MissingArtifactError,
    Pass,
    Pipeline,
    PipelineError,
    PlanContext,
    content_fingerprint,
    trace_table,
)
from .delta import (
    DeltaReport,
    ProgramDiff,
    diff_programs,
    replan,
    statement_key,
)
from .distrib_passes import CommProfilePass, DistributePass, MachineSpec
from .registry import PASSES

__all__ = [
    "AlignOptions",
    "Artifact",
    "AssemblePass",
    "AxisStridePass",
    "BuildADGPass",
    "CommProfilePass",
    "DeltaReport",
    "DistributePass",
    "MachineSpec",
    "MissingArtifactError",
    "PASSES",
    "Pass",
    "Pipeline",
    "PipelineError",
    "PlanContext",
    "ProgramDiff",
    "ReplicationFixpointPass",
    "TypecheckPass",
    "content_fingerprint",
    "diff_programs",
    "replan",
    "statement_key",
    "trace_table",
]
