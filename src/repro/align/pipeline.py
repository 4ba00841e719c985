"""The full alignment pipeline — the planning kernel over :mod:`repro.passes`.

Phases, in the paper's order (each one a registered pass):

1. build the ADG (Section 2.2);
2. axis + mobile stride alignment under the discrete metric (Section 3);
3. replication labeling by min-cut, iterated with
4. mobile offset alignment by RLP (Sections 4 and 5) until quiescence —
   the paper's resolution of the chicken-and-egg between replication
   (which needs to know which offsets are mobile) and offsets (which
   skip edges with replicated endpoints) — one pass of kind
   ``"fixpoint"``;
5. assembly of full per-port alignments and exact cost accounting;
6. *(optional, beyond the paper)* automatic distribution planning —
   the phase the paper defers — via :func:`align_and_distribute`,
   which attaches a :class:`repro.distrib.DistributionPlan`.

:func:`planning_records`, :func:`solve_prefix`, :func:`solve_suffix`
and :func:`plan_facts` are the planning kernel: the one way any driver
— :func:`align_program` and :func:`align_and_distribute` here,
:mod:`repro.batch`, :mod:`repro.serve`, the CLI — turns keywords into
option records, runs phases 1–5 (the machine-independent prefix) and
phase 6 (the machine-dependent suffix), and reads the result.  A caller
that sweeps machines solves the prefix once and hands
``solve_suffix`` a ``prefix.fork()`` per machine.

Every driver names its machine the one way, ``(nprocs, topology)``,
and :func:`machine_record` is the one place it is checked;
:func:`align_and_distribute` alone still reads the topology out of a
``distrib_options`` mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (distrib uses align)
    from ..distrib.plan import DistributionPlan

from ..adg.graph import ADG
from ..ir.affine import Scalar
from ..lang.ast import Program
from .axis_stride import AxisStrideResult
from .cost import AlignmentMap, EdgeCost, cost_breakdown
from .offset_mobile import MobileOffsetResult
from .position import Alignment
from .replication import ReplicationResult


class DistributionOptionsError(ValueError):
    """A machine no planner run could honour — a processor count that is
    not an ``int >= 1``, a finite topology whose size contradicts it — or
    one named in the wrong place: ``topology`` among the alignment
    keywords, or a key other than ``topology`` in
    :func:`align_and_distribute`'s ``distrib_options``.  Raised before
    anything is planned, instead of silently preferring one."""


@dataclass
class AlignmentPlan:
    """Everything the pipeline decided, plus cost accounting."""

    program: Program
    adg: ADG
    axis_stride: AxisStrideResult
    replication: Optional[ReplicationResult]
    offsets: MobileOffsetResult
    alignments: AlignmentMap
    total_cost: Scalar
    replication_rounds: int = 1
    distribution: Optional["DistributionPlan"] = None

    def source_alignments(self) -> dict[str, Alignment]:
        """Final alignment of each declared array (at its source port)."""
        from ..adg.nodes import NodeKind, SourcePayload

        out = {}
        for n in self.adg.nodes:
            if n.kind is NodeKind.SOURCE and isinstance(n.payload, SourcePayload):
                out[n.payload.array] = self.alignments[n.outputs()[0].key]
        return out

    def breakdown(self) -> list[EdgeCost]:
        return cost_breakdown(self.adg, self.alignments)

    def report(self) -> str:
        lines = [
            f"program {self.program.name}: total realignment cost {self.total_cost}",
            f"  axis/stride discrete cost: {self.axis_stride.cost}",
        ]
        for arr, al in sorted(self.source_alignments().items()):
            lines.append(f"  {arr}: {al!r}")
        nonzero = [ec for ec in self.breakdown() if ec.cost != 0]
        if nonzero:
            lines.append("  costed edges:")
            for ec in nonzero:
                lines.append(
                    f"    {ec.kind:10s} {str(ec.cost):>12s}  "
                    f"{ec.edge.tail.uid} -> {ec.edge.head.uid}"
                )
        if self.distribution is not None:
            lines.append(self.distribution.render())
        return "\n".join(lines)


def _seeded(program: Program, options):
    """A fresh context holding ``program`` and the frozen ``options``."""
    from ..passes import PlanContext

    ctx = PlanContext()
    ctx.put("program", program)
    ctx.put("align_options", options)
    return ctx


def plan_context(program: Program, **align_kw):
    """A :class:`~repro.passes.core.PlanContext` seeded for ``program``
    (``align_kw`` as for :func:`align_program`), not yet solved: for
    callers that drive a :class:`~repro.passes.core.Pipeline` by hand
    (tests, benchmarks).  Whatever wants a *plan* asks the kernel below.
    """
    return _seeded(program, planning_records(align_kw=align_kw)[0])


# -- the planning kernel ------------------------------------------------------


def planning_records(
    nprocs: Optional[int] = None,
    topology=None,
    align_kw: Optional[Mapping] = None,
):
    """``(AlignOptions, MachineSpec | None)`` from a driver's keywords:
    the two frozen records on either side of the prefix/suffix line.

    The one boundary where options are checked, before anything is
    planned — ``topology`` among the alignment keywords
    (:class:`DistributionOptionsError`), the machine by
    :func:`machine_record`, and the alignment options by
    :meth:`AlignOptions.of <repro.passes.AlignOptions.of>` (the
    ``ValueError`` / ``TypeError`` of
    :func:`~repro.align.offset_mobile.check_algorithm`, and a
    ``ValueError`` for a ``replication`` or ``mobile`` that is not a
    ``bool`` or a ``max_replication_rounds`` that is not an ``int >= 1``)
    — so nothing past it re-checks.  With neither ``nprocs`` nor a
    topology there is no machine: alignment only.
    """
    from ..passes import AlignOptions

    align_kw = align_kw or {}
    if "topology" in align_kw:
        raise DistributionOptionsError(
            f"topology passed among the alignment keywords {sorted(align_kw)}: "
            "it names the machine (topology=, or distrib_options= on "
            "align_and_distribute); the alignment metric is always the "
            "paper's L1 grid, so it would be silently ignored"
        )
    machine = None
    if nprocs is not None or topology is not None:
        machine = machine_record(nprocs, topology)
    return AlignOptions.of(**align_kw), machine


def machine_record(nprocs, topology):
    """The machine half of :func:`planning_records`, for a caller whose
    options are records already (the serve daemon, once per request).

    ``topology`` is a spec string or a live
    :class:`~repro.topology.Topology`.  Raises
    :class:`DistributionOptionsError` on an ``nprocs`` that is not an
    ``int >= 1`` (``None`` lets a finite topology fix it) and on a
    finite topology whose size contradicts ``nprocs``; the topology
    parser's ``ValueError`` on a bad spec; and a ``ValueError`` when
    nothing fixes a processor count.
    """
    from ..passes import MachineSpec

    if nprocs is not None and (type(nprocs) is not int or nprocs < 1):
        raise DistributionOptionsError(
            f"nprocs={nprocs!r} is not a processor count: give an int >= 1, "
            "or None with a finite topology"
        )
    machine = MachineSpec.of(nprocs, topology)
    topo = machine.topology_object()
    count = machine.resolved_nprocs(topo)  # raises when nothing fixes one
    if topo is not None and topo.shape and topo.nprocs != count:
        raise DistributionOptionsError(
            f"topology {machine.topology!r} is a {topo.nprocs}-processor "
            f"machine but nprocs={nprocs} was requested; make the two agree "
            "(or drop one)"
        )
    return machine


def explain_plan(machine: bool = False, delta=None) -> str:
    """The pass graph a plan with these stages runs (``--explain``);
    ``delta`` adds a replan's dirty/clean column."""
    from ..passes import Pipeline

    goal = ("plan",) + ("distribution",) * machine
    return Pipeline().explain(goal, delta)


def solve_prefix(
    program: Program,
    options,
    *,
    base=None,
    profile: bool = True,
):
    """Run the machine-independent passes for ``program``.

    Returns a context solved to ``plan`` — and to ``profile``, which the
    suffix starts from, unless the caller wants the alignment only.  It
    pickles: the serve daemon's pool ships it back from a cold miss, and
    its cache keeps it.

    With ``base`` (a solved context of the program this one is an edit
    of, under the same options) the prefix is re-planned incrementally
    (:func:`repro.passes.delta.replan`) and the ``DeltaReport`` is
    returned beside the context.
    """
    from ..passes import Pipeline, content_fingerprint, replan

    goal = ("plan", "profile") if profile else ("plan",)
    if base is None:
        return Pipeline().run(_seeded(program, options), goal=goal)
    if content_fingerprint(options) != base.artifact("align_options").fingerprint:
        raise ValueError(
            "solve_prefix: options differ from the base context's "
            "align_options; plan cold (base=None) instead"
        )
    if base.has("distribution"):
        # A base solved past the prefix (the CLI's) is re-planned as far,
        # on its own machine, so the report covers ``distribute`` too.
        goal += ("distribution",)
    return replan(base, program=program, goal=goal)


def solve_suffix(ctx, machine):
    """Put ``machine`` on ``ctx`` and run the machine-dependent passes.

    ``ctx`` is solved in place and returned: a caller that keeps its
    prefix (one program on many machines, the serve cache) passes
    ``prefix.fork()``.  The goal
    is the program's distribution.
    """
    from ..passes import Pipeline

    ctx.put("machine", machine)
    return Pipeline().run(ctx, goal=("plan", "distribution"))


def plan_facts(ctx) -> dict:
    """What a solved context decided, rendered the one way.

    ``total_cost`` is the equation-1 realignment cost as an exact
    ``Fraction`` string, ``alignments`` each declared array's source-port
    alignment (sorted), the other four the chosen distribution (``None``
    on a context solved for alignment only).  Key order and value types
    are the serve cache's on-disk payload format.
    """
    plan = ctx.get("plan")
    dplan = ctx.get("distribution") if ctx.has("distribution") else None
    return {
        "total_cost": str(ctx.get("total_cost")),
        "alignments": {
            arr: repr(al) for arr, al in sorted(plan.source_alignments().items())
        },
        "distribution": None if dplan is None else dplan.directive(),
        "hops": None if dplan is None else dplan.cost.hops,
        "moved": None if dplan is None else dplan.cost.moved,
        "exact": None if dplan is None else dplan.exact,
    }


def align_program(program: Program, **align_kw) -> AlignmentPlan:
    """Run the complete alignment analysis on a program.

    ``align_kw`` are the keywords of
    :meth:`repro.passes.AlignOptions.of`: ``algorithm`` selects the
    Section 4.2 mobile-offset algorithm (its own keywords, e.g. ``m``,
    ride along); ``mobile=False`` computes the best *static* alignment
    baseline (program variables pinned, derived positions still track
    sections); ``replication=False`` disables Section 5 labeling (every
    port N); ``max_replication_rounds`` as named.
    """
    options, _ = planning_records(align_kw=align_kw)
    return solve_prefix(program, options, profile=False).get("plan")


def align_and_distribute(
    program: Program,
    nprocs: int,
    distrib_options: Optional[Mapping] = None,
    **align_kw,
) -> AlignmentPlan:
    """Alignment plus the paper's deferred phase: distribution planning.

    Plans ``program`` for ``nprocs`` processors and attaches the chosen
    :class:`~repro.distrib.plan.DistributionPlan` to the returned plan
    (``plan.distribution``); ``distrib_options`` may name the machine's
    ``topology`` (a spec string or a live topology), and nothing else.

    Raises :class:`DistributionOptionsError` for any other
    ``distrib_options`` key and as :func:`planning_records` does — a
    ``topology`` among ``align_kw``, a bad ``nprocs``, a finite topology
    whose size contradicts it.
    """
    distrib_options = dict(distrib_options or {})
    topology = distrib_options.pop("topology", None)
    if distrib_options:
        raise DistributionOptionsError(
            f"unknown distribution option(s) {sorted(distrib_options)} in "
            "distrib_options; it takes only 'topology', and alignment "
            "options are keywords of align_and_distribute"
        )
    options, machine = planning_records(nprocs, topology, align_kw)
    ctx = solve_suffix(solve_prefix(program, options), machine)
    plan = ctx.get("plan")
    plan.distribution = ctx.get("distribution")
    return plan
