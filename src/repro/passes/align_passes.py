"""The paper's alignment phases, registered as pipeline passes.

One pass per phase, in the paper's order: typecheck → ADG build
(Section 2.2) → axis/stride labeling (Section 3) → the replication ↔
mobile-offset fixpoint (Sections 4–6) → assembly + exact cost
accounting.  Every pass here is machine-independent: a topology or
processor-count sweep reuses all of them and re-executes only the
distribution suffix (:mod:`repro.passes.distrib_passes`).

The fixpoint is one pass of kind ``"fixpoint"``: labels accumulate
monotonically (once replication is justified by a mobile offset,
dropping the offset's cost must not un-justify it), so the iteration
terminates — at quiescence or at the configured round cap, both
recorded in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..adg.build import build_adg
from ..align.axis_stride import solve_axis_stride
from ..align.cost import assemble_alignments, total_cost
from ..align.offset_mobile import check_algorithm, solve_mobile_offsets
from ..align.offset_static import OffsetProblem
from ..align.replication import ReplicationLabeler
from ..lang.typecheck import typecheck
from .core import Pass, PlanContext


@dataclass(frozen=True)
class AlignOptions:
    """Frozen alignment configuration — one artifact, stable fingerprint.

    Mirrors the keyword surface of :func:`repro.align.align_program`;
    ``alg_kw`` holds the algorithm-specific keywords (e.g. ``m`` for
    fixed partitioning) as a sorted item tuple so the whole record is
    hashable and its repr is content-stable.  :meth:`of` checks the
    algorithm and its keywords against
    :data:`~repro.align.offset_mobile.ALGORITHMS`, ``replication`` and
    ``mobile`` for a ``bool`` and ``max_replication_rounds`` and ``m``
    (fixed partitioning's subranges) for an ``int >= 1``, so a record
    that exists names a plan that runs, and one plan has one record.
    """

    algorithm: str = "fixed"
    replication: bool = True
    mobile: bool = True
    max_replication_rounds: int = 3
    alg_kw: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(
        cls,
        algorithm: str = "fixed",
        replication: bool = True,
        mobile: bool = True,
        max_replication_rounds: int = 3,
        **alg_kw: Any,
    ) -> "AlignOptions":
        check_algorithm(algorithm, alg_kw)
        for key, value in (("replication", replication), ("mobile", mobile)):
            if type(value) is not bool:
                raise ValueError(
                    f"{key}={value!r} is not a switch: give True or False"
                )
        rounds = max_replication_rounds
        if type(rounds) is not int or rounds < 1:
            raise ValueError(
                f"max_replication_rounds={rounds!r} is not a round cap: "
                "give an int >= 1"
            )
        m = alg_kw.get("m", 1)
        if type(m) is not int or m < 1:
            raise ValueError(f"m={m!r} is not a subrange count: give an int >= 1")
        return cls(
            algorithm,
            replication,
            mobile,
            max_replication_rounds,
            tuple(sorted(alg_kw.items())),
        )

    @property
    def algorithm_kwargs(self) -> dict[str, Any]:
        return dict(self.alg_kw)


class TypecheckPass(Pass):
    name = "typecheck"
    requires = ("program",)
    provides = ("typeinfo",)

    def run(self, ctx: PlanContext) -> None:
        ctx.put("typeinfo", typecheck(ctx.get("program")))


class BuildADGPass(Pass):
    name = "build-adg"
    requires = ("program", "typeinfo")
    provides = ("adg",)

    def run(self, ctx: PlanContext) -> None:
        ctx.put("adg", build_adg(ctx.get("program"), ctx.get("typeinfo")))


class AxisStridePass(Pass):
    name = "axis-stride"
    requires = ("adg",)
    provides = ("skeletons",)

    def run(self, ctx: PlanContext) -> None:
        ctx.put("skeletons", solve_axis_stride(ctx.get("adg")))


class ReplicationFixpointPass(Pass):
    """Sections 4–6: replication labeling ↔ mobile offsets to quiescence.

    The loop stops when a round leaves the replicated set as it was, or
    after ``max_replication_rounds`` rounds (the paper's quiescence
    loops are all iteration-capped, so hitting the cap is a valid,
    terminating outcome, recorded as ``converged=False`` in the trace).
    With ``replication=False`` the loop degenerates to one round of
    forced labels only (spread inputs R) — the paper's no-optimization
    baseline — followed by a single offset solve.

    The labeler and the offset problem are compiled once per run, so a
    round re-pins only the read-only carriers its offsets made mobile,
    and re-solves only the axes whose costed edges its replicated set
    changed.
    """

    name = "replication-offsets"
    kind = "fixpoint"
    requires = ("program", "adg", "skeletons", "align_options")
    provides = ("replication", "offsets", "replicated", "replication_rounds")

    def run(self, ctx: PlanContext) -> None:
        opts: AlignOptions = ctx.get("align_options")
        adg = ctx.get("adg")
        skel = ctx.get("skeletons")
        program = ctx.get("program")
        cap = opts.max_replication_rounds if opts.replication else 1
        # Compiled once for the whole run, and dropped with it: the
        # labeler's fixed pins and capacities, the offset problem's rows
        # and each axis's answer under the costed edges it has seen.
        # With replication=False the loop is one round of forced labels
        # only (spread inputs R), the no-optimization baseline.
        labeler = ReplicationLabeler(
            adg, skel.skeletons, program, minimal=not opts.replication
        )
        problem = OffsetProblem(adg, skel.skeletons, static=not opts.mobile)
        seen = None
        offsets_in = None  # feeds the next labeling round
        rounds = 0
        converged = False
        while rounds < cap and not converged:
            rounds += 1
            replication = labeler.solve(offsets_in)
            new_rep = replication.replicated_ports()
            if opts.replication:
                new_rep |= seen or set()
            # The offset problem is a function of the replicated set
            # alone, and ``seen`` only grows: the converged round would
            # re-solve exactly the previous round's problem, so it keeps
            # that answer.  (Round one has ``seen is None``, so it always
            # solves.)
            converged = new_rep == seen or not opts.replication
            if new_rep != seen:
                offsets = solve_mobile_offsets(
                    adg,
                    skel.skeletons,
                    opts.algorithm,
                    replicated=new_rep,
                    static=not opts.mobile,
                    memo=ctx.memo,
                    problem=problem,
                    **opts.algorithm_kwargs,
                )
                offsets_in = offsets.offsets
                seen = new_rep
        ctx.put("replication", replication)
        ctx.put("offsets", offsets)
        ctx.put("replicated", seen)
        ctx.put("replication_rounds", rounds)
        ctx.annotate(rounds=rounds, converged=converged)


class AssemblePass(Pass):
    """Combine skeletons, offsets and replication labels into full
    per-port alignments, price every edge exactly (equation 1), and wrap
    the result as the public :class:`~repro.align.pipeline.AlignmentPlan`."""

    name = "assemble"
    requires = (
        "program",
        "adg",
        "skeletons",
        "replication",
        "offsets",
        "replicated",
        "replication_rounds",
    )
    provides = ("alignments", "total_cost", "plan")

    def run(self, ctx: PlanContext) -> None:
        from ..align.pipeline import AlignmentPlan

        adg = ctx.get("adg")
        skel = ctx.get("skeletons")
        offsets = ctx.get("offsets")
        replicated = ctx.get("replicated")
        alignments = assemble_alignments(
            adg, skel.skeletons, offsets.offsets, replicated
        )
        cost = total_cost(adg, alignments)
        ctx.put("alignments", alignments)
        ctx.put("total_cost", cost)
        ctx.put(
            "plan",
            AlignmentPlan(
                ctx.get("program"),
                adg,
                skel,
                ctx.get("replication"),
                offsets,
                alignments,
                cost,
                replication_rounds=ctx.get("replication_rounds"),
            ),
        )
