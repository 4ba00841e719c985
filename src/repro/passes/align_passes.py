"""The paper's alignment phases, registered as pipeline passes.

One pass per phase, in the paper's order: typecheck → ADG build
(Section 2.2) → axis/stride labeling (Section 3) → the replication ↔
mobile-offset fixpoint (Sections 4–6) → assembly + exact cost
accounting.  Every pass here is machine-independent: a topology or
processor-count sweep reuses all of them and re-executes only the
distribution suffix (:mod:`repro.passes.distrib_passes`).

The fixpoint is an explicit :class:`~repro.passes.core.FixpointPass`:
labels accumulate monotonically (once replication is justified by a
mobile offset, dropping the offset's cost must not un-justify it), so
the iteration terminates — at quiescence or at the configured round
cap, both recorded in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..adg.build import build_adg
from ..align.axis_stride import solve_axis_stride
from ..align.cost import assemble_alignments, total_cost
from ..align.offset_mobile import check_algorithm, solve_mobile_offsets
from ..align.replication import label_replication
from ..lang.typecheck import typecheck
from .core import FixpointPass, Pass, PlanContext


@dataclass(frozen=True)
class AlignOptions:
    """Frozen alignment configuration — one artifact, stable fingerprint.

    Mirrors the keyword surface of :func:`repro.align.align_program`;
    ``alg_kw`` holds the algorithm-specific keywords (e.g. ``m`` for
    fixed partitioning) as a sorted item tuple so the whole record is
    hashable and its repr is content-stable.  :meth:`of` checks the
    algorithm and its keywords against
    :data:`~repro.align.offset_mobile.ALGORITHMS`, so a record that
    exists names an algorithm that runs.
    """

    algorithm: str = "fixed"
    # HiGHS is the only LP solver; the field stays because it is part of
    # the record's content fingerprint, hence of every serve-cache key
    # and of tests/golden/fingerprints.json.  No caller can set it, and
    # it goes with the next cache SCHEMA_VERSION bump.
    backend: str = field(default="scipy", init=False)
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


@dataclass
class _FixpointState:
    """Carries the loop state of the replication ↔ offset iteration."""

    seen: Optional[set[tuple[str, int]]] = None
    offsets_in: Optional[dict] = None  # feeds the next labeling round
    replication: Any = None
    offsets: Any = None
    replicated: set[tuple[str, int]] = field(default_factory=set)


class ReplicationFixpointPass(FixpointPass):
    """Sections 4–6: replication labeling ↔ mobile offsets to quiescence.

    With ``replication=False`` the loop degenerates to one round of
    forced labels only (spread inputs R) — the paper's no-optimization
    baseline — followed by a single offset solve.
    """

    name = "replication-offsets"
    requires = ("program", "adg", "skeletons", "align_options")
    provides = ("replication", "offsets", "replicated", "replication_rounds")

    def max_rounds(self, ctx: PlanContext) -> int:
        opts: AlignOptions = ctx.get("align_options")
        return opts.max_replication_rounds if opts.replication else 1

    def init(self, ctx: PlanContext) -> _FixpointState:
        return _FixpointState()

    def step(
        self, ctx: PlanContext, state: _FixpointState, rounds: int
    ) -> tuple[_FixpointState, bool]:
        opts: AlignOptions = ctx.get("align_options")
        adg = ctx.get("adg")
        skel = ctx.get("skeletons")
        program = ctx.get("program")
        if opts.replication:
            state.replication = label_replication(
                adg, skel.skeletons, program, state.offsets_in
            )
            new_rep = state.replication.replicated_ports() | (state.seen or set())
        else:
            # One round, forced labels only.
            state.replication = label_replication(
                adg, skel.skeletons, program, None, minimal=True
            )
            new_rep = state.replication.replicated_ports()
        converged = new_rep == state.seen
        # The offset problem is a function of the replicated set alone,
        # and ``seen`` only grows: the converged round would re-solve
        # exactly the previous round's problem, so it keeps that answer.
        # (Round one has ``seen is None``, so it always solves.)
        if not converged:
            state.offsets = solve_mobile_offsets(
                adg,
                skel.skeletons,
                opts.algorithm,
                replicated=new_rep,
                static=not opts.mobile,
                memo=ctx.memo,
                **opts.algorithm_kwargs,
            )
            state.offsets_in = state.offsets.offsets
        state.seen = new_rep
        state.replicated = new_rep
        return state, converged or not opts.replication

    def finish(
        self, ctx: PlanContext, state: _FixpointState, rounds: int
    ) -> None:
        ctx.put("replication", state.replication)
        ctx.put("offsets", state.offsets)
        ctx.put("replicated", state.replicated)
        ctx.put("replication_rounds", rounds)


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
