"""The replication fixpoint against the round loop it replaced.

``ReplicationFixpointPass`` compiles its labeler and its offset problem
once per run and re-solves only the axes a round changed.
:func:`reference_run`, the loop as it was before, labels afresh and
rebuilds every axis's LP every round.  On every corpus the two must
agree on the offsets, the replicated set, the rounds, convergence and
the plan facts, byte for byte.
"""

from __future__ import annotations

import pickle

import pytest

from repro.align.offset_mobile import solve_mobile_offsets
from repro.align.pipeline import plan_context, plan_facts
from repro.align.replication import label_replication
from repro.lang.generate import generate_corpus
from repro.lang.parser import parse
from repro.passes import MachineSpec, Pipeline
from repro.passes.align_passes import ReplicationFixpointPass


def reference_run(self, ctx) -> None:
    """``ReplicationFixpointPass.run`` with every round solved from
    scratch: a fresh labeling, a fresh offset problem, every axis."""
    opts = ctx.get("align_options")
    adg = ctx.get("adg")
    skel = ctx.get("skeletons")
    program = ctx.get("program")
    cap = opts.max_replication_rounds if opts.replication else 1
    seen = None
    offsets_in = None
    rounds = 0
    converged = False
    while rounds < cap and not converged:
        rounds += 1
        if opts.replication:
            replication = label_replication(adg, skel.skeletons, program, offsets_in)
            new_rep = replication.replicated_ports() | (seen or set())
        else:
            replication = label_replication(
                adg, skel.skeletons, program, None, minimal=True
            )
            new_rep = replication.replicated_ports()
        if new_rep != seen:
            offsets = solve_mobile_offsets(
                adg,
                skel.skeletons,
                opts.algorithm,
                replicated=new_rep,
                static=not opts.mobile,
                memo=ctx.memo,
                **opts.algorithm_kwargs,
            )
            offsets_in = offsets.offsets
        converged = new_rep == seen or not opts.replication
        seen = new_rep
    ctx.put("replication", replication)
    ctx.put("offsets", offsets)
    ctx.put("replicated", seen)
    ctx.put("replication_rounds", rounds)
    ctx.annotate(rounds=rounds, converged=converged)


def _outcome(prefix, reference: bool):
    ctx = prefix.fork()
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(ReplicationFixpointPass, "run", reference_run)
        Pipeline().run(ctx, goal=("plan", "distribution"))
    (event,) = [ev for ev in ctx.trace if ev["pass"] == "replication-offsets"]
    return (
        list(ctx.get("offsets").offsets.items()),
        ctx.get("replicated"),
        ctx.get("replication_rounds"),
        event["converged"],
        pickle.dumps(plan_facts(ctx)),
    )


def assert_fixpoint_is_the_reference(programs) -> None:
    for program in programs:
        # One axis/stride solution for both: the fixpoint is what differs.
        prefix = plan_context(program)
        prefix.put("machine", MachineSpec.of(16))
        Pipeline().run(prefix, goal="skeletons")
        got = _outcome(prefix, reference=False)
        want = _outcome(prefix, reference=True)
        assert got == want, program.name


class TestFixpointIsTheReference:
    def test_on_the_pinned_kernels(self, corpus_kernels):
        assert_fixpoint_is_the_reference(
            parse(src, name=name) for name, src in corpus_kernels.items()
        )

    def test_on_the_pinned_edits(self, corpus_edits):
        assert len(corpus_edits) == 48
        assert_fixpoint_is_the_reference(
            parse(src, name=f"{kernel}.{edit}") for kernel, edit, src in corpus_edits
        )

    @pytest.mark.parametrize("count, seed", [(14, 0), (40, 3)])
    def test_on_a_generated_corpus(self, count, seed):
        assert_fixpoint_is_the_reference(
            sc.parse() for sc in generate_corpus(count, seed)
        )
