"""The pass chain: goals, reuse, the fixpoint, wrappers.

Covers the :mod:`repro.passes` core against the paper programs: the
prefix of the chain each goal runs, missing-artifact diagnostics,
fixpoint termination, the prefix-reuse guarantee (object identity
across a machine sweep), wrapper equivalence with the staged pipeline,
and pickling of context prefixes — the property the serve daemon's
worker pool and prefix cache are built on.
"""

import dataclasses
import enum
import pickle
from fractions import Fraction
from typing import Any, ClassVar, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerprint_reference import reference_fingerprint, reference_repr
from repro.align import (
    DistributionOptionsError,
    align_and_distribute,
    align_program,
    solve_mobile_offsets,
)
from repro.align.offset_mobile import ALGORITHMS
from repro.align.pipeline import (
    plan_context,
    planning_records,
    solve_prefix,
    solve_suffix,
)
from repro.ir.affine import AffineForm
from repro.ir.symbols import LIV
from repro.lang import parse, programs
from repro.passes import (
    PASSES,
    AlignOptions,
    AssemblePass,
    MachineSpec,
    MissingArtifactError,
    Pipeline,
    PipelineError,
    PlanContext,
    content_fingerprint,
)
from repro.passes.core import _stable_repr


CHAIN = (
    "typecheck",
    "build-adg",
    "axis-stride",
    "replication-offsets",
    "assemble",
    "comm-profile",
    "distribute",
)
#: Each producible artifact → how many passes of the chain a goal of it
#: runs (its provider is the last of them).
PREFIX_FOR = {
    "typeinfo": 1,
    "adg": 2,
    "skeletons": 3,
    "replication": 4,
    "offsets": 4,
    "replicated": 4,
    "replication_rounds": 4,
    "alignments": 5,
    "total_cost": 5,
    "plan": 5,
    "profile": 6,
    "distribution": 7,
}


def _fresh_context():
    ctx = plan_context(programs.example1())
    ctx.put("machine", MachineSpec.of(4))
    return ctx


class TestGoals:
    def test_each_pass_requires_what_the_one_before_provides(self):
        # Why the prefix ending at a goal's provider is all the goal needs.
        for before, p in zip(PASSES, PASSES[1:]):
            assert set(before.provides) & set(p.requires), (before, p)

    @pytest.mark.parametrize(
        "goal",
        [
            *PREFIX_FOR,
            ("plan", "profile"),
            ("profile", "plan"),
            ("adg", "offsets"),
            ("distribution", "typeinfo"),
        ],
    )
    def test_a_goal_runs_the_chain_up_to_its_provider(self, goal):
        goals = [goal] if isinstance(goal, str) else goal
        ctx = Pipeline().run(_fresh_context(), goal=goal)
        ran = [e["pass"] for e in ctx.trace]
        assert ran == list(CHAIN[: max(PREFIX_FOR[g] for g in goals)])
        assert all(e["event"] == "run" for e in ctx.trace)

    @pytest.mark.parametrize("goal", ["nope", "program", "machine", "align_options"])
    def test_unknown_goal_names_producible_artifacts(self, goal):
        ctx = _fresh_context()
        pipe = Pipeline()
        for call in (lambda: pipe.run(ctx, goal=goal), lambda: pipe.explain(goal)):
            with pytest.raises(MissingArtifactError) as ei:
                call()
            msg = str(ei.value)
            assert msg.startswith(f"goal {goal!r} is not a producible artifact")
            listed = msg.split("producible goals: ")[1].split(", ")
            assert listed == sorted(PREFIX_FOR)
            # A goal is not an input: the error must not suggest supplying it.
            assert "supply it as a pipeline input" not in msg
        assert ctx.trace == []  # refused before any pass ran


class TestMissingArtifacts:
    def test_error_names_key_pass_and_available(self):
        ctx = PlanContext()
        ctx.put("align_options", AlignOptions.of())
        with pytest.raises(MissingArtifactError) as ei:
            Pipeline().run(ctx, goal="plan")
        msg = str(ei.value)
        assert "'program'" in msg and "'typecheck'" in msg
        assert "supply it as a pipeline input" in msg
        assert "align_options" in msg  # what *is* available

    def test_error_names_provider_when_one_exists(self):
        # The context itself names the missing key and what it holds.
        ctx = PlanContext()
        with pytest.raises(MissingArtifactError, match="missing artifact 'A'"):
            ctx.get("A")

    def test_pass_that_underdelivers_is_diagnosed(self, monkeypatch):
        def without_plan(self, ctx):
            ctx.put("alignments", {})
            ctx.put("total_cost", 0)

        monkeypatch.setattr(AssemblePass, "run", without_plan)
        ctx = plan_context(programs.example1())
        with pytest.raises(
            PipelineError, match="'assemble' declared but did not provide: plan$"
        ):
            Pipeline().run(ctx, goal="plan")

    def test_real_pipeline_distribution_needs_machine(self):
        ctx = plan_context(programs.example1())
        with pytest.raises(MissingArtifactError, match="machine"):
            Pipeline().run(ctx, goal="distribution")


class TestFixpoint:
    def test_replication_fixpoint_trace_rounds_match_plan(self):
        ctx = plan_context(programs.figure1())
        Pipeline().run(ctx, goal="plan")
        (ev,) = [e for e in ctx.trace if e["pass"] == "replication-offsets"]
        assert ev["rounds"] == ctx.get("plan").replication_rounds >= 2


class TestFixpointSolvesEachOffsetProblemOnce:
    """The offset problem is a function of the replicated set, so the
    fixpoint solves once per distinct set: the converged round, which
    would repeat the previous round's problem, keeps its answer."""

    PROGRAMS = {
        "figure1": lambda: programs.figure1(n=24),  # 3 rounds, mobile
        "figure4": lambda: programs.figure4(nt=12, nk=10),  # replicated
    }
    # Every registered mobile-offset algorithm, and the static baseline.
    CONFIGS = [(alg, True) for alg in sorted(ALGORITHMS)] + [("fixed", False)]

    @staticmethod
    def _run(monkeypatch, program, algorithm, mobile, **kw):
        from repro.passes import align_passes

        solved = []

        def counting(adg, skeletons, alg, **kwargs):
            solved.append(frozenset(kwargs["replicated"]))
            return solve_mobile_offsets(adg, skeletons, alg, **kwargs)

        monkeypatch.setattr(align_passes, "solve_mobile_offsets", counting)
        ctx = plan_context(program, algorithm=algorithm, mobile=mobile, **kw)
        Pipeline().run(ctx, goal="plan")
        (ev,) = [e for e in ctx.trace if e["pass"] == "replication-offsets"]
        return ctx, ev, solved

    @staticmethod
    def _direct_offsets(ctx, algorithm, mobile):
        return solve_mobile_offsets(
            ctx.get("adg"),
            ctx.get("skeletons").skeletons,
            algorithm,
            replicated=ctx.get("replicated"),
            static=not mobile,
        ).offsets

    @pytest.mark.parametrize("algorithm,mobile", CONFIGS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_one_solve_per_distinct_replicated_set(
        self, monkeypatch, name, algorithm, mobile
    ):
        ctx, ev, solved = self._run(
            monkeypatch, self.PROGRAMS[name](), algorithm, mobile
        )
        assert ev["converged"] is True and ev["rounds"] >= 2
        assert len(solved) == len(set(solved)) == ev["rounds"] - 1
        assert solved[-1] == ctx.get("replicated")
        # The answer kept from the last solving round is the answer.
        assert ctx.get("offsets").offsets == self._direct_offsets(
            ctx, algorithm, mobile
        )

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_reports_match_golden(self, name, golden):
        # Snapshots were written by the fixpoint that re-solved in its
        # converged round; equal strings are equal bytes.
        reports = {
            f"{algorithm}{'' if mobile else '-static'}": align_program(
                self.PROGRAMS[name](), algorithm=algorithm, mobile=mobile
            ).report()
            for algorithm, mobile in self.CONFIGS
        }
        golden.check(f"fixpoint_reports_{name}", reports)

    def test_exhausted_round_cap_still_solves_in_its_last_round(
        self, monkeypatch
    ):
        # figure1 needs three rounds; capped at two, the second round
        # sees a new replicated set and must not reuse round one's answer.
        ctx, ev, solved = self._run(
            monkeypatch,
            self.PROGRAMS["figure1"](),
            "fixed",
            True,
            max_replication_rounds=2,
        )
        assert ev["converged"] is False and ev["rounds"] == 2
        assert len(solved) == len(set(solved)) == 2
        assert solved[-1] == ctx.get("replicated")
        assert ctx.get("offsets").offsets == self._direct_offsets(
            ctx, "fixed", True
        )


def _events(event, name, *contexts):
    """How many ``event`` ("run" / "reuse") records of pass ``name`` the
    contexts' traces hold — the record a pipeline leaves of what it did."""
    return sum(
        e["event"] == event and e["pass"] == name
        for ctx in contexts
        for e in ctx.trace
    )


class TestPrefixReuse:
    def test_topology_sweep_reuses_aligned_prefix(self):
        """The ADG/alignment objects keep their identity across a sweep;
        only the machine-dependent suffix re-executes."""
        pipe = Pipeline()
        ctx = pipe.run(plan_context(programs.figure1()), goal="profile")
        adg, alignments, profile = (
            ctx.get("adg"), ctx.get("alignments"), ctx.get("profile"),
        )
        subs = []
        for spec in ("grid:4x4", "torus:4x4", "ring:16", "hypercube:16"):
            sub = ctx.fork()
            subs.append(sub)
            sub.put("machine", MachineSpec.of(topology=spec))
            pipe.run(sub, goal="distribution")
            assert sub.get("adg") is adg
            assert sub.get("alignments") is alignments
            assert sub.get("profile") is profile
            ran = [e["pass"] for e in sub.trace if e["event"] == "run"]
            assert ran == ["distribute"], ran
            reused = {e["pass"] for e in sub.trace if e["event"] == "reuse"}
            assert {"axis-stride", "replication-offsets", "comm-profile"} <= reused
        assert _events("run", "axis-stride", ctx, *subs) == 1
        assert _events("reuse", "axis-stride", ctx, *subs) == 4
        assert _events("run", "distribute", ctx, *subs) == 4

    def test_nproc_sweep_reuses_aligned_prefix(self):
        pipe = Pipeline()
        ctx = pipe.run(plan_context(programs.example1()), goal="profile")
        grids = set()
        subs = []
        for nprocs in (2, 4, 8):
            sub = ctx.fork()
            subs.append(sub)
            sub.put("machine", MachineSpec.of(nprocs))
            pipe.run(sub, goal="distribution")
            grids.add(sub.get("distribution").grid)
        assert _events("run", "axis-stride", ctx, *subs) == 1
        assert _events("run", "distribute", ctx, *subs) == 3
        assert len(grids) == 3  # different machines, different plans

    def test_content_identical_machine_is_not_replanned(self):
        """Fingerprinting: re-putting an *equal* machine spec does not
        invalidate the suffix."""
        pipe = Pipeline()
        ctx = plan_context(programs.example1())
        ctx.put("machine", MachineSpec.of(4))
        pipe.run(ctx, goal="distribution")
        ctx.put("machine", MachineSpec.of(4))  # same content, new version
        pipe.run(ctx, goal="distribution")
        assert _events("run", "distribute", ctx) == 1
        assert _events("reuse", "distribute", ctx) == 1

    def test_changed_program_invalidates_prefix(self):
        pipe = Pipeline()
        ctx = pipe.run(plan_context(programs.example1()), goal="plan")
        cost1 = ctx.get("total_cost")
        ctx.put("program", programs.figure1())
        pipe.run(ctx, goal="plan")
        assert ctx.get("plan").program.name == "figure1"
        assert ctx.get("total_cost") != cost1

    def test_externally_supplied_typeinfo_is_honored(self):
        from repro.lang.typecheck import typecheck

        program = programs.example1()
        ctx = plan_context(program)
        ctx.put("typeinfo", typecheck(program))
        Pipeline().run(ctx, goal="plan")
        assert _events("run", "typecheck", ctx) == 0
        assert ctx.get("total_cost") == align_program(program).total_cost

    def test_external_typeinfo_goes_stale_when_program_changes(self):
        """An externally supplied artifact is pinned to the inputs it
        was honored under; replacing the program must re-run typecheck
        rather than serve the stale TypeInfo."""
        from repro.lang.typecheck import typecheck

        p1, p2 = programs.example1(), programs.figure1()
        pipe = Pipeline()
        ctx = plan_context(p1)
        ctx.put("typeinfo", typecheck(p1))
        pipe.run(ctx, goal="plan")
        assert _events("run", "typecheck", ctx) == 0  # honored external info
        ctx.put("program", p2)
        pipe.run(ctx, goal="plan")
        assert _events("run", "typecheck", ctx) == 1  # stale info re-derived
        assert ctx.get("plan").total_cost == align_program(p2).total_cost

    def test_summary_reprs_are_not_content_fingerprinted(self):
        """Same-shape, different-content programs: the rebuilt ADG's
        summary repr ('<ADG s: N nodes...>') coincides, so it must not be
        fingerprinted: its new version invalidates every downstream pass."""
        p1 = parse("real A(10), B(20)\nA(1:10) = B(1:20:2)", name="s")
        p2 = parse("real A(10), B(30)\nA(1:10) = B(1:30:3)", name="s")
        pipe = Pipeline()
        ctx = pipe.run(plan_context(p1), goal="plan")
        strides1 = {
            k: repr(al) for k, al in ctx.get("alignments").items()
        }
        ctx.put("program", p2)
        pipe.run(ctx, goal="plan")
        fresh = Pipeline().run(plan_context(p2), goal="plan")
        assert {
            k: repr(al) for k, al in ctx.get("alignments").items()
        } == {k: repr(al) for k, al in fresh.get("alignments").items()}
        assert {
            k: repr(al) for k, al in ctx.get("alignments").items()
        } != strides1


INPUTS = {"program", "align_options", "machine"}


def assert_only_inputs_content_addressed(ctx):
    """The three planner inputs carry content fingerprints, and every
    other artifact none: its version identifies it."""
    assert {k for k in ctx.keys() if ctx.artifact(k).fingerprint} == INPUTS
    for key in INPUTS:
        art = ctx.artifact(key)
        assert art.fingerprint == content_fingerprint(art.value) is not None, key


class TestOnlyInputsAreContentAddressed:
    """Only ``program``, ``align_options`` and ``machine`` reach a cache
    key, so only they are fingerprinted by content — after every way a
    context comes to be solved."""

    def test_a_cold_plan(self, corpus_kernels):
        options, machine = planning_records(16)
        for kernel, source in corpus_kernels.items():
            ctx = solve_suffix(solve_prefix(parse(source, name=kernel), options), machine)
            assert_only_inputs_content_addressed(ctx)

    def test_a_forked_suffix(self):
        options, machine = planning_records(16)
        prefix = solve_prefix(programs.figure1(), options)
        for nprocs in (4, 16):
            ctx = solve_suffix(prefix.fork(), planning_records(nprocs)[1])
            assert_only_inputs_content_addressed(ctx)
            assert ctx.artifact("profile") is prefix.artifact("profile")

    def test_a_carry_all_replan(self, corpus_bases, corpus_edits):
        from repro.passes import replan

        label = [e for e in corpus_edits if e[1] in ("op_swap", "intrinsic_swap")]
        for kernel, _, source in label:
            ctx, report = replan(corpus_bases[kernel], parse(source, name=kernel))
            assert report.strategy == "carry_all"
            assert_only_inputs_content_addressed(ctx)

    def test_a_serve_prefix_hit(self, monkeypatch, corpus_kernels):
        import repro.serve.service as service

        solved = []

        def recording(ctx, machine):
            solved.append(solve_suffix(ctx, machine))
            return solved[-1]

        monkeypatch.setattr(service, "solve_suffix", recording)
        svc = service.PlanService()
        try:
            source = corpus_kernels["figure1"]
            answers = [
                svc.handle(service.ServeRequest("figure1", source, nprocs=n)).cached
                for n in (16, 8)
            ]
        finally:
            svc.close()
        assert answers == [None, "prefix"] and solved
        for ctx in solved:
            assert_only_inputs_content_addressed(ctx)


class TestWrappers:
    PROGRAMS = ["example1", "example2", "figure1", "figure4"]

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_wrapper_report_identical_to_pipeline_path(self, name):
        program = getattr(programs, name)()
        via_wrapper = align_program(program).report()
        ctx = Pipeline().run(plan_context(program), goal="plan")
        assert via_wrapper == ctx.get("plan").report()

    def test_align_and_distribute_matches_pipeline_path(self):
        program = programs.figure1()
        plan = align_and_distribute(
            program, 16, distrib_options={"topology": "torus:4x4"}
        )
        ctx = plan_context(program)
        ctx.put("machine", MachineSpec.of(16, topology="torus:4x4"))
        Pipeline().run(ctx, goal="distribution")
        assert plan.distribution == ctx.get("distribution")

    def test_unknown_algorithm_still_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            align_program(programs.example1(), algorithm="zzz")


class TestDistribOptionsValidation:
    def test_topology_nprocs_mismatch_raises_named_error(self):
        with pytest.raises(DistributionOptionsError) as ei:
            align_and_distribute(
                programs.example1(), 8, distrib_options={"topology": "torus:4x4"}
            )
        msg = str(ei.value)
        assert "torus:4x4" in msg and "16" in msg and "8" in msg

    def test_planner_option_in_align_kw_raises_named_error(self):
        with pytest.raises(DistributionOptionsError) as ei:
            align_and_distribute(programs.example1(), 4, topology="ring:4")
        msg = str(ei.value)
        assert "topology" in msg and "distrib_options" in msg

    def test_align_option_in_distrib_options_raises_named_error(self):
        with pytest.raises(DistributionOptionsError) as ei:
            align_and_distribute(
                programs.example1(), 4, distrib_options={"replication": False}
            )
        msg = str(ei.value)
        assert "unknown distribution option(s) ['replication']" in msg

    def test_matching_topology_accepted(self):
        plan = align_and_distribute(
            programs.example1(), 4, distrib_options={"topology": "ring:4"}
        )
        assert plan.distribution is not None
        assert plan.distribution.topology == "ring:4"

    def test_topology_object_accepted(self):
        from repro.topology import parse_topology

        topo = parse_topology("torus:2x2")
        plan = align_and_distribute(
            programs.example1(), 4, distrib_options={"topology": topo}
        )
        assert plan.distribution.topology == "torus:2x2"

    def test_unregistered_topology_object_flows_through(self):
        """A custom Topology outside the spec registry must reach the
        planner as the live object — never a spec round-trip."""
        from repro.topology import parse_topology

        class Unregistered:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def spec(self):
                return "custom:unregistered"

        topo = Unregistered(parse_topology("torus:2x2"))
        plan = align_and_distribute(
            programs.example1(), 4, distrib_options={"topology": topo}
        )
        assert plan.distribution.topology == "custom:unregistered"


class TestPickling:
    def test_prefix_context_pickles_and_finishes_elsewhere(self):
        """The prefix-cache contract: a machine-independent prefix can be
        pickled (stable port uids, no id() keys anywhere), shipped, and
        completed against any machine with identical results."""
        options, machine = planning_records(16, "hypercube:16")
        ctx = solve_prefix(programs.figure1(), options)
        shipped = pickle.loads(pickle.dumps(ctx))
        sub = solve_suffix(shipped.fork(), machine)
        ran = [e["pass"] for e in sub.trace if e["event"] == "run"]
        assert ran == ["distribute"], ran

        direct = solve_suffix(ctx.fork(), machine)
        assert sub.get("distribution") == direct.get("distribution")
        assert str(sub.get("total_cost")) == str(direct.get("total_cost"))

    def test_early_stage_context_pickles_before_adg_build(self):
        """TypeInfo re-keys its per-expression shapes on unpickling, so
        a context shipped at *any* stage — not just post-profile — can
        finish planning on the other side."""
        pipe = Pipeline()
        ctx = pipe.run(plan_context(programs.figure1()), goal="typeinfo")
        shipped = pickle.loads(pickle.dumps(ctx))
        Pipeline().run(shipped, goal="plan")
        assert (
            shipped.get("plan").total_cost
            == align_program(programs.figure1()).total_cost
        )

    def test_alignment_plan_survives_pickling(self):
        from repro.align import total_cost as cost_of

        plan = align_program(programs.example5())
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.total_cost == plan.total_cost
        # The alignment map stays valid against the re-hydrated graph.
        assert cost_of(clone.adg, clone.alignments) == plan.total_cost
        assert {p.key for p in clone.adg.ports()} == set(clone.alignments)

    @pytest.mark.parametrize(
        "spec", ["grid:2x2", "torus:2x2", "ring:4", "hypercube:4", 4]
    )
    def test_a_shipped_prefix_forks_for_every_machine(self, spec):
        """One prefix, pickled once, planned for a machine of each kind on
        a fork: only the suffix runs, and the modelled hops are the
        simulator's."""
        from repro.machine import measure_traffic

        options, _ = planning_records()
        program = parse("real A(8), B(8)\nA(1:7) = B(2:8)")
        blob = pickle.dumps(solve_prefix(program, options))
        nprocs, topology = (spec, None) if isinstance(spec, int) else (None, spec)
        machine = planning_records(nprocs, topology)[1]
        ctx = solve_suffix(pickle.loads(blob).fork(), machine)
        assert [e["pass"] for e in ctx.trace if e["event"] == "run"] == ["distribute"]
        plan, dplan = ctx.get("plan"), ctx.get("distribution")
        measured = measure_traffic(
            plan.adg,
            plan.alignments,
            dplan.to_distribution(),
            topology=machine.topology_object(),
        )
        assert measured.hop_cost == dplan.cost.hops

    def test_plan_many_labels_its_machine(self):
        from repro.batch import plan_many

        src = "real A(8), B(8)\nA(1:7) = B(2:8)"
        by_nprocs = plan_many([src], nprocs=8, serial=True)
        assert by_nprocs.results[0].machine == "P8"
        by_topo = plan_many([src], nprocs=4, serial=True, topology="torus:2x2")
        assert by_topo.results[0].machine == "torus:2x2/P4"
        plain = plan_many([src], nprocs=None, serial=True)
        assert plain.results[0].machine is None


class TestTraceAndExplain:
    def test_explain_lists_goal_subset_in_order(self):
        text = Pipeline().explain(goal="plan")
        assert "distribute" not in text
        order = [
            ln.split()[1] for ln in text.splitlines()[1:]
        ]
        assert order == [
            "typecheck",
            "build-adg",
            "axis-stride",
            "replication-offsets",
            "assemble",
        ]

    def test_default_passes_are_the_seven_pass_chain(self):
        assert tuple(p.name for p in PASSES) == CHAIN
        assert [p.kind for p in PASSES] == ["pass"] * 3 + ["fixpoint"] + ["pass"] * 3

    def test_trace_table_renders(self):
        from repro.passes import trace_table

        ctx = Pipeline().run(plan_context(programs.example1()), goal="plan")
        text = trace_table(ctx.trace)
        assert "replication-offsets" in text and "rounds=" in text

    def test_cli_trace_and_explain(self, tmp_path, capsys):
        from repro.__main__ import main

        src = tmp_path / "p.dp"
        src.write_text("real A(10), B(10)\nA = A + B(1:10)\n")
        assert main([str(src), "--trace-passes"]) == 0
        out = capsys.readouterr().out
        assert "pass trace:" in out and "axis-stride" in out
        assert main(["--explain", "--distribute", "4"]) == 0
        out = capsys.readouterr().out
        assert "distribute" in out and "comm-profile" in out
        # --explain must not silently swallow a requested batch run.
        with pytest.raises(SystemExit):
            main(["--batch", "2", "--explain"])

    def test_explain_is_pinned_byte_for_byte(self):
        from repro.align.pipeline import explain_plan
        from repro.passes import replan

        prefix = [
            "  1. typecheck              [pass]{}  program  ->  typeinfo",
            "  2. build-adg              [pass]{}  program, typeinfo  ->  adg",
            "  3. axis-stride            [pass]{}  adg  ->  skeletons",
            "  4. replication-offsets    [fixpoint]{}  program, adg, skeletons,"
            " align_options  ->  replication, offsets, replicated,"
            " replication_rounds",
            "  5. assemble               [pass]{}  program, adg, skeletons,"
            " replication, offsets, replicated, replication_rounds  ->"
            "  alignments, total_cost, plan",
        ]
        suffix = [
            "  6. comm-profile           [pass]{}  adg, alignments  ->  profile",
            "  7. distribute             [pass]{}  profile, machine  ->"
            "  distribution",
        ]
        assert explain_plan() == "\n".join(
            ["planning pipeline (goal: plan)"] + [ln.format("") for ln in prefix]
        )
        assert explain_plan(machine=True) == "\n".join(
            ["planning pipeline (goal: plan, distribution)"]
            + [ln.format("") for ln in prefix + suffix]
        )
        options, machine = planning_records(4)
        base = solve_suffix(solve_prefix(programs.example1(), options), machine)
        _, report = replan(base, machine=MachineSpec.of(8))
        assert report.strategy == "machine_only"
        clean, dirty = " [reused (clean)]", " [ran (dirty)   ]"
        assert explain_plan(True, delta=report) == "\n".join(
            ["planning pipeline (goal: plan, distribution)"]
            + [ln.format(clean) for ln in prefix + suffix[:1]]
            + [suffix[1].format(dirty)]
        )

    def test_a_failing_suffix_leaves_the_prefix_for_the_next_fork(
        self, monkeypatch
    ):
        """A machine whose suffix raises spoils only its own fork: the
        prefix gains no machine, keeps its trace, and the next fork plans
        as a fresh prefix does."""
        from repro.passes.distrib_passes import DistributePass

        options, machine = planning_records(4, "grid:2x2")
        prefix = solve_prefix(programs.figure1(), options)
        trace = list(prefix.trace)

        def failing(self, ctx):
            raise RuntimeError("offset LP axis 0: infeasible")

        monkeypatch.setattr(DistributePass, "run", failing)
        with pytest.raises(RuntimeError, match="offset LP"):
            solve_suffix(prefix.fork(), machine)
        monkeypatch.undo()
        assert not prefix.has("distribution") and not prefix.has("machine")
        assert prefix.trace == trace
        got = solve_suffix(prefix.fork(), machine).get("distribution")
        fresh = solve_prefix(programs.figure1(), options)
        assert got == solve_suffix(fresh, machine).get("distribution")


# -- the fingerprint renderer --------------------------------------------------


class _Color(enum.IntEnum):
    RED = 1


class _Point(NamedTuple):
    x: int
    y: int


@dataclasses.dataclass(frozen=True)
class _Frozen:
    a: Any
    b: Any = ()
    tag: ClassVar[str] = "not a field"


@dataclasses.dataclass
class _Thawed:
    a: Any


class _FrozenChild(_Frozen):
    """Not a dataclass itself: renders its base's fields, its own name."""


class _Keyed:
    """A class exposing ``__content_key__``, which the scheme once took."""

    def __init__(self, *parts):
        self.parts = parts

    def __content_key__(self):
        return self.parts


class _Opaque:
    pass


def _rendered(value):
    """``_stable_repr(value)``, or ``None`` where ``content_fingerprint``
    would answer ``None``."""
    try:
        return _stable_repr(value)
    except Exception:  # noqa: BLE001 - as content_fingerprint catches
        return None


def _reference(value):
    """``reference_repr(value)``, or ``None`` likewise."""
    try:
        return reference_repr(value)
    except Exception:  # noqa: BLE001 - as content_fingerprint catches
        return None


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=16),
    st.fractions(max_denominator=4),
    st.text("ab'\"", max_size=3),
    st.just(_Color.RED),
    st.builds(_Point, st.integers(0, 2), st.integers(0, 2)),
    st.builds(_Frozen, st.integers(0, 2)),
    st.builds(_Opaque),
    st.just(_Frozen),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.builds(_Frozen, inner, inner),
        st.builds(_FrozenChild, inner),
        st.builds(_Thawed, inner),
    ),
    max_leaves=12,
)


class TestStableRepr:
    #: One row per kind of value: what it renders to, exactly.
    ROWS = [
        (None, "None"),
        (True, "True"),
        (1, "1"),
        (1.0, "1.0"),
        (Fraction(1), "Fraction(1, 1)"),
        (_Color.RED, "<_Color.RED: 1>"),
        ("it's", '"it\'s"'),
        ((1, "a"), "tuple(1,'a')"),
        ([1, "a"], "list(1,'a')"),
        ((), "tuple()"),
        (_Point(1, 2), "_Point(1,2)"),
        (_Frozen(1, (2,)), "_Frozen(a=1,b=tuple(2))"),
        (_FrozenChild(None), "_FrozenChild(a=None,b=tuple())"),
        # A planner input: every field of the machine record renders.
        (MachineSpec.of(4), "MachineSpec(nprocs=4,topology=None)"),
    ]  # fmt: skip

    @pytest.mark.parametrize("value, expected", ROWS, ids=[r[1] for r in ROWS])
    def test_renders_exactly(self, value, expected):
        assert _stable_repr(value) == expected
        assert reference_repr(value) == expected
        assert content_fingerprint(value) is not None

    def test_equal_numbers_of_different_types_differ(self):
        digests = {content_fingerprint(v) for v in (True, 1, 1.0, Fraction(1))}
        assert len(digests) == 4

    def test_containers_of_different_types_differ(self):
        assert content_fingerprint((1, 2)) != content_fingerprint([1, 2])
        assert content_fingerprint((1, 2)) != content_fingerprint(_Point(1, 2))

    @pytest.mark.parametrize(
        "value",
        [
            _Thawed(1),  # a dataclass, but not frozen
            _Frozen,  # a dataclass *class object*
            _Opaque(),
            object(),
            (1, [_Opaque()]),  # poisons whatever holds it
            _Frozen(_Thawed(1)),
        ],
        ids=repr,
    )
    def test_not_content_addressable(self, value):
        assert content_fingerprint(value) is None
        assert _reference(value) is None

    @pytest.mark.parametrize(
        "value",
        [{10, 9}, frozenset({2, 1}), {"b": 1, "a": [2]}, _Keyed(1, "k"), (1, {2: 3})],
        ids=repr,
    )
    def test_sets_dicts_and_content_keys_are_not_rendered(self, value):
        """The first scheme also took these; no planner input holds one
        (``TestDigestIdentity``), so they are opaque now."""
        assert _reference(value) is not None
        assert content_fingerprint(value) is None

    def test_an_adg_is_not_content_addressable(self):
        from repro.adg import build_adg

        assert content_fingerprint(build_adg(programs.example1())) is None

    def test_a_long_value_renders_whole(self):
        """No budget: a value of any length renders, and its digest is
        the reference's."""
        for value in (tuple(range(10_001)), [(i,) for i in range(5_000)]):
            assert content_fingerprint(value) == reference_fingerprint(value)
            assert content_fingerprint(value) is not None

    def test_a_value_nested_past_the_recursion_limit_is_not_rendered(self):
        deep: Any = ()
        for _ in range(5_000):
            deep = (deep,)
        assert content_fingerprint(deep) is None

    def test_a_type_is_resolved_once_and_holds_no_value(self):
        from repro.passes.core import _RENDERERS

        @dataclasses.dataclass(frozen=True)
        class Local:
            a: int = 7

        assert Local not in _RENDERERS
        first = content_fingerprint(Local())
        render = _RENDERERS[Local]
        assert content_fingerprint(Local()) == first
        assert _RENDERERS[Local] is render
        assert _RENDERERS[bool] is _RENDERERS[str]  # code, shared by kind

    @given(_values)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_isinstance_chain(self, value):
        assert _rendered(value) == _reference(value)


_scalars = st.integers(-5, 5) | st.fractions(max_denominator=4)
_affine_forms = st.builds(
    AffineForm,
    _scalars,
    st.dictionaries(
        st.builds(LIV, st.sampled_from(["i", "j", "k"]), st.integers(0, 2)),
        _scalars,
        max_size=3,
    ),
)


class TestAffineFormRenderer:
    """``AffineForm`` has its own renderer; it writes what the generic
    rendering of its old key (constant, coefficient map, as
    ``Fraction``s) did."""

    @given(_affine_forms)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_content_key_rendering(self, form):
        assert _rendered(form) == reference_repr(form)
        assert _rendered((form, [form])) == reference_repr((form, [form]))


#: The nine machines ``machine_sweep`` of ``benchmarks/perf`` prices.
SWEEP_MACHINES = (
    "grid:4x4",
    "torus:4x4",
    "ring:16",
    "hypercube:16",
    "hier:(grid:2)/(grid:8)@16",
    "grid:8x8",
    "torus:8x8",
    "ring:64",
    "hypercube:64",
)


class TestDigestIdentity:
    """The renderer covers only what the planner inputs are made of; on
    every one of them its digest is the first scheme's
    (``tests/fingerprint_reference.py``), so no cache key moves."""

    @staticmethod
    def _programs(corpus_kernels, corpus_edits):
        from repro.lang.generate import generate_corpus

        yield from (parse(src, name=name) for name, src in corpus_kernels.items())
        yield from (parse(src, name=kernel) for kernel, _, src in corpus_edits)
        for count, seed in ((40, 3), (14, 0)):
            for scenario in generate_corpus(count, seed=seed):
                yield parse(scenario.source, name=scenario.name)

    def test_programs_their_statements_and_declarations(
        self, corpus_kernels, corpus_edits
    ):
        seen = 0
        for program in self._programs(corpus_kernels, corpus_edits):
            for value in (program, program.decls, *program.decls, *program.body):
                assert content_fingerprint(value) == reference_fingerprint(value)
                assert content_fingerprint(value) is not None, program.name
            seen += 1
        assert seen == 16 + 48 + 54

    def test_align_options_for_each_algorithm(self):
        records = [AlignOptions.of(algorithm=name) for name in ALGORITHMS]
        records += [
            AlignOptions.of(m=3),
            AlignOptions.of(replication=False, mobile=False, max_replication_rounds=1),
        ]
        for options in records:
            assert content_fingerprint(options) == reference_fingerprint(options)
            assert content_fingerprint(options) is not None

    def test_machines_of_every_topology_kind(self):
        from repro.topology import parse_topology, topology_kinds

        specs = {
            "grid": "grid:4x4",
            "torus": "torus:4x4",
            "ring": "ring:16",
            "hypercube": "hypercube:16",
            "hier": "hier:(grid:2)/(grid:8)@16",
        }
        assert set(specs) == set(topology_kinds())
        machines = [MachineSpec.of(4), MachineSpec.of(None, "grid:2x2")]
        for spec in specs.values():
            machines += [MachineSpec.of(topology=spec), MachineSpec.of(16, parse_topology(spec))]
        for machine in machines:
            assert content_fingerprint(machine) == reference_fingerprint(machine)
            assert content_fingerprint(machine) is not None


class TestPinnedFingerprints:
    def test_digests_match_the_pinned_ones(
        self, golden, corpus_kernels, corpus_edits, corpus_bases
    ):
        """Fingerprints are on-disk cache keys (``repro.serve``): a
        renderer change that moves one silently strands every stored
        entry.  The digests of the pinned corpus, its edits, the sweep
        machines and the default options are compared with
        ``tests/golden/fingerprints.json``, beside the rung (strategy and
        fallback) each edit's replan against its kernel takes and the
        first difference it names (detail) — the delta engine's carry
        decisions, which compare projections as values and hash
        nothing."""
        from repro.passes import replan, statement_key

        def program_digests(program) -> dict:
            return {
                "program": content_fingerprint(program),
                "decls": content_fingerprint(program.decls),
                "statements": [statement_key(s) for s in program.body],
            }

        kernels = {
            name: program_digests(parse(source, name=name))
            for name, source in corpus_kernels.items()
        }
        edits = {}
        for kernel, edit_class, source in corpus_edits:
            program = parse(source, name=kernel)
            _, report = replan(corpus_bases[kernel], program)
            edits[f"{kernel}.{edit_class}"] = program_digests(program) | {
                "replan": {
                    "strategy": report.strategy,
                    "fallback": report.fallback,
                    "detail": report.fallback_detail,
                }
            }
        machines = {
            spec: content_fingerprint(MachineSpec.of(topology=spec))
            for spec in SWEEP_MACHINES
        }
        machines["P16"] = content_fingerprint(MachineSpec.of(16))
        assert len(kernels) == 16 and len(edits) == 48
        golden.check(
            "fingerprints",
            {
                "kernels": kernels,
                "edits": edits,
                "machines": machines,
                "align_options": content_fingerprint(AlignOptions.of()),
            },
        )
