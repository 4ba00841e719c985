"""The planning kernel: one way to ask for a plan, the same answer from
every driver.

``repro.align.pipeline`` holds the kernel — ``planning_records``,
``solve_prefix``, ``solve_suffix``, ``plan_facts`` — and every driver
(``align_and_distribute``, ``repro.batch``, ``repro.serve``, the CLI) is
a caller of it.  These tests hold the drivers to that: the same facts
for the same problem, the same named error for the same bad options,
and no second recipe anywhere in the tree.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.align.metric import alignment_distance
from repro.align.pipeline import (
    DistributionOptionsError,
    align_and_distribute,
    align_program,
    explain_plan,
    plan_facts,
    planning_records,
    solve_prefix,
    solve_suffix,
)
from repro.align.position import Alignment
from repro.batch import PlanRequest, plan_many, plan_sweep
from repro.distrib import build_profile, rank_plans
from repro.distrib.enumerate import candidate_spaces
from repro.lang.generate import FAMILIES, generate_scenario
from repro.machine import Distribution, measure_traffic
from repro.obs import spans as obs
from repro.obs.metrics import registry
from repro.passes import AlignOptions, MachineSpec
from repro.serve import PlanService, ServeRequest
from repro.solvers import FlowNetwork

SCENARIOS = [
    generate_scenario(seed, family=family)
    for family in sorted(FAMILIES)
    for seed in (5, 6)
]
#: ``(nprocs, topology spec, label)`` — a bare count and a finite machine.
MACHINES = [(16, None, "P16"), (None, "torus:4x4", "torus:4x4")]

FACT_KEYS = ("total_cost", "alignments", "distribution", "hops", "moved", "exact")


def _result_facts(result) -> dict:
    """A ``PlanResult``'s fields under the names ``plan_facts`` uses."""
    assert result.ok, result.error
    return {
        "total_cost": result.total_cost,
        "alignments": dict(result.alignments),
        "distribution": result.distribution,
        "hops": result.dist_hops,
        "moved": result.dist_moved,
        "exact": result.dist_exact,
    }


def _label_edit(source: str) -> str:
    """``source`` with its first binary operator swapped for another."""
    for old, new in ((" + ", " - "), (" - ", " + "), (" * ", " + ")):
        if old in source:
            return source.replace(old, new, 1)
    raise AssertionError(source)


# -- every driver returns the same facts ---------------------------------------


@pytest.fixture(scope="module")
def batch_facts():
    """``{(driver, program, label): facts}`` off the pooled and sweeping
    batch entry points, each called once over the whole corpus."""
    out = {}
    for nprocs, spec, label in MACHINES:
        report = plan_many(SCENARIOS, nprocs=nprocs, topology=spec, jobs=2)
        assert report.mode == "process", report.fallback_reason
        for sc, r in zip(SCENARIOS, report.results):
            out["plan_many", sc.name, label] = _result_facts(r)
    machines = [(nprocs, spec) for nprocs, spec, _ in MACHINES]
    for driver, kw in (("sweep_serial", {"serial": True}), ("sweep_pool", {"jobs": 2})):
        report = plan_sweep(SCENARIOS, machines, **kw)
        assert (report.mode == "process") == (driver == "sweep_pool")
        for r in report.results:
            name, label = r.name.split("@")
            out[driver, name, label] = _result_facts(r)
    return out


@pytest.mark.parametrize("nprocs,spec,label", MACHINES, ids=[m[2] for m in MACHINES])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
def test_every_driver_returns_the_same_facts(
    scenario, nprocs, spec, label, batch_facts, tmp_path, capsys
):
    program = scenario.parse()
    options, machine = planning_records(nprocs, spec)
    want = plan_facts(solve_suffix(solve_prefix(program, options), machine))
    assert tuple(want) == FACT_KEYS

    # The wrapper: read off the AlignmentPlan by hand, not by plan_facts.
    plan = align_and_distribute(
        program, nprocs, distrib_options={"topology": spec} if spec else None
    )
    dist = plan.distribution
    assert want == {
        "total_cost": str(plan.total_cost),
        "alignments": {
            arr: repr(al) for arr, al in sorted(plan.source_alignments().items())
        },
        "distribution": dist.directive(),
        "hops": dist.cost.hops,
        "moved": dist.cost.moved,
        "exact": dist.exact,
    }

    # The batch engine, inline and across the pool.
    request = PlanRequest(scenario.name, scenario.source)
    one = plan_many([request], nprocs=nprocs, topology=spec, serial=True).results[0]
    assert _result_facts(one) == want
    for driver in ("plan_many", "sweep_serial", "sweep_pool"):
        assert batch_facts[driver, scenario.name, label] == want, driver

    # The service: five ways to the same payload, byte for byte.
    ask = ServeRequest(scenario.name, scenario.source, nprocs=nprocs, topology=spec)
    with PlanService() as svc:
        cold = svc.handle(ask)
        plan_hit = svc.handle(ask)
    with PlanService() as svc:
        svc.handle(ServeRequest(scenario.name, scenario.source, nprocs=2))
        prefix_hit = svc.handle(ask)
    with PlanService() as svc:
        base = svc.handle(
            ServeRequest(scenario.name, _label_edit(scenario.source), nprocs=2)
        )
        delta = svc.handle(
            ServeRequest(
                scenario.name,
                scenario.source,
                nprocs=nprocs,
                topology=spec,
                base_fingerprint=base.fingerprints["program"],
            )
        )
    with PlanService(jobs=2) as svc:
        pooled = svc.handle(ask)
        assert svc.pool._executor is not None and svc.pool.fault is None
    replies = [cold, pooled, prefix_hit, plan_hit, delta]
    assert [r.cached for r in replies] == [None, None, "prefix", "plan", "delta"]
    payload = {"name": scenario.name, "machine": label, **want}
    for reply in replies:
        assert reply.ok, reply.error
        assert list(reply.plan) == list(payload)
        assert pickle.dumps(dict(reply.plan)) == pickle.dumps(payload), reply.cached

    # The CLI prints the same directive and cost.
    path = tmp_path / "p.dp"
    path.write_text(scenario.source, encoding="utf-8")
    flags = ["--distribute", str(nprocs)] if spec is None else ["--topology", spec]
    assert main([str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert want["distribution"] in out
    assert f"total realignment cost {want['total_cost']}" in out
    assert f"hops={want['hops']} moved={want['moved']}" in out


# -- what runs, and who is charged for it --------------------------------------


def test_alignment_only_callers_never_profile():
    scenario = SCENARIOS[0]
    program = scenario.parse()
    options, machine = planning_records()
    assert machine is None
    ctx = solve_prefix(program, options, profile=False)
    assert "comm-profile" not in {ev["pass"] for ev in ctx.trace}
    assert plan_facts(ctx)["distribution"] is None
    with obs.recording(label="align") as rec:
        align_program(program)
    assert "pass:assemble" in rec.span_names()
    assert "pass:comm-profile" not in rec.span_names()
    many = plan_many([scenario], nprocs=None, serial=True)
    one = many.results[0]
    assert one.ok and one.distribution is None and one.machine is None
    assert "assemble" in one.passes and "comm-profile" not in one.passes
    assert "comm-profile" not in many.pass_totals()


def test_a_sweep_charges_the_prefix_once_per_program():
    scenario = SCENARIOS[0]
    one = plan_many([scenario], nprocs=16, serial=True).results[0]
    report = plan_sweep([scenario], [16, "torus:4x4", 8], serial=True)
    first, *rest = report.results
    # A fork-free plan and the sweep task that carries the prefix name the
    # same passes; the other machines of the program ran the suffix only.
    assert set(first.passes) == set(one.passes)
    assert all(set(r.passes) == {"distribute"} for r in rest)
    totals = report.pass_totals()
    assert totals["distribute"][0] == 3
    assert {n for name, (n, _) in totals.items() if name != "distribute"} == {1}


# -- the same named error from every driver ------------------------------------

SRC = "real A(8), B(8)\nA(1:7) = B(2:8)"

#: Bad options, as ``(nprocs, topology, align_kw)``; what ``planning_records``
#: raises for them is what every driver must raise.
BAD_OPTIONS = {
    "mismatch": (8, "torus:2x2", None),
    "misplaced_align_key": (4, None, {"topology": "ring:4"}),
    "bad_spec": (None, "grid:bogus", None),
    # A processor count is an int >= 1; a bool is no count.
    "nprocs_true": (True, None, None),
    "nprocs_float": (4.0, None, None),
    "nprocs_str": ("4", None, None),
    "nprocs_zero": (0, None, None),
    "nprocs_negative": (-2, None, None),
    "unknown_algorithm": (4, None, {"algorithm": "nope"}),
    "key_of_another_algorithm": (4, None, {"algorithm": "unrolling", "m": 3}),
    "misspelt_algorithm_key": (4, None, {"algorithm": "fixed", "mm": 3}),
    "solver_key": (4, None, {"static": True}),
    # HiGHS is the only LP solver: there is no backend to choose.
    "backend_simplex": (4, None, {"backend": "simplex"}),
    "backend_scipy": (4, None, {"backend": "scipy"}),
    # Planner settings no driver sets are constants, not options.
    "state_space_max_passes": (4, None, {"algorithm": "state-space", "max_passes": 2}),
    "zero_crossing_max_iter": (4, None, {"algorithm": "zero-crossing", "max_iter": 2}),
    "refinement_max_iter": (
        4, None, {"algorithm": "recursive-refinement", "max_iter": 2},
    ),
    # A round cap is an int >= 1 and a switch is a bool: one plan, one
    # record, so one serve-cache key.
    "rounds_zero": (4, None, {"max_replication_rounds": 0}),
    "rounds_negative": (4, None, {"max_replication_rounds": -2}),
    "rounds_true": (4, None, {"max_replication_rounds": True}),
    "rounds_float": (4, None, {"max_replication_rounds": 2.5}),
    "rounds_str": (4, None, {"max_replication_rounds": "3"}),
    "rounds_none": (4, None, {"max_replication_rounds": None}),
    "replication_str": (4, None, {"replication": "yes"}),
    "mobile_int": (4, None, {"mobile": 0}),
}
#: The cases that are :class:`DistributionOptionsError`; a bad spec is the
#: topology parser's ValueError, a bad algorithm or algorithm keyword the
#: ValueError / TypeError of ``check_algorithm``, a bad round cap or switch
#: the ValueError of ``AlignOptions.of``.
NAMED = {
    "mismatch", "misplaced_align_key", "nprocs_true", "nprocs_float",
    "nprocs_str", "nprocs_zero", "nprocs_negative",
}


def _align_and_distribute(nprocs, topology, align_kw):
    align_and_distribute(
        repro.parse(SRC),
        nprocs,
        distrib_options=None if topology is None else {"topology": topology},
        **(align_kw or {}),
    )


def _plan_many(nprocs, topology, align_kw):
    plan_many(
        [SRC], nprocs=nprocs, topology=topology, serial=True, align_kw=align_kw
    )


def _plan_sweep(nprocs, topology, align_kw):
    plan_sweep([SRC], [(nprocs, topology)], serial=True, align_kw=align_kw)


def _plan_service(nprocs, topology, align_kw):
    PlanService(
        default_nprocs=nprocs, default_topology=topology, align_kw=align_kw
    )


def _unplanned(monkeypatch) -> list:
    """Every ``solve_prefix`` call a driver makes from here on."""
    planned = []
    for module in (repro.align.pipeline, repro.batch.engine, repro.serve.service):
        monkeypatch.setattr(module, "solve_prefix", lambda *a, **k: planned.append(a))
    return planned


@pytest.mark.parametrize("case", BAD_OPTIONS)
@pytest.mark.parametrize(
    "driver", [_align_and_distribute, _plan_many, _plan_sweep, _plan_service]
)
def test_bad_options_are_one_named_error_everywhere(driver, case, monkeypatch):
    args = BAD_OPTIONS[case]
    with pytest.raises((ValueError, TypeError)) as boundary:
        planning_records(*args)
    assert isinstance(boundary.value, DistributionOptionsError) == (case in NAMED)
    planned = _unplanned(monkeypatch)
    with pytest.raises(type(boundary.value)) as raised:
        driver(*args)
    assert str(raised.value) == str(boundary.value)
    assert planned == []  # raised before anything was planned


#: ``align_and_distribute``'s ``distrib_options`` names the topology and
#: nothing else: an alignment key, a misspelling, a removed planner
#: setting or the machine record's constant field is refused.
BAD_DISTRIB_OPTIONS = {
    "misplaced_distrib_key": {"algorithm": "fixed"},
    "unknown_distrib_key": {"restart": 3},
    "exhaustive_limit": {"exhaustive_limit": 0},
    "seed": {"seed": 1},
    "restarts": {"restarts": 2},
    "block_sizes": {"block_sizes": (2, 4)},
    "backend": {"backend": "scipy"},
    "beside_a_topology": {"topology": "ring:4", "restart": 3},
}


@pytest.mark.parametrize("case", BAD_DISTRIB_OPTIONS)
def test_a_distrib_option_other_than_topology_is_refused(case, monkeypatch):
    options = BAD_DISTRIB_OPTIONS[case]
    planned = _unplanned(monkeypatch)
    with pytest.raises(DistributionOptionsError) as raised:
        align_and_distribute(repro.parse(SRC), 4, distrib_options=options)
    unknown = sorted(set(options) - {"topology"})
    assert str(raised.value).startswith(
        f"unknown distribution option(s) {unknown} in distrib_options"
    )
    assert planned == []  # raised before anything was planned


@pytest.mark.parametrize("case", ["backend_simplex", "backend_scipy"])
def test_there_is_no_lp_backend_to_choose(case):
    with pytest.raises(TypeError) as raised:
        planning_records(*BAD_OPTIONS[case])
    assert str(raised.value) == (
        "fixed_partitioning() got an unexpected keyword argument 'backend'"
    )


@pytest.mark.parametrize(
    "case,call,key",
    [
        ("state_space_max_passes", "state_space_search", "max_passes"),
        ("zero_crossing_max_iter", "tracking_zero_crossings", "max_iter"),
        ("refinement_max_iter", "recursive_refinement", "max_iter"),
    ],
)
def test_an_algorithm_cap_is_a_constant(case, call, key):
    with pytest.raises(TypeError) as raised:
        planning_records(*BAD_OPTIONS[case])
    assert str(raised.value) == f"{call}() got an unexpected keyword argument '{key}'"


def test_the_settable_keys_are_pinned():
    """Every key a driver may set, so a new setting shows up as a diff:
    the machine is ``(nprocs, topology)``, the alignment the record's
    settable fields with every algorithm's own keywords."""
    from repro.align.offset_mobile import ALGORITHMS
    from repro.distrib.search import plan_distribution

    machine = set(inspect.signature(planning_records).parameters) - {"align_kw"}
    assert machine == {"nprocs", "topology"}
    planner = set(inspect.signature(plan_distribution).parameters)
    assert planner - {"profile"} == machine
    align = {f.name for f in dataclasses.fields(AlignOptions) if f.init} - {"alg_kw"}
    align.update(key for alg in ALGORITHMS.values() for key in alg.keywords)
    assert align == {"algorithm", "replication", "mobile", "max_replication_rounds", "m"}


#: Each removed planner setting, passed the way its old callers passed it.
REMOVED_SETTINGS = {
    "MachineSpec.of(block_sizes=)": lambda env: MachineSpec.of(4, block_sizes=(2,)),
    "solve_suffix(phases={})": lambda env: solve_suffix(
        env["prefix"].fork(), MachineSpec.of(4), phases={}
    ),
    "explain_plan(phases=)": lambda env: explain_plan(True, phases=True),
    "rank_plans(window=)": lambda env: rank_plans(
        env["profile"], 4, k=1, window=((0, 15),)
    ),
    "candidate_spaces(window=)": lambda env: candidate_spaces(
        env["profile"], 4, window=((0, 15),)
    ),
    "max_flow(method=)": lambda env: env["net"].max_flow(
        "s", "t", method="edmonds-karp"
    ),
    "measure_traffic(control_weighted=)": lambda env: measure_traffic(
        env["plan"].adg, env["plan"].alignments, env["ident"], control_weighted=True
    ),
    "alignment_distance(extent_per_axis=)": lambda env: alignment_distance(
        env["al"], env["al"], {}, 1, extent_per_axis={}
    ),
}


@pytest.fixture(scope="module")
def removed_env():
    plan = align_program(repro.parse(SRC))
    net = FlowNetwork()
    net.add_edge("s", "t", 1)
    return {
        "plan": plan,
        "ident": Distribution.identity(plan.adg.template_rank),
        "profile": build_profile(plan.adg, plan.alignments),
        "prefix": solve_prefix(repro.parse(SRC), planning_records()[0]),
        "net": net,
        "al": Alignment.canonical(1, 1),
    }


@pytest.mark.parametrize("call", REMOVED_SETTINGS)
def test_a_removed_setting_is_refused(call, removed_env):
    with pytest.raises(TypeError):
        REMOVED_SETTINGS[call](removed_env)


def test_the_fixed_extension_points_are_gone():
    import repro.topology

    assert not hasattr(repro.topology, "register_topology")
    with PlanService() as svc:
        assert not hasattr(svc, "slo")
        assert set(svc.stats()["slo"]) == {"warm_latency", "availability"}


@pytest.mark.parametrize(
    "case", ["mismatch", "bad_spec", "nprocs_true", "nprocs_float", "nprocs_zero"]
)
def test_a_bad_machine_on_one_request_is_an_error_never_a_cached_plan(
    case, monkeypatch
):
    nprocs, topology, _ = BAD_OPTIONS[case]
    with pytest.raises(ValueError) as boundary:
        planning_records(nprocs, topology)
    # A large program: a machine refused only in distribute would have
    # planned its whole alignment prefix first.
    source = repro.pretty(repro.programs.figure1(n=400))
    planned = _unplanned(monkeypatch)
    misses = registry().counter("serve.misses")
    with PlanService() as svc:
        before = misses.value
        for _ in range(2):
            ask = ServeRequest("q", source, nprocs=nprocs, topology=topology)
            reply = svc.handle(ask)
            assert reply.status == "error" and reply.plan is None
            assert reply.error == f"{type(boundary.value).__name__}: {boundary.value}"
        assert len(svc.cache) == 0
        assert misses.value == before and planned == []
        monkeypatch.undo()
        assert svc.handle(ServeRequest("q", SRC, nprocs=4)).ok


def test_the_cli_refuses_the_same_machines_in_its_own_words(tmp_path, capsys):
    path = tmp_path / "p.dp"
    path.write_text(SRC, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        main([str(path), "--distribute", "8", "--topology", "torus:2x2"])
    assert exit_.value.code == 2
    assert (
        "--topology torus:2x2 is a 4-processor machine but --distribute asked for 8"
        in capsys.readouterr().err
    )
    with pytest.raises(SystemExit) as exit_:
        main([str(path), "--topology", "grid:bogus"])
    assert exit_.value.code == 2
    assert "--topology: grid: bad axis extent 'bogus'" in capsys.readouterr().err


def test_the_daemon_refuses_a_bad_default_processor_count(capsys):
    from repro.serve.__main__ import main as serve_main

    with pytest.raises(SystemExit) as exit_:
        serve_main(["--port", "0", "--distribute", "0"])
    assert exit_.value.code == 2
    assert "nprocs=0 is not a processor count" in capsys.readouterr().err


# -- one recipe in the tree ----------------------------------------------------

SRC_ROOT = Path(repro.__file__).parent


def _sources(*skip: str):
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        if not any(rel == s or rel.startswith(s) for s in skip):
            yield rel, path.read_text(encoding="utf-8")


def test_nothing_outside_the_kernel_builds_a_pipeline_or_names_a_goal():
    offenders = [
        (rel, token)
        for rel, text in _sources("align/pipeline.py", "passes/")
        for token in ("Pipeline(", "goal=")
        if token in text
    ]
    assert offenders == []


def test_the_distribution_search_has_one_pricing_path_and_no_switch():
    for rel, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
                assert "vectorize" not in names, (rel, node.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and rel.startswith("distrib/"):
                modules = [getattr(node, "module", None), *(n.name for n in node.names)]
                assert not any("solvers" in (m or "") for m in modules), (rel, node.lineno)


def test_a_solved_context_is_read_for_rendering_in_two_places():
    calls = {
        rel: text.count("source_alignments()")
        for rel, text in _sources()
        if "source_alignments()" in text
    }
    assert calls == {"align/pipeline.py": 2}
    text = (SRC_ROOT / "align/pipeline.py").read_text(encoding="utf-8")
    owners = [
        re.findall(r"^ *def (\w+)\(", text[: match.start()], re.M)[-1]
        for match in re.finditer(r"source_alignments\(\)", text)
    ]
    assert owners == ["report", "plan_facts"]


def test_a_plan_result_is_constructed_in_one_function():
    for rel, text in _sources("batch/engine.py"):
        assert "PlanResult(" not in text, rel
    text = (SRC_ROOT / "batch/engine.py").read_text(encoding="utf-8")
    sites = [m.start() for m in re.finditer(r"(?<![\w.])PlanResult\(", text)]
    assert len(sites) == 1
    assert re.findall(r"^def (\w+)\(", text[: sites[0]], re.M)[-1] == "_measured"


def test_the_entry_points_the_kernel_replaced_are_gone():
    gone = (
        "prefix_context", "replan_context", "_plan_one_impl", "_prefix_worker",
        "_suffix_worker", "_pass_seconds", "_run_suffix", "_cold_worker",
        "PassStats", "stats_table", "plan_one", "_option_keys",
        "_check_distrib_options", "plan_program_phases", "plan_phase_sequence",
        "split_phases", "union_window", "PhasedPlan", "PHASE_CANDIDATES",
        "PhaseRemapPass", "PhaseProfilesPass", "phase_plan", "FunctionPass",
        "default_pipeline", "default_passes", "alignment_passes", "provider_of",
    )
    for rel, text in _sources():
        for name in gone:
            assert name not in text, (rel, name)
        assert not re.search(r"\b_worker\b|\b_payload\b|\.stats\[", text), rel
        # ReplicationFixpointPass stays; the base class it named went.
        assert not re.search(r"\bFixpointPass\b", text), rel


def test_the_pipeline_has_no_settings():
    """One chain: ``Pipeline()`` takes nothing, a run or an explanation
    names its goal, and a replan runs the same chain."""
    from repro.passes import Pipeline, replan

    assert list(inspect.signature(Pipeline).parameters) == []
    for method in (Pipeline.run, Pipeline.explain):
        goal = inspect.signature(method).parameters["goal"]
        assert goal.default is inspect.Parameter.empty, method
    assert "pipeline" not in inspect.signature(replan).parameters


def _public_callables(package):
    """``(qualified name, callable)`` for every public function, class and
    public method defined under ``package``."""
    modules = [package]
    if hasattr(package, "__path__"):
        modules += [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
        ]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("repro"):
                continue
            if inspect.isclass(obj) and issubclass(obj, BaseException):
                continue  # an exception's signature is its builtin's
            yield f"{obj.__module__}.{obj.__qualname__}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and callable(member):
                        yield f"{obj.__module__}.{obj.__qualname__}.{attr}", member


def test_only_align_and_distribute_takes_distrib_options():
    """The machine is ``(nprocs, topology)`` everywhere but one wrapper."""
    takers = set()
    for package in (repro.align.pipeline, repro.batch, repro.serve):
        for name, obj in _public_callables(package):
            if "distrib_options" in inspect.signature(obj).parameters:
                takers.add(name)
    assert takers == {"repro.align.pipeline.align_and_distribute"}
    assert not hasattr(repro.batch, "plan_one") and not hasattr(repro, "plan_one")
