"""Differential harness: every planner cross-checked against the simulator.

For every generated scenario (all families of :mod:`repro.lang.generate`,
fixed seeds):

* the pipeline's analytic equation-1 cost equals the machine simulator's
  measured cost under the identity distribution — hops plus broadcasts
  plus the discrete-metric charge of general moves (which carry no
  topological hop cost);
* the compiled :class:`~repro.distrib.CommProfile` agrees with the
  executor's counts exactly — general edges included — under both the
  identity distribution and the planner's chosen distribution;
* the distribution planner's exact per-axis argmin agrees with an
  independent reference planner built on the scalar evaluators only,
  and no distribution in the whole cross-product space beats it;
* both equalities hold on every machine model: for each scenario family
  and each sampled topology (grid, torus, ring, hypercube,
  hierarchical), analytic cost == simulator cost under the identity
  distribution and under the per-topology planned distribution.

These are the oracles that let the batch engine trust its numbers: any
memoization or refactor that shifts a cost breaks one of these
equalities immediately.
"""

from __future__ import annotations

import pytest

from conftest import candidate_spaces, evaluate
from repro.align import align_program
from repro.distrib import plan_distribution, rank_plans
from repro.lang.generate import (
    FAMILIES,
    generate_corpus,
    generate_scenario,
    topology_corpus,
)
from repro.machine import Distribution
from repro.machine.executor import measure_traffic
from repro.topology import parse_topology

SEED = 0
CORPUS = generate_corpus(28, seed=SEED)
NPROCS = 4
# One machine per kind, all sized for NPROCS processors.
TOPOLOGIES = topology_corpus(5, seed=SEED, nprocs=NPROCS)


def _ids(corpus):
    return [sc.name for sc in corpus]


@pytest.fixture(scope="module")
def planned():
    """Plan every corpus scenario once; share across the harness.

    Runs through the staged pass pipeline (goal ``"profile"``) — the
    same path the wrappers, CLI and batch engine use — so every
    equality below also certifies the pipeline's artifacts.
    """
    from repro.align.pipeline import plan_context
    from repro.passes import Pipeline

    pipeline = Pipeline()
    out = {}
    for sc in CORPUS:
        ctx = pipeline.run(plan_context(sc.parse()), goal="profile")
        out[sc.name] = (ctx.get("plan"), ctx.get("profile"))
    return out


@pytest.mark.parametrize("scenario", CORPUS, ids=_ids(CORPUS))
def test_analytic_cost_matches_simulator_identity(scenario, planned):
    plan, profile = planned[scenario.name]
    rep = measure_traffic(
        plan.adg, plan.alignments, Distribution.identity(plan.adg.template_rank)
    )
    # Unconditional: general moves carry the discrete-metric charge in
    # general_elements (and zero hops), so the equation-1 identity holds
    # even on programs with general communication.
    assert (
        plan.total_cost
        == rep.hop_cost + rep.broadcast_elements + rep.general_elements
    ), scenario.name
    # The profile equality is unconditional too (general edges are
    # priced identically by model and simulator).
    cv = evaluate(profile, Distribution.identity(profile.template_rank))
    assert cv.hops == rep.hop_cost, scenario.name
    assert cv.moved == rep.elements_moved, scenario.name
    assert cv.broadcast == rep.broadcast_elements, scenario.name


@pytest.mark.parametrize("scenario", CORPUS, ids=_ids(CORPUS))
def test_exact_plan_never_beaten_by_any_candidate(scenario, planned):
    """Brute force over the whole cross-product space: no candidate
    distribution of any grid prices fewer hops than the planner's
    per-axis argmin, and the plan is one of those candidates."""
    import itertools

    _, profile = planned[scenario.name]
    plan = plan_distribution(profile, NPROCS)
    assert plan.exact, scenario.name
    costs = {
        combo: evaluate(profile, Distribution(combo))
        for _, cands in candidate_spaces(profile, NPROCS)
        for combo in itertools.product(*cands)
    }
    assert len(costs) == plan.searched, scenario.name
    assert costs[plan.axes] == plan.cost, scenario.name
    assert plan.cost.hops == min(c.hops for c in costs.values()), scenario.name


@pytest.mark.parametrize("scenario", CORPUS, ids=_ids(CORPUS))
def test_model_exact_under_planned_distribution(scenario, planned):
    plan, profile = planned[scenario.name]
    dplan = plan_distribution(profile, NPROCS)
    measured = measure_traffic(
        plan.adg, plan.alignments, dplan.to_distribution()
    )
    assert dplan.cost.hops == measured.hop_cost, scenario.name
    assert dplan.cost.moved == measured.elements_moved, scenario.name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_covered_without_replication(family):
    """The harness also holds with replication disabled (the fuzz
    regime), per family, on an independent seed."""
    sc = generate_scenario(97, family=family)
    plan = align_program(sc.parse(), replication=False)
    rep = measure_traffic(
        plan.adg, plan.alignments, Distribution.identity(plan.adg.template_rank)
    )
    assert (
        plan.total_cost
        == rep.hop_cost + rep.broadcast_elements + rep.general_elements
    )


@pytest.mark.parametrize("spec", TOPOLOGIES, ids=TOPOLOGIES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_on_every_topology(family, spec, planned):
    """Analytic cost == simulator cost per topology: the compiled
    profile and the executor must agree hop for hop on every machine
    model, both under the identity distribution and under the plan the
    topology-aware planner actually picks."""
    scenario = next(sc for sc in CORPUS if sc.family == family)
    plan, profile = planned[scenario.name]
    topo = parse_topology(spec)
    ident = Distribution.identity(profile.template_rank)
    rep = measure_traffic(plan.adg, plan.alignments, ident, topology=topo)
    cv = evaluate(profile, ident, topo)
    assert cv.hops == rep.hop_cost, (family, spec)
    assert cv.moved == rep.elements_moved, (family, spec)
    assert cv.broadcast == rep.broadcast_elements, (family, spec)
    dplan = plan_distribution(profile, topo.nprocs, topology=topo)
    measured = measure_traffic(
        plan.adg, plan.alignments, dplan.to_distribution(), topology=topo
    )
    assert dplan.cost.hops == measured.hop_cost, (family, spec)
    assert dplan.cost.moved == measured.elements_moved, (family, spec)


def _candidate_front(profile, nprocs, topology, cap=96):
    """Full candidate distributions from the planner's own enumeration:
    every per-axis scheme crossed per grid shape, capped for test time."""
    import itertools

    dists = []
    for _, cands in candidate_spaces(profile, nprocs, topology=topology):
        for combo in itertools.product(*cands):
            dists.append(Distribution(combo))
            if len(dists) >= cap:
                return dists
    return dists


@pytest.mark.parametrize("spec", TOPOLOGIES, ids=TOPOLOGIES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_front_pricing_matches_scalar_and_simulator(family, spec, planned):
    """The vectorized front == the scalar oracle == the simulator.

    For every scenario family on every topology family, the whole
    candidate enumeration is priced once through
    :func:`~repro.distrib.vectorized.evaluate_front`; every row must
    equal the scalar ``profile.evaluate`` exactly, and sampled rows are
    additionally replayed on the machine simulator."""
    from repro.distrib import evaluate_front

    scenario = next(sc for sc in CORPUS if sc.family == family)
    plan, profile = planned[scenario.name]
    topo = parse_topology(spec)
    dists = _candidate_front(profile, topo.nprocs, topo)
    assert dists, (family, spec)
    matrix = evaluate_front(profile, dists, topo)
    assert matrix.shape == (len(dists), 3)
    for i, dist in enumerate(dists):
        cv = evaluate(profile, dist, topo)
        assert tuple(int(x) for x in matrix[i]) == (
            cv.hops,
            cv.moved,
            cv.broadcast,
        ), (family, spec, i)
    for i in {0, len(dists) // 2, len(dists) - 1}:
        rep = measure_traffic(
            plan.adg, plan.alignments, dists[i], topology=topo
        )
        assert int(matrix[i][0]) == rep.hop_cost, (family, spec, i)
        assert int(matrix[i][1]) == rep.elements_moved, (family, spec, i)
        assert int(matrix[i][2]) == rep.broadcast_elements, (family, spec, i)


def _assert_planner_is_reference(profile, nprocs, topology, reference, where):
    """plan_distribution and rank_plans pick the plans the scalar-oracle
    reference planner picks — axes, cost, exactness and search count."""
    got = plan_distribution(profile, nprocs, topology=topology)
    assert got == reference.plan_distribution(profile, nprocs, topology), where
    ranked = rank_plans(profile, nprocs, k=4, topology=topology)
    assert ranked == reference.rank_plans(profile, nprocs, 4, topology), where


@pytest.mark.parametrize("scenario", CORPUS, ids=_ids(CORPUS))
def test_planner_and_reference_planner_agree_exactly(
    scenario, planned, reference_planner
):
    _, profile = planned[scenario.name]
    _assert_planner_is_reference(
        profile, NPROCS, None, reference_planner, scenario.name
    )


@pytest.mark.parametrize("spec", TOPOLOGIES, ids=TOPOLOGIES)
def test_planner_agrees_with_reference_on_every_topology(
    spec, planned, reference_planner
):
    topo = parse_topology(spec)
    for scenario in CORPUS[:6]:
        _, profile = planned[scenario.name]
        _assert_planner_is_reference(
            profile, topo.nprocs, topo, reference_planner, (scenario.name, spec)
        )


def _single_edit(program):
    """One deterministic single-statement edit: flip the first additive
    operator; programs without one get their first statement duplicated."""
    import dataclasses

    from repro.lang import ast as A

    def flip(e):
        if isinstance(e, A.BinOp):
            if e.op in "+-":
                return dataclasses.replace(
                    e, op="-" if e.op == "+" else "+"
                )
            left = flip(e.left)
            if left is not None:
                return dataclasses.replace(e, left=left)
            right = flip(e.right)
            if right is not None:
                return dataclasses.replace(e, right=right)
        elif isinstance(
            e, (A.UnaryOp, A.Intrinsic, A.Transpose, A.Spread, A.Reduce)
        ):
            operand = flip(e.operand)
            if operand is not None:
                return dataclasses.replace(e, operand=operand)
        return None

    def edit_stmt(s):
        if isinstance(s, A.Assign):
            rhs = flip(s.rhs)
            if rhs is not None:
                return dataclasses.replace(s, rhs=rhs)
        elif isinstance(s, A.Do):
            for j, b in enumerate(s.body):
                r = edit_stmt(b)
                if r is not None:
                    return dataclasses.replace(
                        s, body=s.body[:j] + (r,) + s.body[j + 1 :]
                    )
        return None

    for i, s in enumerate(program.body):
        r = edit_stmt(s)
        if r is not None:
            return dataclasses.replace(
                program, body=program.body[:i] + (r,) + program.body[i + 1 :]
            )
    return dataclasses.replace(
        program, body=program.body + (program.body[-1],)
    )


@pytest.mark.parametrize("scenario", CORPUS[:10], ids=_ids(CORPUS[:10]))
def test_incremental_replan_matches_scratch(scenario):
    """Edit pairs: a single-statement edit replanned incrementally via
    the delta engine yields the byte-identical payload of a from-scratch
    plan, and the incremental plan still satisfies the equation-1
    simulator oracle."""
    import pickle

    from repro.align.pipeline import plan_context, plan_facts
    from repro.batch.engine import machine_label
    from repro.passes import MachineSpec, Pipeline, replan

    def _payload(name, label, ctx):
        return {"name": name, "machine": label, **plan_facts(ctx)}

    def scratch_plan(p):
        ctx = plan_context(p)
        ctx.put("machine", MachineSpec.of(NPROCS))
        Pipeline().run(ctx, goal=("plan", "distribution"))
        return ctx

    program = scenario.parse()
    base = scratch_plan(program)
    edited = _single_edit(program)
    new_ctx, _ = replan(base, program=edited, goal=("plan", "distribution"))
    scratch = scratch_plan(edited)
    label = machine_label(NPROCS, None)
    assert pickle.dumps(_payload(scenario.name, label, new_ctx)) == (
        pickle.dumps(_payload(scenario.name, label, scratch))
    ), scenario.name
    plan = new_ctx.get("plan")
    rep = measure_traffic(
        plan.adg, plan.alignments, Distribution.identity(plan.adg.template_rank)
    )
    assert (
        plan.total_cost
        == rep.hop_cost + rep.broadcast_elements + rep.general_elements
    ), scenario.name


def test_batch_engine_verify_flag_agrees():
    """plan_many's built-in verifier reproduces the harness verdicts."""
    from repro.batch import plan_many

    report = plan_many(CORPUS[:8], nprocs=NPROCS, serial=True, verify=True)
    assert not report.failures
    assert all(r.verified for r in report.results)
