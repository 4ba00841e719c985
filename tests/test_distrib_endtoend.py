"""End-to-end acceptance tests for automatic distribution planning.

The issue's bar: on the bundled example programs the auto-planner's
chosen distribution achieves modeled cost no worse than the best of the
three naive uniform distributions (all-block, all-cyclic, identity),
and the cost model agrees with ``machine.executor`` measured hop counts
— exactly — under the identity distribution (and, stronger, under the
planned distribution too).
"""

import pytest

from conftest import evaluate
from repro import align_and_distribute, align_program
from repro.distrib import build_profile, naive_costs, plan_distribution
from repro.lang import programs
from repro.machine import Distribution, measure_traffic
from repro.topology import parse_topology

# At least 3 example programs, per the acceptance criteria.
EXAMPLES = [
    ("figure1", lambda: programs.figure1(n=16), dict(replication=False)),
    ("stencil", lambda: programs.stencil_sweep(n=48, iters=3),
     dict(replication=False)),
    ("wavefront", lambda: programs.skewed_wavefront(n=10),
     dict(replication=False)),
    ("figure4", lambda: programs.figure4(nt=8, nk=6), {}),
    ("example5", lambda: programs.example5(iters=10, m=6),
     dict(replication=False)),
]


def _planned(make, kw, nprocs=4):
    plan = align_program(make(), **kw)
    profile = build_profile(plan.adg, plan.alignments)
    return plan, profile, plan_distribution(profile, nprocs)


class TestAcceptance:
    @pytest.mark.parametrize("name,make,kw", EXAMPLES)
    def test_auto_beats_or_matches_naive(self, name, make, kw):
        _, profile, dplan = _planned(make, kw)
        best_naive = min(c.hops for c in naive_costs(profile, 4).values())
        assert dplan.cost.hops <= best_naive, name
        if name == "figure1":
            # The search is not vacuous: the mobile V alignment makes a
            # skewed grid strictly better than every uniform scheme.
            assert dplan.cost.hops < best_naive

    @pytest.mark.parametrize("name,make,kw", EXAMPLES)
    def test_model_exact_under_identity(self, name, make, kw):
        plan, profile, _ = _planned(make, kw)
        ident = Distribution.identity(profile.template_rank)
        modeled = evaluate(profile, ident)
        measured = measure_traffic(plan.adg, plan.alignments, ident)
        assert modeled.hops == measured.hop_cost, name
        # and the identity machine realizes the paper's equation-1 cost:
        # hops plus the once-charged broadcast volume plus the
        # discrete-metric charge of general moves (which carry no
        # topological hop cost)
        assert (
            measured.hop_cost
            + measured.broadcast_elements
            + measured.general_elements
            == plan.total_cost
        ), name

    @pytest.mark.parametrize("name,make,kw", EXAMPLES)
    def test_model_exact_under_planned_distribution(self, name, make, kw):
        plan, _, dplan = _planned(make, kw)
        measured = measure_traffic(
            plan.adg, plan.alignments, dplan.to_distribution()
        )
        assert dplan.cost.hops == measured.hop_cost, name
        assert dplan.cost.moved == measured.elements_moved, name
        assert dplan.cost.broadcast == measured.broadcast_elements, name


class TestPipelineIntegration:
    def test_align_and_distribute_attaches_plan(self):
        plan = align_and_distribute(
            programs.figure1(n=12), 4, replication=False
        )
        assert plan.distribution is not None
        assert plan.distribution.num_processors == 4
        assert "DISTRIBUTE" in plan.report()

    def test_distrib_options_forwarded(self):
        plan = align_and_distribute(
            programs.stencil_sweep(n=24, iters=2),
            4,
            distrib_options=dict(topology="ring:4"),
            replication=False,
        )
        profile = build_profile(plan.adg, plan.alignments)
        ring = parse_topology("ring:4")
        assert plan.distribution == plan_distribution(profile, 4, topology=ring)
        assert plan.distribution.topology == "ring:4"

    def test_plain_align_has_no_distribution(self):
        plan = align_program(programs.example1(n=8))
        assert plan.distribution is None
        assert "DISTRIBUTE" not in plan.report()
