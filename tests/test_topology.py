"""Unit and property tests for the pluggable topology subsystem.

Covers the registry + spec parser (round-trips, loud rejection of
malformed specs), the metric axioms on random cells for every topology,
the zero-hop contract of general communication, and the end-to-end
guarantees: the grid topology reproduces the default machine
bit-for-bit, while non-grid machines can — and provably do — change the
planner's chosen distribution.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import align_program
from repro.distrib import build_profile, naive_costs, plan_distribution
from repro.lang import parse, programs
from repro.lang.generate import (
    TOPOLOGY_KINDS,
    generate_corpus,
    sample_topology,
    topology_corpus,
)
from repro.machine import Distribution, MoveCount, count_move, measure_traffic
from repro.machine.comm import _axis_positions  # noqa: F401 - import check
from repro.topology import (
    GridTopology,
    HammingAxis,
    HierarchicalTopology,
    HypercubeTopology,
    LinearAxis,
    RingAxis,
    RingTopology,
    TorusTopology,
    TwoLevelAxis,
    default_topology,
    distribution_metrics,
    parse_topology,
    topology_kinds,
)

ALL_SPECS = [
    "grid",
    "grid:8",
    "grid:4x4",
    "torus:4x4",
    "torus:8",
    "ring:8",
    "hypercube:16",
    "hypercube:4x4",
    "hier:2x2/4x4",
    "hier:(torus:2x2)/(grid:4x4)@8",
    "hier:(hier:(grid:2)/(grid:2)@2)/(grid:4)@8",
]

MALFORMED = [
    "",
    "   ",
    "bogus:4",
    "grid:",
    "grid:0x4",
    "grid:-2",
    "grid:axb",
    "grid:4x",
    "torus:",
    "ring:4x4",
    "ring:",
    "hypercube:12",
    "hypercube:0",
    "hier:",
    "hier:4",
    "hier:2/2/2",
    "hier:(grid:2/(grid:2)",
    "hier:(grid:2))/(grid:2)",
    "hier:2/2@x",
    "hier:2x2/4",  # rank mismatch between levels
]


class TestRegistryAndParser:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_spec_round_trip(self, spec):
        t = parse_topology(spec)
        again = parse_topology(t.spec())
        assert again == t
        assert again.spec() == t.spec()

    @pytest.mark.parametrize("spec", MALFORMED)
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_topology(spec)

    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(ValueError, match="known kinds"):
            parse_topology("moebius:4")
        assert set(TOPOLOGY_KINDS) == set(topology_kinds())

    def test_shorthand_hier_levels_are_grids(self):
        t = parse_topology("hier:2x2/4x4")
        assert isinstance(t, HierarchicalTopology)
        assert t.outer == GridTopology((2, 2))
        assert t.inner == GridTopology((4, 4))
        assert t.shape == (8, 8)
        assert t.inter_cost == 4  # the default

    def test_default_topology_is_unbounded_grid(self):
        t = default_topology()
        assert isinstance(t, GridTopology)
        assert t.shape == ()
        assert t.spec() == "grid"
        assert "unbounded" in t.describe()

    def test_describe_mentions_shape_and_processors(self):
        d = parse_topology("torus:4x4").describe()
        assert "torus" in d and "4x4" in d and "16 processors" in d


class TestMetricAxioms:
    """Identity, symmetry and the triangle inequality on random cells."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_axioms_on_random_cells(self, spec):
        t = parse_topology(spec)
        rank = max(1, t.rank)
        rng = random.Random(hash(spec) & 0xFFFF)
        cells = [
            tuple(rng.randrange(0, 32) for _ in range(rank)) for _ in range(24)
        ]
        for a in cells:
            assert t.distance(a, a) == 0  # identity
        for a, b, c in zip(cells, cells[1:], cells[2:]):
            dab = t.distance(a, b)
            assert dab == t.distance(b, a)  # symmetry
            assert dab >= 0
            # triangle inequality
            assert t.distance(a, c) <= dab + t.distance(b, c)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_vectorized_metric_hops_match_scalar_distance(self, spec):
        # The per-axis kernels the front pricing calls, summed over the
        # machine's own grid, equal its scalar cell distance.
        t = parse_topology(spec)
        rank = max(1, t.rank)
        rng = np.random.default_rng(abs(hash(spec)) % (2**32))
        a = [rng.integers(0, 32, size=50) for _ in range(rank)]
        b = [rng.integers(0, 32, size=50) for _ in range(rank)]
        metrics = t.metrics(t._grid_for_rank(rank))
        hops = sum(m.hops(x, y) for m, x, y in zip(metrics, a, b))
        for i in range(50):
            pa = tuple(int(x[i]) for x in a)
            pb = tuple(int(x[i]) for x in b)
            assert hops[i] == t.distance(pa, pb)

    def test_rank_mismatch_reports_both_ranks(self):
        with pytest.raises(ValueError, match="rank 2 vs rank 3"):
            parse_topology("grid").distance((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="rank 1 vs rank 2"):
            parse_topology("torus:4x4").distance((1,), (1, 2))


class TestAxisMetrics:
    def test_linear_is_absolute_difference(self):
        m = LinearAxis()
        assert list(m.hops(np.array([0, 5, -3]), np.array([4, 5, 3]))) == [4, 0, 6]

    def test_ring_wraps_the_short_way(self):
        m = RingAxis(8)
        assert m.distance(0, 7) == 1
        assert m.distance(1, 5) == 4
        assert m.distance(-1, 0) == 1  # cells fold onto the ring

    def test_hamming_gray_adjacency(self):
        """Consecutive coordinates are 1 hop — Gray coding's point."""
        m = HammingAxis(16)
        for i in range(15):
            assert m.distance(i, i + 1) == 1
        assert m.distance(15, 0) == 1  # the Gray cycle closes
        # never exceeds the cube dimension
        assert max(m.distance(a, b) for a in range(16) for b in range(16)) == 4

    def test_hamming_hops_equal_the_bitwise_distance_up_to_4096(self):
        """Coordinates past 255 take the table popcount's second byte."""
        rng = np.random.default_rng(7)
        for k in range(13):
            p = 2**k
            m = HammingAxis(p)
            a = rng.integers(-3 * p, 3 * p, size=400)
            b = rng.integers(-3 * p, 3 * p, size=400)
            gray = [(x % p) ^ (x % p) >> 1 for x in a.tolist()]
            other = [(y % p) ^ (y % p) >> 1 for y in b.tolist()]
            want = [bin(g ^ h).count("1") for g, h in zip(gray, other)]
            assert m.hops(a, b).tolist() == want
            assert [m.distance(x, y) for x, y in zip(a[:20].tolist(), b[:20].tolist())] == want[:20]

    def test_hamming_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            HammingAxis(6)

    def test_two_level_charges_inter_node(self):
        m = TwoLevelAxis(
            node=4, inter_cost=10, outer=LinearAxis(), inner=LinearAxis()
        )
        assert m.distance(0, 3) == 3  # same node
        assert m.distance(3, 4) == 10 + 3  # next node, opposite slots
        assert m.distance(0, 4) == 10  # same slot, adjacent nodes

    def test_torus_bisection_doubles_grid(self):
        g = parse_topology("grid:4x4")
        t = parse_topology("torus:4x4")
        assert t.bisection_bandwidth() == 2 * g.bisection_bandwidth()
        assert parse_topology("hypercube:16").bisection_bandwidth() == 8
        assert parse_topology("ring:8").bisection_bandwidth() == 2

    def test_hypercube_supports_only_power_of_two_axes(self):
        h = parse_topology("hypercube:16")
        assert h.supports_grid((2, 8))
        assert h.supports_grid((4, 4))
        assert not h.supports_grid((3, 5))

    def test_hier_supports_grid_uses_per_axis_node_sizes(self):
        """Regression: realizability must consult the same per-axis
        node extent axis_metric prices with, not axis 0's."""
        t = parse_topology("hier:(hypercube:2x2)/(grid:1x3)@4")
        # axis 1 has 3-core nodes: 3 and 6 logical procs span 1 and 2
        # nodes — both realizable on the 2-node hypercube fabric.
        assert t.supports_grid((2, 6))
        assert t.supports_grid((1, 12))
        assert t.supports_grid((4, 3))
        # 12 procs on axis 1 = 4 nodes > the 2 the outer fabric has?
        # ceil(12/3)=4 is a power of two, so the hypercube folds it.
        # axis 0 has 1-core nodes: 3 procs = 3 nodes, not a power of 2.
        assert not t.supports_grid((3, 4))
        # every supported grid must also be priceable
        for grid in [(2, 6), (1, 12), (4, 3)]:
            for m in t.metrics(grid):
                assert m.hops(np.arange(4), np.arange(4)).sum() == 0

    def test_distribution_metrics_uses_scheme_processor_counts(self):
        from repro.machine import Block, Identity

        t = parse_topology("torus:8")
        dist = Distribution((Block(nprocs=4, block=2),))
        (m,) = distribution_metrics(t, dist)
        assert m == RingAxis(4)  # the logical axis, not the physical 8
        ident = Distribution((Identity(),))
        (mi,) = distribution_metrics(t, ident)
        assert mi == RingAxis(8)  # identity falls back to the machine axis


class TestGeneralMovesCarryNoHops:
    """Satellite: general communication has no routing distance, so its
    hop cost is zero on every topology and MoveCount.__add__ keeps all
    fields intact."""

    def _general_move(self):
        from repro.align.position import Alignment, AxisAlignment
        from repro.ir import AffineForm

        a = Alignment.canonical(1, 1)
        b = Alignment((AxisAlignment(0, AffineForm(2), AffineForm(0)),))
        return count_move(a, b, (10,), {}, Distribution.identity(1))

    def test_general_move_has_zero_hops(self):
        mc = self._general_move()
        assert mc.general
        assert mc.hop_cost == 0
        assert mc.elements_moved == 10
        assert mc.general_elements == 10

    def test_add_preserves_every_field(self):
        mc = self._general_move()
        shifted = MoveCount(
            elements=5, elements_moved=5, hop_cost=15, broadcast_elements=2
        )
        total = mc + shifted
        assert total.elements == 15
        assert total.elements_moved == 15
        assert total.hop_cost == 15  # only the non-general part
        assert total.broadcast_elements == 2
        assert total.general
        assert total.general_elements == 10

    def test_traffic_report_general_elements(self):
        plan = align_program(programs.example5(iters=10, m=6), replication=False)
        rep = measure_traffic(
            plan.adg,
            plan.alignments,
            Distribution.identity(plan.adg.template_rank),
        )
        assert rep.general_edges > 0
        assert all(
            t.count.hop_cost == 0 for t in rep.edges if t.count.general
        )
        # the equation-1 identity holds even with general edges
        assert (
            rep.hop_cost + rep.broadcast_elements + rep.general_elements
            == plan.total_cost
        )


class TestMetricRouting:
    """Satellite: align.metric routes through the topology default."""

    def test_grid_error_names_both_ranks(self):
        from fractions import Fraction

        from repro.align.metric import grid

        with pytest.raises(ValueError, match="rank 1 vs rank 2"):
            grid((Fraction(1),), (Fraction(1), Fraction(2)))

    def test_grid_still_exact_on_fractions(self):
        from fractions import Fraction

        from repro.align.metric import grid

        d = grid((Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(1)))
        assert d == Fraction(7, 2)


class TestPlannerIntegration:
    """The grid topology is bit-for-bit the default machine; non-grid
    machines provably change the chosen plan."""

    NPROCS = 4

    @pytest.fixture(scope="class")
    def profiles(self):
        out = {}
        for name, make, kw in [
            ("figure1", lambda: programs.figure1(n=16), dict(replication=False)),
            ("stencil", lambda: programs.stencil_sweep(n=48, iters=3),
             dict(replication=False)),
        ]:
            plan = align_program(make(), **kw)
            out[name] = (plan, build_profile(plan.adg, plan.alignments))
        return out

    @pytest.mark.parametrize("name", ["figure1", "stencil"])
    def test_grid_topology_identical_to_default(self, name, profiles):
        plan, profile = profiles[name]
        base = plan_distribution(profile, self.NPROCS)
        rank = profile.template_rank
        shape = (self.NPROCS,) if rank == 1 else (2, 2)
        grid = parse_topology("grid:" + "x".join(str(p) for p in shape))
        topo_plan = plan_distribution(profile, self.NPROCS, topology=grid)
        assert topo_plan.axes == base.axes
        assert topo_plan.cost == base.cost
        assert topo_plan.directive() == base.directive()
        # measured traffic agrees too, hop for hop
        dist = base.to_distribution()
        default_rep = measure_traffic(plan.adg, plan.alignments, dist)
        grid_rep = measure_traffic(
            plan.adg, plan.alignments, dist, topology=grid
        )
        assert default_rep.hop_cost == grid_rep.hop_cost
        assert default_rep.elements_moved == grid_rep.elements_moved

    @pytest.mark.parametrize("spec", ["torus:4", "ring:4", "hypercube:4",
                                      "hier:(grid:2)/(grid:2)@8"])
    def test_model_exact_on_every_topology(self, spec, profiles):
        plan, profile = profiles["stencil"]
        topo = parse_topology(spec)
        dplan = plan_distribution(profile, self.NPROCS, topology=topo)
        assert dplan.topology == topo.spec()
        measured = measure_traffic(
            plan.adg, plan.alignments, dplan.to_distribution(), topology=topo
        )
        assert dplan.cost.hops == measured.hop_cost
        assert dplan.cost.moved == measured.elements_moved

    def test_paper_example_changes_plan_on_hierarchical_machine(self, profiles):
        """Figure 1 on a clustered machine picks a different processor
        grid than on the open mesh: the (1, 4) factorization crosses a
        node boundary the (2, 2) one avoids."""
        _, profile = profiles["figure1"]
        base = plan_distribution(profile, self.NPROCS)
        hier = parse_topology("hier:(grid:1x2)/(grid:2x1)@8")
        clustered = plan_distribution(profile, self.NPROCS, topology=hier)
        assert base.exact and clustered.exact
        assert clustered.directive() != base.directive()
        assert base.grid == (1, 4)
        assert clustered.grid == (2, 2)

    def test_long_shift_program_changes_plan_on_hypercube(self):
        """A butterfly-style long shift: the open grid prefers
        CYCLIC(2), the hypercube routes the long jumps in Hamming
        distance and picks plain CYCLIC at half the hop cost."""
        plan = align_program(
            parse("real A(64), B(64)\nB(1:24) = A(1:24) + A(41:64)")
        )
        profile = build_profile(plan.adg, plan.alignments)
        base = plan_distribution(profile, 16)
        cube = plan_distribution(
            profile, 16, topology=parse_topology("hypercube:16")
        )
        assert base.exact and cube.exact
        assert cube.directive() != base.directive()
        assert cube.cost.hops < base.cost.hops

    def test_naive_costs_priced_on_topology(self, profiles):
        _, profile = profiles["stencil"]
        flat = naive_costs(profile, self.NPROCS)
        hier = naive_costs(
            profile,
            self.NPROCS,
            parse_topology("hier:(grid:2)/(grid:2)@8"),
        )
        assert hier["all-block"].hops > flat["all-block"].hops


class TestTopologySampling:
    def test_sample_is_deterministic_and_parseable(self):
        for seed in range(40):
            spec = sample_topology(seed, nprocs=8)
            assert spec == sample_topology(seed, nprocs=8)
            t = parse_topology(spec)
            if t.kind == "hypercube":
                assert t.nprocs == 8
            else:
                assert t.nprocs == 8

    def test_sample_hypercube_rounds_down_to_power_of_two(self):
        spec = sample_topology(3, nprocs=12, kind="hypercube")
        assert spec == "hypercube:8"

    def test_corpus_cycles_kinds_and_keeps_prefix(self):
        specs = topology_corpus(10, seed=1)
        assert [parse_topology(s).kind for s in specs[:5]] == list(
            TOPOLOGY_KINDS
        )
        assert topology_corpus(6, seed=1) == specs[:6]

    def test_sample_rejects_bad_arguments(self):
        with pytest.raises(KeyError):
            sample_topology(0, kind="moebius")
        with pytest.raises(ValueError):
            sample_topology(0, nprocs=0)


class TestBatchCarriesTopology:
    def test_report_and_results_record_topology(self):
        corpus = generate_corpus(6, seed=0)
        report = __import__("repro.batch", fromlist=["plan_many"]).plan_many(
            corpus, nprocs=4, serial=True, verify=True, topology="torus:4"
        )
        assert report.topology == "torus:4"
        assert not report.failures
        assert all(r.verified for r in report.results)
        assert report.to_json()["topology"] == "torus:4"
        assert "topology=torus:4" in report.render()

    def test_bad_spec_fails_fast(self):
        from repro.batch import plan_many

        with pytest.raises(ValueError, match="unknown topology kind"):
            plan_many(["real A(4)\nA = A"], serial=True, topology="bogus:1")


class TestGoldenTopologyPlans:
    """Per-topology chosen plans for two paper examples, pinned to
    tests/golden/topology_*.json (regenerate with --update-golden)."""

    SPECS_1D = ["grid:4", "torus:4", "ring:4", "hypercube:4",
                "hier:(grid:2)/(grid:2)@8"]
    SPECS_2D = ["grid:2x2", "torus:2x2", "hypercube:2x2",
                "hier:(grid:1x2)/(grid:2x1)@8"]

    @pytest.mark.parametrize(
        "name,make,kw,specs",
        [
            ("figure1", lambda: programs.figure1(n=16),
             dict(replication=False), SPECS_2D),
            ("stencil", lambda: programs.stencil_sweep(n=48, iters=3),
             dict(replication=False), SPECS_1D),
        ],
        ids=["figure1", "stencil"],
    )
    def test_plans_match_golden(self, name, make, kw, specs, golden):
        plan = align_program(make(), **kw)
        profile = build_profile(plan.adg, plan.alignments)
        snap = {}
        for spec in specs:
            topo = parse_topology(spec)
            d = plan_distribution(profile, topo.nprocs, topology=topo)
            snap[spec] = {
                "directive": d.directive(),
                "grid": list(d.grid),
                "hops": d.cost.hops,
                "moved": d.cost.moved,
                "exact": d.exact,
                "topology": d.topology,
            }
        golden.check(f"topology_{name}", snap)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**62 - 1), max_size=40))
def test_table_popcount_counts_every_bit(values):
    from repro.topology.models import _popcount

    got = _popcount(np.array(values, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [bin(v).count("1") for v in values]
