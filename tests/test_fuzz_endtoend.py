"""End-to-end fuzzing: random programs through the whole pipeline.

Programs come from the shared scenario generator
(:mod:`repro.lang.generate`) — 2-D arrays, multi-statement loop bodies,
reductions, wavefronts, strides and multi-phase programs, not just the
1-D single-loop fragments the original ad-hoc fuzzer produced.  Seeds
are deterministic: seed ``s`` always denotes the same program.

For each generated (well-formed) program:

* the type checker accepts it and the interpreter executes it;
* the ADG validates structurally;
* the pipeline produces a nonnegative cost with consistent alignments
  (every node constraint holds on the rounded offsets);
* the machine simulator under the identity distribution reproduces the
  analytic equation-1 cost whenever no edge is general communication —
  the strongest cross-module invariant in the library.
"""

import pytest

from repro.align import align_program
from repro.align.constraints import EqualShift, node_offset_relations
from repro.lang import parse, pretty, typecheck
from repro.lang.generate import generate_scenario
from repro.machine import measure_plan, run_program


@pytest.mark.parametrize("seed", range(14))
def test_random_program_pipeline(seed):
    src = generate_scenario(seed).source
    prog = parse(src, name=f"fuzz{seed}")
    typecheck(prog)
    # Round-trip.
    assert pretty(parse(pretty(prog))) == pretty(prog)
    # Semantics run.
    run_program(prog)
    # Pipeline.
    plan = align_program(prog, replication=False)
    plan.adg.validate()
    assert plan.total_cost >= 0
    # Rounded offsets satisfy every EqualShift node constraint exactly.
    skel = plan.axis_stride.skeletons
    for node in plan.adg.nodes:
        for rel in node_offset_relations(node, dict(skel)):
            if isinstance(rel, EqualShift):
                p_off = plan.alignments[rel.p.key].axes[rel.axis].offset
                q_off = plan.alignments[rel.q.key].axes[rel.axis].offset
                assert q_off - p_off == rel.shift, (seed, node.label)
    # Machine validation (identity distribution == equation 1), when no
    # edge is general communication.  Program-forced replication (spread
    # inputs) can survive replication=False, so broadcasts count too.
    rep = measure_plan(plan, scheme="identity")
    if all(not t.count.general for t in rep.edges):
        assert rep.hop_cost + rep.broadcast_elements == plan.total_cost, seed


@pytest.mark.parametrize("seed", range(14, 21))
def test_random_program_static_vs_mobile(seed):
    """Mobility can only help (static is a restriction of mobile)."""
    prog = parse(generate_scenario(seed).source, name=f"fuzz{seed}")
    mobile = align_program(prog, replication=False, algorithm="unrolling")
    static = align_program(
        prog, replication=False, mobile=False, algorithm="unrolling"
    )
    assert mobile.total_cost <= static.total_cost


def test_seeds_are_deterministic():
    """The same seed must yield byte-identical source, run to run."""
    assert generate_scenario(3).source == generate_scenario(3).source
    assert generate_scenario(3).source != generate_scenario(4).source
