"""Tests for the paper's Section 6 extensions that this library implements,
plus robustness on gnarlier program shapes.

* control weights: expected realignment cost under branch probabilities
  (the c_e of Section 6's arbitrary-control-flow discussion);
* sequences of loops, loops after straight-line code, negative steps;
* replication hints (lookup tables) end to end.
"""

from fractions import Fraction

import pytest

from repro.adg import build_adg
from repro.align import align_program, total_cost
from repro.lang import parse
from repro.lang import programs


class TestControlWeights:
    def test_branch_probability_scales_cost(self):
        """A misalignable statement inside a rare branch should cost its
        probability times the unconditional cost."""
        src_template = """
real A(100), B(100)
if (rare) then
  A(1:99) = B(2:100)
endif
A(1:99) = B(1:99)
"""
        prog_rare = parse(src_template)
        # prob defaults to 0.5; rebuild with prob 0.1 on the AST
        from repro.lang import ast as A

        def with_prob(p, prob):
            body = tuple(
                A.If(s.cond, s.then_body, s.else_body, prob)
                if isinstance(s, A.If)
                else s
                for s in p.body
            )
            return A.Program(p.decls, body, p.name)

        cost_half = align_program(with_prob(prog_rare, 0.5)).total_cost
        cost_tenth = align_program(with_prob(prog_rare, 0.1)).total_cost
        cost_nine = align_program(with_prob(prog_rare, 0.9)).total_cost
        # The conflicting requirements (B-1 vs B+0) force someone to pay;
        # the optimizer sides with the likelier branch.
        assert cost_tenth <= cost_half <= cost_nine * 2
        assert cost_tenth < cost_nine

    def test_expected_cost_uses_weights(self):
        prog = parse(
            """
real A(100), B(100)
if (c) then
  A(1:99) = B(2:100)
else
  A(1:99) = B(1:99)
endif
"""
        )
        plan = align_program(prog)
        # Either branch alone is alignable; the merge forces a choice, and
        # total cost must be at most one branch's worth times its weight.
        assert plan.total_cost <= Fraction(99)


class TestProgramShapes:
    def test_two_sequential_loops(self):
        prog = parse(
            """
real A(64,64), V(128)
do k = 1, 32
  A(k,1:64) = A(k,1:64) + V(k:k+63)
enddo
do j = 1, 32
  A(j,1:64) = A(j,1:64) + V(j:j+63)
enddo
"""
        )
        plan = align_program(prog, replication=False)
        assert plan.total_cost > 0
        plan.adg.validate()

    def test_loop_after_straightline(self):
        prog = parse(
            """
real A(32), B(32)
A = B
do k = 1, 8
  A(1:31) = A(1:31) + B(2:32)
enddo
"""
        )
        plan = align_program(prog)
        # A=B wants B at offset 0; the loop wants B at -1 (8 iterations of
        # 31 elements = 248 if unmet).  The optimizer must side with the
        # loop and pay only the one-time 32-element copy realignment.
        assert plan.total_cost == 32

    def test_negative_step_loop_pipeline(self):
        prog = parse(
            """
real A(64,64), V(128)
do k = 64, 1, -1
  A(k,1:64) = A(k,1:64) + V(k:k+63)
enddo
"""
        )
        plan = align_program(prog, replication=False)
        # mobility works backwards too
        assert plan.total_cost < 64 * 128 * 64

    def test_strided_loop(self):
        prog = parse(
            """
real A(64,64), V(128)
do k = 1, 64, 4
  A(k,1:64) = A(k,1:64) + V(k:k+63)
enddo
"""
        )
        plan = align_program(prog, replication=False)
        assert plan.total_cost >= 0

    def test_imperfect_nest(self):
        prog = parse(
            """
real A(16,16), R(16), V(32)
do i = 1, 16
  R(i) = sum(A(i,1:16))
  do j = 1, 8
    A(i,j:j+8) = A(i,j:j+8) + V(j:j+8)
  enddo
enddo
"""
        )
        plan = align_program(prog, replication=False)
        plan.adg.validate()

    def test_whole_array_copy_chain(self):
        prog = parse("real A(16), B(16), C(16)\nB = A\nC = B\nA = C")
        plan = align_program(prog)
        assert plan.total_cost == 0

    def test_self_assign(self):
        prog = parse("real A(16)\nA = A")
        assert align_program(prog).total_cost == 0


class TestLookupTables:
    def test_hinted_table_replicates(self):
        plan = align_program(programs.lookup_table(n=64, m=32))
        src = plan.source_alignments()
        # The hinted table's source is pinned R by rule 4.
        assert plan.replication is not None
        tab_ports = [
            p
            for p in plan.adg.ports()
            if p.node.label == "source(tab)" and p.is_output
        ]
        assert tab_ports
        # axis 0 is tab's body axis so only higher axes could replicate;
        # with template rank 1 the hint is moot but the pipeline must not
        # crash and the gather stays general-comm-free on the table edge.
        assert plan.total_cost == 0


def test_total_cost_helper_matches_plan():
    prog = programs.example1()
    plan = align_program(prog)
    assert total_cost(plan.adg, plan.alignments) == plan.total_cost
