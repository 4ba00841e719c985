"""repro — Mobile and replicated alignment of arrays in data-parallel programs.

A complete reproduction of Chatterjee, Gilbert & Schreiber (SC'93):
automatic determination of loop-dependent (*mobile*) array alignments
and of *replicated* alignments that minimize residual communication in
data-parallel programs.

Quickstart::

    from repro import parse, align_program

    program = parse('''
    real A(100,100), V(200)
    do k = 1, 100
      A(k,1:100) = A(k,1:100) + V(k:k+99)
    enddo
    ''')
    plan = align_program(program)
    print(plan.report())

Subpackages:

* :mod:`repro.lang` — the Fortran-90-like mini language (parser,
  typechecker, reference programs);
* :mod:`repro.ir` — affine forms, polynomials, iteration spaces,
  closed-form sums;
* :mod:`repro.adg` — the alignment-distribution graph;
* :mod:`repro.align` — the paper's contribution: axis/stride labeling,
  the five mobile-offset algorithms, replication labeling by min-cut,
  and the full pipeline;
* :mod:`repro.passes` — the staged planning pipeline: every phase a
  pass with requires/provides artifact contracts, one fixed chain run by
  an instrumented, prefix-reusable ``Pipeline`` over a ``PlanContext``
  (a fork of a solved prefix re-executes only the machine-dependent
  suffix for another machine);
* :mod:`repro.solvers` — the LP model HiGHS solves, and max-flow/min-cut;
* :mod:`repro.topology` — pluggable machine interconnects (grid, torus,
  ring, hypercube, hierarchical) whose per-axis hop metrics price every
  data movement; the grid default is the paper's L1 machine;
* :mod:`repro.machine` — a distributed-memory machine simulator that
  measures the communication the alignments imply;
* :mod:`repro.distrib` — automatic distribution planning (the phase the
  paper defers): per-axis HPF scheme + processor-grid search over a
  communication cost model exact against the simulator, priced per
  topology;
* :mod:`repro.batch` — batched planning of program corpora over a
  process pool, with memoized hot kernels (:mod:`repro.cachestats`) and
  generated workloads (:mod:`repro.lang.generate`).
"""

from .lang import parse, pretty, typecheck
from .lang import programs
from .adg import build_adg
from .align import (
    Alignment,
    AlignmentPlan,
    align_and_distribute,
    align_program,
    label_replication,
    solve_axis_stride,
    solve_mobile_offsets,
    total_cost,
)
from .topology import Topology, default_topology, parse_topology
from .machine import Distribution, measure_plan, run_program
from .distrib import DistributionPlan, build_profile, plan_distribution
from .batch import BatchReport, PlanResult, plan_many
from .passes import MachineSpec, Pipeline, PlanContext
from .obs import TraceRecorder

__version__ = "1.5.0"

__all__ = [
    "parse",
    "pretty",
    "typecheck",
    "programs",
    "build_adg",
    "Alignment",
    "AlignmentPlan",
    "align_and_distribute",
    "align_program",
    "label_replication",
    "solve_axis_stride",
    "solve_mobile_offsets",
    "total_cost",
    "Topology",
    "default_topology",
    "parse_topology",
    "Distribution",
    "measure_plan",
    "run_program",
    "DistributionPlan",
    "build_profile",
    "plan_distribution",
    "BatchReport",
    "PlanResult",
    "plan_many",
    "MachineSpec",
    "Pipeline",
    "PlanContext",
    "TraceRecorder",
    "__version__",
]
