"""Automatic distribution planning: the paper's deferred second phase.

The SC'93 paper aligns arrays to a template and explicitly defers the
mapping of template cells onto processors.  This subsystem closes that
gap: given a solved alignment (an :class:`~repro.align.pipeline.AlignmentPlan`'s
ADG + alignment map) and a machine size P, it chooses per template axis
an HPF distribution (block / cyclic / block-cyclic with block size) and
a processor-grid shape minimizing modeled communication cost.

Modules:

* :mod:`repro.distrib.costmodel` — compiles the aligned ADG into a
  :class:`CommProfile` whose evaluation agrees exactly with the machine
  simulator's measured hop counts;
* :mod:`repro.distrib.enumerate` — the candidate rows ``(mode, nprocs,
  block, base)`` per grid factorization and template axis, and the
  naive uniform baselines;
* :mod:`repro.distrib.search` — the exact per-axis argmin over every
  grid shape, on those rows;
* :mod:`repro.distrib.vectorized` — NumPy batch pricing of whole
  fronts of rows, which is how the search prices, and
  :func:`evaluate_front`, the one entry that prices scheme records
  (the scalar walks of a profile's move records in the tests stay as
  the reference it is compared against);
* :mod:`repro.distrib.remap` — the cost of moving a template window
  between two distributions (a machine-only replan's ``remap``);
* :mod:`repro.distrib.plan` — the :class:`DistributionPlan` output
  representation and renderer.

The per-axis schemes are the simulator's own records
(:data:`repro.machine.SCHEMES`), so a plan needs no conversion to run.

Quickstart::

    from repro import align_program, parse
    from repro.distrib import build_profile, plan_distribution

    plan = align_program(parse(src))
    profile = build_profile(plan.adg, plan.alignments)
    dplan = plan_distribution(profile, nprocs=16)
    print(dplan.render())
"""

from .costmodel import CommProfile, CostVector, MoveRecord, build_profile
from .enumerate import DEFAULT_BLOCK_SIZES, covering_block, naive_costs, naive_distributions
from .plan import DistributionPlan
from .remap import remap_cost
from .search import plan_distribution, rank_plans
from .vectorized import compile_front, evaluate_front

__all__ = [
    "CommProfile",
    "CostVector",
    "MoveRecord",
    "build_profile",
    "DEFAULT_BLOCK_SIZES",
    "covering_block",
    "naive_costs",
    "naive_distributions",
    "DistributionPlan",
    "remap_cost",
    "plan_distribution",
    "rank_plans",
    "compile_front",
    "evaluate_front",
]
