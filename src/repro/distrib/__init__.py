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
* :mod:`repro.distrib.enumerate` — grid factorizations, per-axis scheme
  candidates, naive uniform baselines;
* :mod:`repro.distrib.search` — the exact per-axis argmin over every
  grid shape;
* :mod:`repro.distrib.vectorized` — NumPy batch pricing of whole
  candidate fronts, which is how the search prices (the scalar
  evaluators of ``CommProfile`` stay as the reference tests compare
  against);
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
from .enumerate import (
    DEFAULT_BLOCK_SIZES,
    axis_candidates,
    balanced_factorization,
    covering_block,
    grid_factorizations,
    naive_costs,
    naive_distributions,
    space_size,
)
from .plan import DistributionPlan
from .remap import remap_cost
from .search import plan_distribution, rank_plans
from .vectorized import axis_front_hops, compile_front, evaluate_front, front_costs

__all__ = [
    "CommProfile",
    "CostVector",
    "MoveRecord",
    "build_profile",
    "DEFAULT_BLOCK_SIZES",
    "axis_candidates",
    "balanced_factorization",
    "covering_block",
    "grid_factorizations",
    "naive_costs",
    "naive_distributions",
    "space_size",
    "DistributionPlan",
    "remap_cost",
    "plan_distribution",
    "rank_plans",
    "axis_front_hops",
    "compile_front",
    "evaluate_front",
    "front_costs",
]
