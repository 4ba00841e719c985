"""Core contribution: mobile and replicated alignment analysis."""

from .position import Alignment, AxisAlignment, ReplicatedExtent
from .metric import alignment_distance, axes_strides_equal, discrete, grid
from .axis_stride import (
    AxisStrideResult,
    AxisStrideSolver,
    canonical_skeletons,
    solve_axis_stride,
)
from .constraints import (
    EntryEval,
    EqualShift,
    LoopBack,
    node_offset_relations,
    section_shifts,
)
from .offset_static import OffsetLPStats, OffsetProblem, OffsetSolution
from .offset_mobile import (
    ALGORITHMS,
    MobileOffsetResult,
    fixed_partitioning,
    recursive_refinement,
    solve_mobile_offsets,
    state_space_search,
    tracking_zero_crossings,
    unrolling,
)
from .replication import (
    ReplicationLabeler,
    ReplicationResult,
    label_replication,
    read_only_arrays,
    value_carriers,
)
from .span import has_sign_change, refine_space_at_crossings
from .cost import (
    AlignmentMap,
    EdgeCost,
    abs_weighted_span,
    assemble_alignments,
    cost_breakdown,
    edge_cost,
    offset_only_cost,
    total_cost,
)
from .pipeline import (
    AlignmentPlan,
    DistributionOptionsError,
    align_and_distribute,
    align_program,
    plan_context,
)

__all__ = [
    "Alignment",
    "AxisAlignment",
    "ReplicatedExtent",
    "alignment_distance",
    "axes_strides_equal",
    "discrete",
    "grid",
    "AxisStrideResult",
    "AxisStrideSolver",
    "canonical_skeletons",
    "solve_axis_stride",
    "EntryEval",
    "EqualShift",
    "LoopBack",
    "node_offset_relations",
    "section_shifts",
    "OffsetProblem",
    "OffsetLPStats",
    "OffsetSolution",
    "ALGORITHMS",
    "MobileOffsetResult",
    "fixed_partitioning",
    "recursive_refinement",
    "solve_mobile_offsets",
    "state_space_search",
    "tracking_zero_crossings",
    "unrolling",
    "ReplicationLabeler",
    "ReplicationResult",
    "label_replication",
    "read_only_arrays",
    "value_carriers",
    "has_sign_change",
    "refine_space_at_crossings",
    "AlignmentMap",
    "EdgeCost",
    "abs_weighted_span",
    "assemble_alignments",
    "cost_breakdown",
    "edge_cost",
    "offset_only_cost",
    "total_cost",
    "AlignmentPlan",
    "DistributionOptionsError",
    "align_and_distribute",
    "align_program",
    "plan_context",
]
