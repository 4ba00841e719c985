"""Optimization substrates: LP (HiGHS), max-flow/min-cut, DP.

These are the "standard packages" the paper assumes.  An :class:`LP` is
held in the arrays HiGHS takes and solved through scipy's public
``milp`` entry, with no integrality; max-flow/min-cut (Dinic's
algorithm, the only one) and the labeling DP are implemented from
scratch, with networkx used only as a test cross-check.
"""

from .lp import LP, LPSolution, solve
from .maxflow import INF, FlowNetwork
from .dp import DiscreteLabelingProblem, LabelingResult

__all__ = [
    "LP",
    "LPSolution",
    "solve",
    "INF",
    "FlowNetwork",
    "DiscreteLabelingProblem",
    "LabelingResult",
]
