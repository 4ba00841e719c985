"""Optimization substrates: LP (HiGHS), max-flow/min-cut, DP.

These are the "standard packages" the paper assumes.  The LP model is
solved by HiGHS through scipy's public ``milp`` entry, with no
integrality; max-flow/min-cut (Dinic's algorithm, the
only one) and the labeling DP are implemented from scratch, with
networkx used only as a test cross-check.
"""

from .lp import LPModel, LPSolution
from .scipy_backend import solve_scipy
from .maxflow import INF, FlowNetwork
from .dp import DiscreteLabelingProblem, LabelingResult

__all__ = [
    "LPModel",
    "LPSolution",
    "solve_scipy",
    "INF",
    "FlowNetwork",
    "DiscreteLabelingProblem",
    "LabelingResult",
]
