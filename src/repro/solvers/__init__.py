"""Optimization substrates: LP (simplex + HiGHS), max-flow/min-cut, DP.

These are the "standard packages" the paper assumes; all are implemented
from scratch here, with scipy/networkx used only as cross-checks.
"""

from .lp import LinExpr, LPModel, LPSolution, Variable
from .simplex import SimplexError, solve_simplex
from .scipy_backend import solve_scipy
from .maxflow import INF, FlowNetwork
from .dp import (
    DiscreteLabelingProblem,
    LabelEdge,
    LabelingResult,
    identity_relation,
)

__all__ = [
    "LinExpr",
    "LPModel",
    "LPSolution",
    "Variable",
    "SimplexError",
    "solve_simplex",
    "solve_scipy",
    "INF",
    "FlowNetwork",
    "DiscreteLabelingProblem",
    "LabelEdge",
    "LabelingResult",
    "identity_relation",
]
