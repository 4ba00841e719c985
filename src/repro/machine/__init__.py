"""Distributed-memory machine simulator: distributions + traffic counting."""

from .distribution import (
    SCHEMES,
    AxisDistribution,
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    Identity,
    uniform,
    validate_cells,
)
from .comm import MoveCount, count_move
from .executor import (
    EdgeTraffic,
    TrafficReport,
    coordinate_bounds,
    measure_plan,
    measure_traffic,
)
from .interp import Interpreter, InterpreterError, run_program
from .report import format_table

__all__ = [
    "SCHEMES",
    "AxisDistribution",
    "Block",
    "BlockCyclic",
    "Cyclic",
    "Distribution",
    "Identity",
    "uniform",
    "validate_cells",
    "MoveCount",
    "count_move",
    "EdgeTraffic",
    "TrafficReport",
    "coordinate_bounds",
    "measure_plan",
    "measure_traffic",
    "Interpreter",
    "InterpreterError",
    "run_program",
    "format_table",
]
