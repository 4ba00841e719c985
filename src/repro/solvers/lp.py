"""Linear-program model layer.

Section 4.1 reduces offset alignment to linear programming: minimize
``sum w_xy * theta_xy`` subject to ``theta_xy >= +-(pi_x - pi_y)`` plus the
linear node constraints.  This module is the declarative model those
reductions target; :meth:`LPModel.solve` hands it to HiGHS through
``scipy.optimize.milp`` (:mod:`repro.solvers.scipy_backend`), the
"linear programming package" the paper assumes.

Columns are free (unbounded both ways) by default, matching offsets
which may be negative.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence, Union

Number = Union[int, float, Fraction]


Sense = Literal["<=", ">=", "=="]
SENSES: tuple[Sense, ...] = ("<=", ">=", "==")
_SENSE_CODE = {s: code for code, s in enumerate(SENSES)}


@dataclass
class LPSolution:
    """A solver's answer; ``x`` holds the values by column index."""

    status: Literal["optimal", "infeasible", "unbounded"]
    objective: float = 0.0
    x: Sequence[float] = ()


class LPModel:
    """A minimization LP built incrementally.

    Typical use::

        m = LPModel()
        x = m.add_column("x"); y = m.add_column("y", lower=0)
        m.add_row([x, y], [1.0, -1.0], ">=", 1.0)
        m.set_objective([x, y], [1.0, 2.0])
        sol = m.solve()

    Columns are integers in creation order.  The rows live in one store
    of flat arrays: row ``i`` is ``vals[k] * x[cols[k]]`` summed over
    ``k`` in ``range(starts[i], starts[i + 1])``, compared by
    ``SENSES[senses[i]]`` with ``rhs[i]``.  Bounds are floats, ``-inf`` /
    ``inf`` where a column has none.  :meth:`from_arrays` makes a
    complete model from those arrays at once.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.starts: list[int] = [0]
        self.senses: list[int] = []
        self.rhs: list[float] = []
        self.obj_cols: list[int] = []
        self.obj_vals: list[float] = []
        self.obj_const = 0.0

    @classmethod
    def from_arrays(
        cls,
        name: str,
        *,
        names: list[str],
        lower: Sequence[float],
        upper: Sequence[float],
        cols: Sequence[int],
        vals: Sequence[float],
        starts: Sequence[int],
        senses: Sequence[int],
        rhs: Sequence[float],
        obj_cols: Sequence[int],
        obj_vals: Sequence[float],
    ) -> "LPModel":
        """A model whose columns, row store and objective are given whole
        (sense codes index :data:`SENSES`); numpy arrays are kept as they
        are, so add no column or row to it."""
        m = cls(name)
        m.names, m.lower, m.upper = names, lower, upper
        m.cols, m.vals, m.starts, m.senses, m.rhs = cols, vals, starts, senses, rhs
        m.obj_cols, m.obj_vals = obj_cols, obj_vals
        return m

    def add_column(
        self, name: str, lower: Number | None = None, upper: Number | None = None
    ) -> int:
        """Append a column and return its index; bounds default to free."""
        self.names.append(name)
        self.lower.append(-math.inf if lower is None else float(lower))
        self.upper.append(math.inf if upper is None else float(upper))
        return len(self.names) - 1

    def add_row(
        self, cols: Sequence[int], vals: Sequence[float], sense: Sense, rhs: float
    ) -> int:
        """Append the row ``sum vals[k] * x[cols[k]]  (sense)  rhs``.

        Returns the row's index.  ``cols`` are distinct and ``vals``
        nonzero floats: the solver receives them as they are.
        """
        self.cols.extend(cols)
        self.vals.extend(vals)
        self.starts.append(len(self.cols))
        self.senses.append(_SENSE_CODE[sense])
        self.rhs.append(rhs)
        return len(self.rhs) - 1

    def set_objective(
        self, cols: Sequence[int], vals: Sequence[float], const: float = 0.0
    ) -> None:
        """Minimize ``sum vals[k] * x[cols[k]] + const`` (nonzero floats)."""
        self.obj_cols = list(cols)
        self.obj_vals = list(vals)
        self.obj_const = float(const)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)

    def row(self, i: int) -> tuple[list[int], list[float], Sense, float]:
        """Row ``i`` as ``(cols, vals, sense, rhs)``."""
        lo, hi = self.starts[i], self.starts[i + 1]
        return self.cols[lo:hi], self.vals[lo:hi], SENSES[self.senses[i]], self.rhs[i]

    def solve(self) -> LPSolution:
        """Solve with HiGHS; a point HiGHS calls optimal but that breaks
        a bound or a row is a ``RuntimeError``."""
        from .scipy_backend import solve_scipy

        return solve_scipy(self)

    def digest(self) -> bytes:
        """A digest of exactly the numbers the solver receives.

        The bounds, the row store and the objective, with their lengths
        up front.  Two models with one digest are one solver input —
        same columns in the same order — so the solver returns one vertex
        for both; names play no part.  Full-width SHA-256: to whoever
        keys solved LPs by it, a collision would be a wrong answer.
        """
        import numpy as np

        sizes = [self.num_vars, self.num_constraints, len(self.cols), len(self.obj_cols)]
        ints = (sizes, self.starts, self.cols, self.senses, self.obj_cols)
        nums = (self.lower, self.upper, self.vals, self.rhs, self.obj_vals, [self.obj_const])
        h = hashlib.sha256()
        for part in ints:
            h.update(np.asarray(part, dtype=np.int64).tobytes())
        for part in nums:
            h.update(np.asarray(part, dtype=float).tobytes())
        return h.digest()
