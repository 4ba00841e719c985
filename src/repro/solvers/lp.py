"""Linear-program model layer.

Section 4.1 reduces offset alignment to linear programming: minimize
``sum w_xy * theta_xy`` subject to ``theta_xy >= +-(pi_x - pi_y)`` plus the
linear node constraints.  This module is the declarative model those
reductions target, with two backends: :mod:`repro.solvers.scipy_backend`
wraps HiGHS and is the one the planner uses;
:mod:`repro.solvers.simplex` is a from-scratch dense tableau kept as a
cross-check.  They are not interchangeable: the simplex loses
``figure1`` and ``skewed_wavefront`` to round-off (it disagrees with
HiGHS on their cost) and reports "infeasible" on ``jacobi2d`` and
``cg_step``.

Variables are free (unbounded both ways) by default, matching offsets
which may be negative; the backends handle the free-variable split.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping, Sequence, Union

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class Variable:
    """A decision variable.  Identity is by index within its model.

    Arithmetic operators lift to :class:`LinExpr` so constraints read
    naturally (``m.add(x - y, ">=", 1)``).
    """

    index: int
    name: str

    def __repr__(self) -> str:
        return self.name

    def __add__(self, other):
        return LinExpr.of(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return LinExpr.of(self) - other

    def __rsub__(self, other):
        return -LinExpr.of(self) + other

    def __neg__(self):
        return -LinExpr.of(self)

    def __mul__(self, k):
        return LinExpr.of(self) * k

    __rmul__ = __mul__


class LinExpr:
    """A linear expression ``sum c_j x_j + const`` over model variables."""

    __slots__ = ("coeffs", "const")

    def __init__(
        self,
        coeffs: Mapping[Variable, Number] | None = None,
        const: Number = 0,
    ) -> None:
        self.coeffs: dict[Variable, float] = {}
        if coeffs:
            for v, c in coeffs.items():
                fc = float(c)
                if fc != 0.0:
                    self.coeffs[v] = fc
        self.const = float(const)

    @classmethod
    def of(cls, v: "Variable | LinExpr | Number") -> "LinExpr":
        if isinstance(v, LinExpr):
            return v
        if isinstance(v, Variable):
            return cls({v: 1.0})
        return cls({}, v)

    def __add__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        o = LinExpr.of(other)
        coeffs = dict(self.coeffs)
        for v, c in o.coeffs.items():
            coeffs[v] = coeffs.get(v, 0.0) + c
        return LinExpr(coeffs, self.const + o.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self + (-LinExpr.of(other))

    def __rsub__(self, other: Number) -> "LinExpr":
        return (-self) + other

    def __mul__(self, k: Number) -> "LinExpr":
        kf = float(k)
        return LinExpr({v: c * kf for v, c in self.coeffs.items()}, self.const * kf)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c:+g}*{v.name}" for v, c in self.coeffs.items()]
        if self.const or not parts:
            parts.append(f"{self.const:+g}")
        return " ".join(parts)


Sense = Literal["<=", ">=", "=="]
SENSES: tuple[Sense, ...] = ("<=", ">=", "==")
_SENSE_CODE = {s: code for code, s in enumerate(SENSES)}


@dataclass
class LPSolution:
    """A backend's answer; ``x`` holds the values by column index."""

    status: Literal["optimal", "infeasible", "unbounded"]
    objective: float = 0.0
    x: Sequence[float] = ()

    def __getitem__(self, v: Variable) -> float:
        return self.x[v.index]


class LPModel:
    """A minimization LP built incrementally.

    Typical use::

        m = LPModel()
        x = m.var("x"); y = m.var("y", lower=0)
        m.add(x - y, ">=", 1)
        m.minimize(x + 2*y)
        sol = m.solve(backend="simplex")

    Columns are integers in creation order.  The rows live in one store
    of flat arrays: row ``i`` is ``vals[k] * x[cols[k]]`` summed over
    ``k`` in ``range(starts[i], starts[i + 1])``, compared by
    ``SENSES[senses[i]]`` with ``rhs[i]``.  Bounds are floats, ``-inf`` /
    ``inf`` where a column has none.
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

    def add_column(
        self, name: str, lower: Number | None = None, upper: Number | None = None
    ) -> int:
        """Append a column and return its index; bounds default to free."""
        self.names.append(name)
        self.lower.append(-math.inf if lower is None else float(lower))
        self.upper.append(math.inf if upper is None else float(upper))
        return len(self.names) - 1

    def var(
        self,
        name: str | None = None,
        lower: Number | None = None,
        upper: Number | None = None,
    ) -> Variable:
        """Create a variable; default bounds are free (-inf, +inf)."""
        name = name or f"x{self.num_vars}"
        return Variable(self.add_column(name, lower, upper), name)

    def add_row(
        self, cols: Sequence[int], vals: Sequence[float], sense: Sense, rhs: float
    ) -> int:
        """Append the row ``sum vals[k] * x[cols[k]]  (sense)  rhs``.

        The entry point every other way of adding a constraint goes
        through; returns the row's index.  ``cols`` are distinct and
        ``vals`` nonzero floats: a backend receives them as they are.
        """
        self.cols.extend(cols)
        self.vals.extend(vals)
        self.starts.append(len(self.cols))
        self.senses.append(_SENSE_CODE[sense])
        self.rhs.append(rhs)
        return len(self.rhs) - 1

    def add(
        self, expr: "Variable | LinExpr", sense: Sense, rhs: Number = 0
    ) -> int:
        e = LinExpr.of(expr)
        return self.add_row(
            [v.index for v in e.coeffs],
            list(e.coeffs.values()),
            sense,
            float(rhs) - e.const,
        )

    def add_abs_bound(self, bound: Variable, inner: "Variable | LinExpr") -> None:
        """Add ``bound >= |inner|`` via the paper's two inequalities.

        Section 4.1: ``theta + pi_x - pi_y >= 0`` and
        ``theta - pi_x + pi_y >= 0`` guarantee ``theta >= |pi_x - pi_y|``;
        at optimality equality holds whenever theta has positive objective
        weight.
        """
        e = LinExpr.of(inner)
        self.add(bound + e, ">=", 0)
        self.add(bound - e, ">=", 0)

    def minimize(self, expr: "Variable | LinExpr") -> None:
        e = LinExpr.of(expr)
        self.set_objective([v.index for v in e.coeffs], list(e.coeffs.values()), e.const)

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

    def solve(self, backend: str = "simplex") -> LPSolution:
        """Solve with the chosen backend ("simplex" or "scipy")."""
        if backend == "simplex":
            from .simplex import solve_simplex

            return solve_simplex(self)
        if backend == "scipy":
            from .scipy_backend import solve_scipy

            return solve_scipy(self)
        raise ValueError(f"unknown LP backend {backend!r}")

    def digest(self) -> bytes:
        """A digest of exactly the numbers a backend receives.

        The bounds, the row store and the objective, with their lengths
        up front.  Two models with one digest are one solver input —
        same columns in the same order — so a backend returns one vertex
        for both; names play no part.  Full-width SHA-256: to whoever
        keys solved LPs by it, a collision would be a wrong answer.
        """
        ints = array("q", [self.num_vars, self.num_constraints, len(self.cols)])
        ints.append(len(self.obj_cols))
        ints.extend(self.starts)
        ints.extend(self.cols)
        ints.extend(self.senses)
        ints.extend(self.obj_cols)
        nums = array("d", self.lower)
        nums.extend(self.upper)
        nums.extend(self.vals)
        nums.extend(self.rhs)
        nums.extend(self.obj_vals)
        nums.append(self.obj_const)
        return hashlib.sha256(ints.tobytes() + nums.tobytes()).digest()
