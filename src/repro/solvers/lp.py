"""Linear-program model layer.

Section 4.1 reduces offset alignment to linear programming: minimize
``sum w_xy * theta_xy`` subject to ``theta_xy >= +-(pi_x - pi_y)`` plus the
linear node constraints.  This module is the declarative model those
reductions target; it is solver-agnostic, with two interchangeable
backends (:mod:`repro.solvers.simplex` from scratch, and
:mod:`repro.solvers.scipy_backend` wrapping HiGHS).

Variables are free (unbounded both ways) by default, matching offsets
which may be negative; the backends handle the free-variable split.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Literal, Mapping, Sequence, Union

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
_SENSE_CODE = {"<=": 0, ">=": 1, "==": 2}


def _nonzero(coeffs: Mapping[Variable, float]) -> dict[Variable, float]:
    return {v: c for v, c in coeffs.items() if c != 0.0}


@dataclass
class Constraint:
    """One row ``sum coeffs[v] * v  (sense)  rhs``.

    ``coeffs`` holds nonzero floats only; an expression's constant is
    already folded into ``rhs``.
    """

    coeffs: dict[Variable, float]
    sense: Sense
    rhs: float
    name: str = ""


@dataclass
class LPSolution:
    status: Literal["optimal", "infeasible", "unbounded"]
    objective: float = 0.0
    values: dict[Variable, float] = field(default_factory=dict)

    def __getitem__(self, v: Variable) -> float:
        return self.values[v]


class LPModel:
    """A minimization LP built incrementally.

    Typical use::

        m = LPModel()
        x = m.var("x"); y = m.var("y", lower=0)
        m.add(x - y, ">=", 1)
        m.minimize(x + 2*y)
        sol = m.solve(backend="simplex")
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.lower: list[float | None] = []
        self.upper: list[float | None] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()

    def var(
        self,
        name: str | None = None,
        lower: Number | None = None,
        upper: Number | None = None,
    ) -> Variable:
        """Create a variable; default bounds are free (-inf, +inf)."""
        idx = len(self.variables)
        v = Variable(idx, name or f"x{idx}")
        self.variables.append(v)
        self.lower.append(None if lower is None else float(lower))
        self.upper.append(None if upper is None else float(upper))
        return v

    def add_row(
        self,
        coeffs: dict[Variable, float],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Append the row ``sum coeffs[v] * v  (sense)  rhs``.

        The row-level entry point every other way of adding a constraint
        goes through.  ``coeffs`` is adopted, not copied: the caller hands
        over a dict of nonzero floats and does not touch it again.
        """
        con = Constraint(coeffs, sense, rhs, name)
        self.constraints.append(con)
        return con

    def add(
        self,
        expr: "Variable | LinExpr",
        sense: Sense,
        rhs: Number = 0,
        name: str = "",
    ) -> Constraint:
        e = LinExpr.of(expr)
        return self.add_row(_nonzero(e.coeffs), sense, float(rhs) - e.const, name)

    def add_abs_bound(
        self, bound: Variable, inner: "Variable | LinExpr", name: str = ""
    ) -> None:
        """Add ``bound >= |inner|`` via the paper's two inequalities.

        Section 4.1: ``theta + pi_x - pi_y >= 0`` and
        ``theta - pi_x + pi_y >= 0`` guarantee ``theta >= |pi_x - pi_y|``;
        at optimality equality holds whenever theta has positive objective
        weight.
        """
        e = LinExpr.of(inner)
        plus = {bound: 1.0}
        minus = {bound: 1.0}
        for v, c in e.coeffs.items():
            plus[v] = plus.get(v, 0.0) + c
            minus[v] = minus.get(v, 0.0) - c
        self.add_row(_nonzero(plus), ">=", 0.0 - e.const, name=f"{name}+")
        self.add_row(_nonzero(minus), ">=", 0.0 + e.const, name=f"{name}-")

    def minimize(self, expr: "Variable | LinExpr") -> None:
        self.objective = LinExpr.of(expr)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

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

        Bounds, every row in order as (variable index, coefficient)
        pairs with its sense and right-hand side, and the objective.
        Two models with one digest are one solver input — same columns
        in the same order — so a backend returns one vertex for both;
        names play no part.  Full-width SHA-256: to whoever keys solved
        LPs by it, a collision would be a wrong answer.
        """
        ints = array("q", [self.num_vars, len(self.constraints)])
        nums = array("d")
        for bounds in (self.lower, self.upper):
            ints.extend([b is not None for b in bounds])
            nums.extend([0.0 if b is None else b for b in bounds])
        for con in self.constraints:
            ints.append(_SENSE_CODE[con.sense])
            ints.append(len(con.coeffs))
            ints.extend([v.index for v in con.coeffs])
            nums.append(con.rhs)
            nums.extend(con.coeffs.values())
        ints.extend([v.index for v in self.objective.coeffs])
        nums.extend(self.objective.coeffs.values())
        nums.append(self.objective.const)
        return hashlib.sha256(ints.tobytes() + nums.tobytes()).digest()

    # -- dense export shared by backends ------------------------------------

    def to_dense(self):
        """Return ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` as numpy arrays.

        All constraints are normalized: ``<=`` rows in A_ub, ``==`` rows in
        A_eq (``>=`` rows are negated into ``<=``).
        """
        import numpy as np

        n = self.num_vars
        c = np.zeros(n)
        for v, coef in self.objective.coeffs.items():
            c[v.index] = coef
        # (row, column, value) triplets and right-hand sides per block.
        ub: tuple[list, list, list, list] = ([], [], [], [])
        eq: tuple[list, list, list, list] = ([], [], [], [])
        for con in self.constraints:
            rows, cols, vals, rhs = eq if con.sense == "==" else ub
            cols.extend([v.index for v in con.coeffs])
            rows.extend([len(rhs)] * len(con.coeffs))
            if con.sense == ">=":
                vals.extend([-x for x in con.coeffs.values()])
                rhs.append(-con.rhs)
            else:
                vals.extend(con.coeffs.values())
                rhs.append(con.rhs)

        def dense(rows, cols, vals, rhs):
            a = np.zeros((len(rhs), n))
            if rows:
                a[rows, cols] = vals
            return a, np.array(rhs)

        a_ub, b_ub = dense(*ub)
        a_eq, b_eq = dense(*eq)
        return c, a_ub, b_ub, a_eq, b_eq, list(zip(self.lower, self.upper))
