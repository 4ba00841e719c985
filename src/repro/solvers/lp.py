"""Linear programs, and HiGHS, their one solver.

Section 4.1 reduces offset alignment to linear programming: minimize
``sum w_xy * theta_xy`` subject to ``theta_xy >= +-(pi_x - pi_y)`` plus the
linear node constraints.  An :class:`LP` is that program exactly as
HiGHS receives it through ``scipy.optimize.milp`` with no integrality:
minimize ``c @ x`` subject to ``lo <= A @ x <= hi`` and
``lb <= x <= ub``, with ``A`` given by its canonical CSC arrays (columns
in order, rows ascending within a column, no duplicate and no explicit
zero).  Whoever builds an LP writes those arrays; :func:`solve` hands
them to ``milp`` as they are.

HiGHS's answer is checked before it is used: a point with a NaN, a
column outside its bounds or a row activity outside ``[lo, hi]`` by
more than ``TOL`` raises ``RuntimeError``.

``scipy`` is imported by the first solve, not with this module: it is
about 0.4 s and 40 MB of a process's start-up, and a process that only
serves cached plans (:mod:`repro.serve`) never solves an LP.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from typing import Literal, Sequence

import numpy as np

# How far HiGHS's point may leave a bound or a row side: ten times the
# square root of 1e-9, the margin scipy's own LP front end checks
# HiGHS's answers by.
TOL = 10 * math.sqrt(1e-9)


@dataclass(frozen=True)
class LP:
    """Minimize ``c @ x`` subject to ``lo <= A @ x <= hi`` and
    ``lb <= x <= ub``; ``A`` is the ``shape`` matrix whose column ``j``
    holds ``data[k]`` in row ``indices[k]`` for ``k`` in
    ``range(indptr[j], indptr[j + 1])``.  The arrays are made read-only."""

    c: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    lo: np.ndarray
    hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def digest(self) -> bytes:
        """A digest of exactly the numbers the solver receives, sizes up
        front.  Two LPs with one digest are one solver input — same
        columns in the same order — so the solver returns one vertex for
        both.  Full-width SHA-256: to whoever keys solved LPs by it, a
        collision would be a wrong answer."""
        h = hashlib.sha256(np.array([*self.shape, len(self.data)], dtype=np.int64).tobytes())
        for part in (self.indptr, self.indices):
            h.update(np.asarray(part, dtype=np.int64).tobytes())
        for part in (self.c, self.data, self.lo, self.hi, self.lb, self.ub):
            h.update(np.asarray(part, dtype=float).tobytes())
        return h.digest()


@dataclass
class LPSolution:
    """A solver's answer; ``x`` holds the values by column index."""

    status: Literal["optimal", "infeasible", "unbounded"]
    objective: float = 0.0
    x: Sequence[float] = ()


def solve(lp: LP) -> LPSolution:
    """Solve with HiGHS; a point HiGHS calls optimal but that breaks a
    bound or a row is a ``RuntimeError``."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    a = csc_array((lp.data, lp.indices, lp.indptr), shape=lp.shape)
    res = milp(lp.c, constraints=LinearConstraint(a, lp.lo, lp.hi), bounds=Bounds(lp.lb, lp.ub))
    if res.status == 2:
        return LPSolution("infeasible")
    if res.status == 3:
        return LPSolution("unbounded")
    if not res.success:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    x = res.x
    if x is None or res.fun is None or np.isnan(x).any() or math.isnan(res.fun):
        raise RuntimeError("HiGHS returned no point, or a NaN, for an optimal LP")
    row = a @ x
    if (
        (x < lp.lb - TOL).any()
        or (x > lp.ub + TOL).any()
        or (row < lp.lo - TOL).any()
        or (row > lp.hi + TOL).any()
    ):
        raise RuntimeError(f"HiGHS's point violates the LP by more than {TOL:.2e}")
    return LPSolution("optimal", float(res.fun), x.tolist())
