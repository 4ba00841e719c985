"""HiGHS, via scipy, solves every :class:`repro.solvers.lp.LPModel`.

The model reaches HiGHS through ``scipy.optimize.milp`` with no
integrality, as one ``lo <= A x <= hi`` block: the ``<=`` rows and the
negated ``>=`` rows first, in row order, then the ``==`` rows.  ``A``
is built straight from the row store as canonical CSC (no explicit
zeros, an empty row kept), the one CSC a matrix without duplicates
has, so HiGHS gets exactly the numbers a dense export would give it.

HiGHS's answer is checked before it is used: a point with a NaN, a
column outside its bounds or a row activity outside ``[lo, hi]`` by
more than ``TOL`` raises ``RuntimeError``.

``scipy`` is imported by the first solve, not with this module: it is
about 0.4 s and 40 MB of a process's start-up, and a process that only
serves cached plans (:mod:`repro.serve`) never solves an LP.
"""

from __future__ import annotations

import math

from .lp import LPModel, LPSolution

# How far HiGHS's point may leave a bound or a row side: ten times the
# square root of 1e-9, the margin scipy's own LP front end checks
# HiGHS's answers by.
TOL = 10 * math.sqrt(1e-9)


def highs_input(model: LPModel):
    """``(c, A, lo, hi, lb, ub)``: minimize ``c @ x`` subject to
    ``lo <= A @ x <= hi`` and ``lb <= x <= ub``, with ``A`` canonical
    CSC whose inequality rows (``>=`` negated) precede its ``==`` rows."""
    import numpy as np
    from scipy.sparse import csc_array

    n, m = model.num_vars, model.num_constraints
    c = np.zeros(n)
    c[np.asarray(model.obj_cols, dtype=np.int64)] = model.obj_vals
    cols = np.asarray(model.cols, dtype=np.int64)
    vals = np.array(model.vals, dtype=float)
    hi = np.array(model.rhs, dtype=float)
    senses = np.asarray(model.senses, dtype=np.int8)
    row_of = np.repeat(np.arange(m), np.diff(model.starts))
    ge, eq = senses == 1, senses == 2
    hi[ge] = -hi[ge]
    vals[ge[row_of]] *= -1.0
    # Inequality rows first, then equality rows, each in row order.
    order = np.concatenate((np.flatnonzero(~eq), np.flatnonzero(eq)))
    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    hi = hi[order]
    lo = np.where(eq[order], hi, -np.inf)
    keep = vals != 0.0
    r, k, v = position[row_of[keep]], cols[keep], vals[keep]
    # Column-major, rows ascending within a column; a row names each
    # column once, so there is nothing to sum.
    by_col = np.lexsort((r, k))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(k, minlength=n), out=indptr[1:])
    a = csc_array((v[by_col], r[by_col], indptr), shape=(m, n))
    lb = np.array(model.lower, dtype=float)
    ub = np.array(model.upper, dtype=float)
    return c, a, lo, hi, lb, ub


def solve_scipy(model: LPModel) -> LPSolution:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, a, lo, hi, lb, ub = highs_input(model)
    res = milp(c, constraints=LinearConstraint(a, lo, hi), bounds=Bounds(lb, ub))
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
        (x < lb - TOL).any()
        or (x > ub + TOL).any()
        or (row < lo - TOL).any()
        or (row > hi + TOL).any()
    ):
        raise RuntimeError(
            f"HiGHS's point violates the LP by more than {TOL:.2e}"
        )
    return LPSolution("optimal", float(res.fun) + model.obj_const, x.tolist())
