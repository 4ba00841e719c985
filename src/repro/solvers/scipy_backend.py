"""HiGHS, via scipy, solves every :class:`repro.solvers.lp.LPModel`.

``linprog`` receives the row store as canonical CSC: ``>=`` rows
negated into ``A_ub`` beside the ``<=`` rows, ``==`` rows in ``A_eq``.
``linprog`` turns a dense matrix into canonical CSC itself, and a matrix
without duplicates or explicit zeros has exactly one, so HiGHS gets the
numbers a dense export would give it, without the dense detour.

``scipy`` is imported by the first solve, not with this module: it is
about 0.4 s and 40 MB of a process's start-up, and a process that only
serves cached plans (:mod:`repro.serve`) never solves an LP.
"""

from __future__ import annotations

from .lp import LPModel, LPSolution


def linprog_input(model: LPModel) -> dict:
    """``c``, ``A_ub``, ``b_ub``, ``A_eq``, ``b_eq`` and ``bounds`` for
    ``scipy.optimize.linprog``; a block with no rows is ``None``."""
    import numpy as np
    from scipy.sparse import csc_array

    n, m = model.num_vars, model.num_constraints
    c = np.zeros(n)
    c[model.obj_cols] = model.obj_vals
    cols = np.array(model.cols, dtype=np.int64)
    vals = np.array(model.vals, dtype=float)
    rhs = np.array(model.rhs, dtype=float)
    senses = np.array(model.senses, dtype=np.int8)
    row_of = np.repeat(np.arange(m), np.diff(model.starts))
    ge, eq = senses == 1, senses == 2
    rhs[ge] = -rhs[ge]
    vals[ge[row_of]] *= -1.0
    # Each row's number inside its own block.
    block_row = np.empty(m, dtype=np.int64)
    block_row[~eq] = np.arange(m - int(eq.sum()))
    block_row[eq] = np.arange(int(eq.sum()))
    keep = vals != 0.0

    def block(rows):
        if not rows.any():
            return None, None
        take = rows[row_of] & keep
        r, c, v = block_row[row_of[take]], cols[take], vals[take]
        # Column-major, rows ascending within a column; a row names each
        # column once, so there is nothing to sum.
        order = np.lexsort((r, c))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(c, minlength=n), out=indptr[1:])
        a = csc_array((v[order], r[order], indptr), shape=(int(rows.sum()), n))
        return a, rhs[rows]

    a_ub, b_ub = block(~eq)
    a_eq, b_eq = block(eq)
    bounds = np.column_stack((model.lower, model.upper))
    return dict(c=c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)


def solve_scipy(model: LPModel) -> LPSolution:
    from scipy.optimize import linprog

    res = linprog(**linprog_input(model), method="highs")
    if res.status == 2:
        return LPSolution("infeasible")
    if res.status == 3:
        return LPSolution("unbounded")
    if not res.success:
        raise RuntimeError(f"scipy linprog failed: {res.message}")
    return LPSolution("optimal", float(res.fun) + model.obj_const, res.x.tolist())
