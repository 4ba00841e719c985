"""The offset LP as ``scipy.optimize.linprog`` takes it: the test-only
oracle that the production hand-off (``solvers/scipy_backend.py``,
``milp``) is checked against.

``linprog_input`` is the solver input the planner sent HiGHS through
``linprog``: ``>=`` rows negated into ``A_ub`` beside the ``<=`` rows,
``==`` rows in ``A_eq``, each block canonical CSC.  ``linprog`` stacks
``A_ub`` over ``A_eq`` and hands HiGHS ``-inf <= A_ub x <= b_ub``,
``b_eq <= A_eq x <= b_eq``, which is what ``highs_input`` builds in one
piece.
"""

from __future__ import annotations


def linprog_input(model) -> dict:
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
        order = np.lexsort((r, c))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(c, minlength=n), out=indptr[1:])
        a = csc_array((v[order], r[order], indptr), shape=(int(rows.sum()), n))
        return a, rhs[rows]

    a_ub, b_ub = block(~eq)
    a_eq, b_eq = block(eq)
    bounds = np.column_stack((model.lower, model.upper))
    return dict(c=c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
