"""LPs written row by row, and the test-only oracles built from them.

:class:`Rows` is an LP as its definition reads: a bound pair per column,
and rows ``{column: coefficient} sense rhs`` with ``sense`` one of
``<=``, ``>=``, ``==``.  The planner never writes one; the tests build
small LPs with it and rebuild the offset LP from its definition
(``test_align_offsets.reference_build``).

``dense_blocks`` exports it the way the solver hand-off did before it
built sparse arrays: dense rows, ``>=`` rows negated into ``A_ub``
beside the ``<=`` rows, ``==`` rows in ``A_eq``, each block
``csc_array(np.vstack(dense))``.  ``linprog_input`` is those blocks as
``scipy.optimize.linprog`` takes them, the hand-off ``milp`` replaced;
``linprog`` stacks ``A_ub`` over ``A_eq``, and :func:`as_lp` is that
stack as a :class:`repro.solvers.lp.LP`.
"""

from __future__ import annotations

import math


class Rows:
    """Columns numbered in creation order; ``objective`` maps a column
    to its cost."""

    def __init__(self) -> None:
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.rows: list[tuple[dict[int, float], str, float]] = []
        self.objective: dict[int, float] = {}

    def column(self, lower: float = -math.inf, upper: float = math.inf) -> int:
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.lower) - 1

    def add(self, coefs: dict[int, float], sense: str, rhs: float) -> None:
        assert sense in ("<=", ">=", "==")
        self.rows.append((coefs, sense, float(rhs)))


def dense_blocks(rows: Rows):
    """``(c, (A_ub, b_ub), (A_eq, b_eq))``; a block with no rows is
    ``(None, None)``.  The dense rows are stacked a slab at a time, so an
    unrolled LP does not hold its whole matrix dense."""
    import numpy as np
    from scipy.sparse import csc_array, vstack

    n = len(rows.lower)
    c = np.zeros(n)
    for j, coef in rows.objective.items():
        c[j] = coef
    slab = max(1, 2**20 // max(n, 1))

    def block(picked):
        if not picked:
            return None, None
        parts, rhs = [], []
        for k in range(0, len(picked), slab):
            dense = []
            for coefs, sense, b in picked[k : k + slab]:
                row = np.zeros(n)
                neg = sense == ">="
                for j, v in coefs.items():
                    row[j] = -v if neg else v
                rhs.append(-b if neg else b)
                dense.append(row)
            parts.append(csc_array(np.vstack(dense)))
        a = parts[0] if len(parts) == 1 else vstack(parts, format="csc")
        return a, np.array(rhs)

    ub = [r for r in rows.rows if r[1] != "=="]
    eq = [r for r in rows.rows if r[1] == "=="]
    return c, block(ub), block(eq)


def linprog_input(rows: Rows) -> dict:
    """``c``, ``A_ub``, ``b_ub``, ``A_eq``, ``b_eq`` and ``bounds`` for
    ``scipy.optimize.linprog``."""
    import numpy as np

    c, (a_ub, b_ub), (a_eq, b_eq) = dense_blocks(rows)
    bounds = np.column_stack((rows.lower, rows.upper))
    return dict(c=c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)


def as_lp(rows: Rows):
    """The :class:`~repro.solvers.lp.LP` that ``linprog`` makes of
    :func:`linprog_input`: ``A_ub`` over ``A_eq``, ``-inf <= A_ub x <=
    b_ub`` and ``b_eq <= A_eq x <= b_eq``."""
    import numpy as np
    from scipy.sparse import csc_array, vstack

    from repro.solvers.lp import LP

    n = len(rows.lower)
    c, (a_ub, b_ub), (a_eq, b_eq) = dense_blocks(rows)
    blocks = [b for b in (a_ub, a_eq) if b is not None]
    a = vstack(blocks, format="csc") if blocks else csc_array((0, n))
    n_ub = 0 if b_ub is None else len(b_ub)
    hi = np.concatenate([b for b in (b_ub, b_eq) if b is not None] or [[]])
    lo = np.concatenate((np.full(n_ub, -np.inf), hi[n_ub:]))
    lb, ub = np.array(rows.lower), np.array(rows.upper)
    return LP(c, a.indptr, a.indices, a.data, a.shape, lo, hi, lb, ub)
