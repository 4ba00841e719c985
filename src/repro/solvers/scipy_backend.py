"""HiGHS backend for :class:`repro.solvers.lp.LPModel` via scipy.

An independent, industrial-strength solver used to cross-validate the
from-scratch simplex in the test suite and available as a faster backend
for large alignment problems.

``scipy.optimize`` is imported by the first solve, not with this module:
it is about 0.4 s and 40 MB of a process's start-up, and a process that
only serves cached plans (:mod:`repro.serve`) never solves an LP.
"""

from __future__ import annotations

from .lp import LPModel, LPSolution


def solve_scipy(model: LPModel) -> LPSolution:
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq, bounds = model.to_dense()
    res = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LPSolution("infeasible")
    if res.status == 3:
        return LPSolution("unbounded")
    if not res.success:
        raise RuntimeError(f"scipy linprog failed: {res.message}")
    values = {v: float(res.x[v.index]) for v in model.variables}
    return LPSolution("optimal", float(res.fun) + model.objective.const, values)
