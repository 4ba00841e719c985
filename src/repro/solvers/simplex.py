"""Two-phase dense simplex, written from scratch.

The paper assumes "a linear programming package" (Section 4.1); this is
ours.  It is a textbook tableau implementation with Bland's anti-cycling
rule, adequate for the RLP instances produced by alignment analysis
(O(|E|) variables; a few hundred for realistic procedures).  The
planner solves with the scipy HiGHS backend
(:mod:`repro.solvers.scipy_backend`); this one is the cross-check, and
its float pivots are not exact enough for every corpus kernel (see
:mod:`repro.solvers.lp`).  It reads the model row by row through
:meth:`LPModel.row`.

Standard-form conversion:

* free variables are split ``x = x+ - x-``;
* finite lower bounds are shifted out; finite upper bounds become rows;
* ``<=`` / ``>=`` rows gain slack/surplus variables;
* phase 1 drives artificial variables out of the basis.
"""

from __future__ import annotations

import numpy as np

from .lp import LPModel, LPSolution

_EPS = 1e-9


class SimplexError(RuntimeError):
    pass


def solve_simplex(model: LPModel, max_iter: int | None = None) -> LPSolution:
    """Solve ``model`` (minimization) and return an :class:`LPSolution`."""
    n = model.num_vars

    # --- build the column map for standard form -----------------------------
    # Each original variable maps to (pos_col, neg_col or None, shift).
    pos_col: list[int] = []
    neg_col: list[int | None] = []
    shift: list[float] = []
    ncols = 0
    extra_rows: list[tuple[list[tuple[int, float]], str, float]] = []
    for j in range(n):
        lo, hi = model.lower[j], model.upper[j]
        if lo == -np.inf:
            pos_col.append(ncols)
            neg_col.append(ncols + 1)
            shift.append(0.0)
            ncols += 2
        else:
            pos_col.append(ncols)
            neg_col.append(None)
            shift.append(lo)
            ncols += 1
        if hi != np.inf:
            # x <= hi, expressed on the substituted variable(s) later.
            extra_rows.append(([(j, 1.0)], "<=", hi))

    def substituted_row(pairs: list[tuple[int, float]]) -> tuple[np.ndarray, float]:
        """Expand original-variable coefficients into standard-form columns.

        Returns (row over standard columns, rhs correction from shifts).
        """
        row = np.zeros(ncols)
        corr = 0.0
        for j, coef in pairs:
            row[pos_col[j]] += coef
            nc = neg_col[j]
            if nc is not None:
                row[nc] -= coef
            corr += coef * shift[j]
        return row, corr

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []
    for i in range(model.num_constraints):
        cols, vals, sense, b = model.row(i)
        row, corr = substituted_row(zip(cols, vals))
        rows.append(row)
        rhs.append(b - corr)
        senses.append(sense)
    for pairs, sense, b in extra_rows:
        row, corr = substituted_row(pairs)
        rows.append(row)
        rhs.append(b - corr)
        senses.append(sense)

    obj = np.zeros(ncols)
    obj_const = model.obj_const
    for j, coef in zip(model.obj_cols, model.obj_vals):
        obj[pos_col[j]] += coef
        nc = neg_col[j]
        if nc is not None:
            obj[nc] -= coef
        obj_const += coef * shift[j]

    m = len(rows)
    if m == 0:
        # No rows: every standard-form column is bounded below by 0, so
        # the optimum is the all-zero point unless some column could
        # decrease the objective (negative coefficient), which makes the
        # problem unbounded (free-variable splits give +-c pairs).
        if np.any(obj < 0):
            return LPSolution("unbounded")
        return LPSolution("optimal", obj_const, list(shift))

    # --- slack variables and artificial variables ----------------------------
    a = np.array(rows, dtype=float)
    b = np.array(rhs, dtype=float)
    # Normalize rows to b >= 0.
    for i in range(m):
        if b[i] < 0:
            a[i] = -a[i]
            b[i] = -b[i]
            if senses[i] == "<=":
                senses[i] = ">="
            elif senses[i] == ">=":
                senses[i] = "<="

    slack_cols = sum(1 for s in senses if s in ("<=", ">="))
    total = ncols + slack_cols
    tab = np.zeros((m, total))
    tab[:, :ncols] = a
    sc = ncols
    basis = [-1] * m
    need_artificial: list[int] = []
    for i, s in enumerate(senses):
        if s == "<=":
            tab[i, sc] = 1.0
            basis[i] = sc
            sc += 1
        elif s == ">=":
            tab[i, sc] = -1.0
            sc += 1
            need_artificial.append(i)
        else:
            need_artificial.append(i)

    art_start = total
    total += len(need_artificial)
    full = np.zeros((m, total))
    full[:, : tab.shape[1]] = tab
    for idx, i in enumerate(need_artificial):
        full[i, art_start + idx] = 1.0
        basis[i] = art_start + idx

    if max_iter is None:
        max_iter = 200 * (total + m) + 5000

    # --- phase 1 -------------------------------------------------------------
    if need_artificial:
        c1 = np.zeros(total)
        c1[art_start:] = 1.0
        value, status = _run_simplex(full, b, c1, basis, max_iter)
        if status != "optimal" or value > 1e-7:
            return LPSolution("infeasible")
        # Drive any artificial variables still basic (at zero) out.
        for i in range(m):
            if basis[i] >= art_start:
                pivoted = False
                for j in range(art_start):
                    if abs(full[i, j]) > _EPS:
                        _pivot(full, b, basis, i, j)
                        pivoted = True
                        break
                if not pivoted:
                    # Redundant row: harmless; leave the zero artificial basic
                    # but ensure it never re-enters with nonzero value.
                    pass
        full = full[:, :art_start]
        basis = [min(bi, art_start - 1) if bi < art_start else bi for bi in basis]
        # Rows whose artificial could not be pivoted out are redundant, but
        # slicing off artificial columns would lose their basis entry; patch:
        for i in range(m):
            if basis[i] >= art_start:
                basis[i] = -1  # degenerate redundant row
        total = art_start

    # --- phase 2 -------------------------------------------------------------
    c2 = np.zeros(total)
    c2[:ncols] = obj
    value, status = _run_simplex(full, b, c2, basis, max_iter)
    if status == "unbounded":
        return LPSolution("unbounded")
    if status != "optimal":
        raise SimplexError("simplex iteration limit exceeded")

    x = np.zeros(total)
    for i, bi in enumerate(basis):
        if bi >= 0:
            x[bi] = b[i]
    values = []
    for j in range(n):
        val = x[pos_col[j]]
        nc = neg_col[j]
        if nc is not None:
            val -= x[nc]
        values.append(float(val + shift[j]))
    return LPSolution("optimal", value + obj_const, values)


def _pivot(tab: np.ndarray, b: np.ndarray, basis: list[int], r: int, c: int) -> None:
    piv = tab[r, c]
    tab[r] /= piv
    b[r] /= piv
    for i in range(tab.shape[0]):
        if i != r and abs(tab[i, c]) > 0:
            factor = tab[i, c]
            tab[i] -= factor * tab[r]
            b[i] -= factor * b[r]
    basis[r] = c


def _run_simplex(
    tab: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    max_iter: int,
) -> tuple[float, str]:
    """Run primal simplex on (tab, b) with objective c; mutates in place.

    Uses Dantzig pricing normally and Bland's rule after a degeneracy
    streak to guarantee termination.
    """
    m, total = tab.shape
    degenerate_streak = 0
    for _ in range(max_iter):
        # Reduced costs: z_j - c_j = c_B B^-1 A_j - c_j; tab is already B^-1 A.
        cb = np.array([c[bi] if bi >= 0 else 0.0 for bi in basis])
        reduced = cb @ tab - c
        if degenerate_streak > 3 * m:
            # Bland: smallest index with positive reduced cost.
            candidates = np.nonzero(reduced > _EPS)[0]
            if candidates.size == 0:
                break
            col = int(candidates[0])
        else:
            col = int(np.argmax(reduced))
            if reduced[col] <= _EPS:
                break
        ratios = np.full(m, np.inf)
        positive = tab[:, col] > _EPS
        ratios[positive] = b[positive] / tab[positive, col]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            return 0.0, "unbounded"
        if degenerate_streak > 3 * m:
            # Bland tie-break on leaving variable too.
            best = ratios[row]
            ties = [i for i in range(m) if positive[i] and abs(ratios[i] - best) < _EPS]
            row = min(ties, key=lambda i: basis[i])
        if b[row] < _EPS:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        _pivot(tab, b, basis, row, col)
    else:
        return 0.0, "iterlimit"
    cb = np.array([c[bi] if bi >= 0 else 0.0 for bi in basis])
    return float(cb @ b), "optimal"
