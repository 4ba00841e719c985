"""Unit tests for the LP layer: the row store and its HiGHS solve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.solvers import LPModel

from lp_reference import linprog_input


def abs_bound(m, bound, cols, vals, const=0.0):
    """``bound >= |sum vals * x[cols] + const|`` as the paper's two rows."""
    m.add_row([bound, *cols], [1.0, *vals], ">=", -const)
    m.add_row([bound, *cols], [1.0, *(-v for v in vals)], ">=", const)


class TestBasicLPs:
    def test_bounded_minimum(self):
        m = LPModel()
        x = m.add_column("x")
        y = m.add_column("y", lower=0)
        m.add_row([x, y], [1.0, -1.0], ">=", 1.0)
        m.add_row([x, y], [1.0, 1.0], ">=", 3.0)
        m.set_objective([x, y], [1.0, 2.0])
        s = m.solve()
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0)

    def test_equality_constraints(self):
        m = LPModel()
        x = m.add_column("x", lower=0)
        y = m.add_column("y", lower=0)
        m.add_row([x, y], [1.0, 1.0], "==", 10.0)
        m.set_objective([x, y], [3.0, 1.0])
        s = m.solve()
        assert s.objective == pytest.approx(10.0)
        assert s.x[y] == pytest.approx(10.0)

    def test_free_variable_negative_optimum(self):
        m = LPModel()
        x = m.add_column("x")
        m.add_row([x], [1.0], ">=", -7.0)
        m.set_objective([x], [1.0])
        s = m.solve()
        assert s.objective == pytest.approx(-7.0)

    def test_upper_bounds(self):
        m = LPModel()
        x = m.add_column("x", lower=0, upper=4)
        m.set_objective([x], [-1.0])
        s = m.solve()
        assert s.objective == pytest.approx(-4.0)

    def test_infeasible(self):
        m = LPModel()
        x = m.add_column("x", lower=0)
        m.add_row([x], [1.0], "<=", -1.0)
        m.set_objective([x], [1.0])
        assert m.solve().status == "infeasible"

    def test_unbounded(self):
        m = LPModel()
        x = m.add_column("x")
        m.set_objective([x], [1.0])
        s = m.solve()
        assert s.status == "unbounded"

    def test_abs_bound_pair(self):
        # minimize |x - 5| + |x - 9| -> 4 anywhere in [5, 9]
        m = LPModel()
        x = m.add_column("x")
        t1 = m.add_column("t1", lower=0)
        t2 = m.add_column("t2", lower=0)
        abs_bound(m, t1, [x], [1.0], -5.0)
        abs_bound(m, t2, [x], [1.0], -9.0)
        m.set_objective([t1, t2], [1.0, 1.0])
        s = m.solve()
        assert s.objective == pytest.approx(4.0)
        assert 5 - 1e-6 <= s.x[x] <= 9 + 1e-6

    def test_weighted_median(self):
        # minimize sum w_i |x - a_i|: optimum at weighted median (a=3)
        m = LPModel()
        x = m.add_column("x")
        ts, ws = [], []
        for w, a in [(1, 0), (5, 3), (1, 10)]:
            t = m.add_column(f"t{a}", lower=0)
            abs_bound(m, t, [x], [1.0], -float(a))
            ts.append(t)
            ws.append(float(w))
        m.set_objective(ts, ws)
        s = m.solve()
        assert s.x[x] == pytest.approx(3.0, abs=1e-6)

    def test_unconstrained_zero_objective(self):
        m = LPModel()
        m.add_column("x")
        t = m.add_column("t", lower=0)
        m.set_objective([t], [1.0])
        s = m.solve()
        assert s.status == "optimal"
        assert s.objective == pytest.approx(0.0)

    def test_solve_takes_no_solver_choice(self):
        m = LPModel()
        m.add_column("x", lower=0)
        with pytest.raises(TypeError):
            m.solve("scipy")


class TestSciPyIsARuntimeDependency:
    def test_pyproject_lists_scipy_beside_numpy(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        names = {dep.split(">")[0].strip() for dep in project["dependencies"]}
        assert {"numpy", "scipy"} <= names
        assert "scipy" not in project.get("optional-dependencies", {})


class TestDeferredSciPyImport:
    def test_serve_entry_point_imports_without_scipy(self):
        # A daemon that only answers cache hits never solves an LP, so
        # importing it must not pay for the solver; the first solve of
        # the process imports it.
        probe = (
            "import sys\n"
            "import repro, repro.serve.__main__\n"
            "assert 'scipy' not in sys.modules, 'scipy imported at start-up'\n"
            "from repro.solvers import LPModel\n"
            "m = LPModel()\n"
            "x = m.add_column('x'); y = m.add_column('y', lower=0)\n"
            "m.add_row([x, y], [1.0, -1.0], '>=', 1.0)\n"
            "m.add_row([x, y], [1.0, 1.0], '>=', 3.0)\n"
            "m.set_objective([x, y], [1.0, 2.0])\n"
            "s = m.solve()\n"
            "assert 'scipy.optimize' in sys.modules\n"
            "assert s.status == 'optimal' and abs(s.objective - 3.0) < 1e-6, s\n"
            "print('deferred-ok')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "deferred-ok" in out.stdout


class TestRowEntryPoint:
    """``add_row`` appends to the one row store the solver reads."""

    def test_add_row_appends_to_the_row_store(self):
        m = LPModel()
        x, y = m.add_column("x"), m.add_column("y")
        assert m.add_row([y, x], [2.0, -1.0], "<=", 4.0) == 0
        assert m.add_row([x], [1.0], "==", 0.0) == 1
        assert (m.cols, m.vals, m.starts) == ([1, 0, 0], [2.0, -1.0, 1.0], [0, 2, 3])
        assert (m.senses, m.rhs) == ([0, 2], [4.0, 0.0])
        assert m.num_constraints == 2
        assert m.row(0) == ([1, 0], [2.0, -1.0], "<=", 4.0)

    def test_sparse_export_negates_ge_rows_once(self):
        import numpy as np

        from repro.solvers.scipy_backend import highs_input

        m = LPModel()
        x, y = m.add_column("x"), m.add_column("y", lower=0, upper=9)
        m.add_row([y], [3.0], "==", 6.0)
        m.add_row([x, y], [1.0, -2.0], ">=", 1.0)
        m.add_row([x, y], [1.0, 1.0], "<=", 7.0)
        m.set_objective([x, y], [1.0, 2.0])
        c, a, lo, hi, lb, ub = highs_input(m)
        assert np.array_equal(c, [1.0, 2.0])
        assert a.format == "csc" and a.has_canonical_format
        # Inequality rows first, in row order, then the ``==`` row.
        assert np.array_equal(a.toarray(), [[-1.0, 2.0], [1.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(lo, [-np.inf, -np.inf, 6.0])
        assert np.array_equal(hi, [-1.0, 7.0, 6.0])
        assert np.array_equal(lb, [-np.inf, 0.0]) and np.array_equal(ub, [np.inf, 9.0])

    @pytest.mark.parametrize("sense", ["<=", "=="])
    def test_an_absent_block_is_left_out(self, sense):
        # ``linprog_input`` gives the sense that is absent no block, and
        # the stacked export no rows.
        import numpy as np

        from repro.solvers.scipy_backend import highs_input

        m = LPModel()
        x, y = m.add_column("x"), m.add_column("y")
        m.add_row([x, y], [1.0, 1.0], sense, 1.0)
        want = linprog_input(m)
        present, absent = ("ub", "eq") if sense == "<=" else ("eq", "ub")
        assert want[f"A_{absent}"] is None and want[f"b_{absent}"] is None
        _, a, lo, hi, _, _ = highs_input(m)
        assert a.shape == want[f"A_{present}"].shape == (1, 2)
        assert np.array_equal(hi, [1.0])
        assert np.array_equal(lo, [-np.inf] if sense == "<=" else [1.0])
        assert m.solve().status == "optimal"

    def test_an_empty_row_is_kept(self, monkeypatch):
        # The offset LP has ``0 == shift coefficient`` for a LIV neither port
        # carries; the row must reach the solver, not vanish.
        import scipy.optimize

        from repro.solvers.scipy_backend import highs_input

        m = LPModel()
        m.add_column("x", lower=0)
        m.add_row([], [], "==", 1.0)
        _, a, lo, hi, _, _ = highs_input(m)
        assert a.shape == (1, 1) and a.nnz == 0
        assert lo[0] == hi[0] == 1.0
        seen = []
        real = scipy.optimize.milp

        def spy(c, **kw):
            seen.append(kw["constraints"])
            return real(c, **kw)

        monkeypatch.setattr(scipy.optimize, "milp", spy)
        assert m.solve().status == "infeasible"
        (con,) = seen
        assert con.A.shape == (1, 1) and list(con.lb) == list(con.ub) == [1.0]

    def test_solve_hands_milp_the_stacked_export(self, monkeypatch):
        import numpy as np
        import scipy.optimize
        from scipy.sparse import vstack

        seen = []
        real = scipy.optimize.milp

        def spy(c, **kw):
            seen.append((c, kw))
            return real(c, **kw)

        monkeypatch.setattr(scipy.optimize, "milp", spy)
        m = LPModel()
        x, y = m.add_column("x"), m.add_column("y", lower=0)
        m.add_row([x, y], [1.0, 1.0], "==", 3.0)
        m.add_row([x, y], [1.0, -1.0], ">=", 1.0)
        m.set_objective([x, y], [1.0, 2.0], 5.0)
        s = m.solve()
        ((c, kw),) = seen
        # No integrality and no options: HiGHS's defaults, as ``linprog``
        # left them.
        assert set(kw) == {"constraints", "bounds"}
        want = linprog_input(m)
        con, bounds = kw["constraints"], kw["bounds"]
        stacked = vstack((want["A_ub"], want["A_eq"]), format="csc")
        assert con.A.format == "csc" and con.A.has_canonical_format
        assert np.array_equal(con.A.indptr, stacked.indptr)
        assert np.array_equal(con.A.indices, stacked.indices)
        assert con.A.data.tobytes() == stacked.data.tobytes()
        assert np.array_equal(con.lb, [-np.inf, 3.0])
        assert np.array_equal(con.ub, [-1.0, 3.0])
        assert np.array_equal(bounds.lb, want["bounds"][:, 0])
        assert np.array_equal(bounds.ub, want["bounds"][:, 1])
        assert c.tobytes() == want["c"].tobytes()
        assert type(s.x) is list and all(type(v) is float for v in s.x)
        assert (s.x[x], s.x[y]) == (pytest.approx(3.0), pytest.approx(0.0))
        assert s.objective == pytest.approx(8.0)


class TestThePostSolveCheck:
    """``solve_scipy`` checks HiGHS's point before the planner uses it,
    as ``linprog`` did: a NaN, or a bound or row broken by more than
    ``TOL``, raises instead of becoming a plan."""

    @staticmethod
    def _model():
        m = LPModel()
        x, y = m.add_column("x"), m.add_column("y", lower=0)
        m.add_row([x, y], [1.0, -1.0], ">=", 1.0)
        m.add_row([x, y], [1.0, 1.0], "==", 3.0)
        m.set_objective([x, y], [1.0, 2.0])
        return m

    @staticmethod
    def _doctor(monkeypatch, edit):
        """Make ``milp`` return HiGHS's result with ``edit`` applied."""
        import scipy.optimize

        real = scipy.optimize.milp

        def doctored(c, **kw):
            res = real(c, **kw)
            edit(res)
            return res

        monkeypatch.setattr(scipy.optimize, "milp", doctored)

    @pytest.mark.parametrize("delta", [1e-3, -1e-3], ids=["up", "down"])
    def test_a_perturbed_point_raises(self, monkeypatch, delta):
        from repro.solvers.scipy_backend import TOL

        assert abs(delta) > TOL

        def perturb(res):
            res.x = res.x + [delta, 0.0]

        self._doctor(monkeypatch, perturb)
        with pytest.raises(RuntimeError, match="violates the LP"):
            self._model().solve()

    def test_a_point_off_its_bound_raises(self, monkeypatch):
        def below_zero(res):
            res.x = res.x - 1e-3

        m = LPModel()
        y = m.add_column("y", lower=0)
        m.set_objective([y], [1.0])
        self._doctor(monkeypatch, below_zero)
        with pytest.raises(RuntimeError, match="violates the LP"):
            m.solve()

    def test_a_move_inside_the_tolerance_passes(self, monkeypatch):
        from repro.solvers.scipy_backend import TOL

        def nudge(res):
            res.x = res.x + [TOL / 2, 0.0]

        self._doctor(monkeypatch, nudge)
        assert self._model().solve().status == "optimal"

    @pytest.mark.parametrize("where", ["x", "fun", "no point"])
    def test_a_nan_raises(self, monkeypatch, where):
        import numpy as np

        def poison(res):
            if where == "x":
                res.x = np.where(np.arange(len(res.x)) == 0, np.nan, res.x)
            elif where == "fun":
                res.fun = float("nan")
            else:
                res.x = None

        self._doctor(monkeypatch, poison)
        with pytest.raises(RuntimeError, match="no point, or a NaN"):
            self._model().solve()

    def test_a_failed_solve_raises(self, monkeypatch):
        def fail(res):
            res.status, res.success, res.message = 4, False, "numerical trouble"

        self._doctor(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="numerical trouble"):
            self._model().solve()

    def test_an_infeasible_model_is_reported_not_raised(self):
        m = self._model()
        m.add_row([0], [1.0], "<=", -10.0)
        assert m.solve().status == "infeasible"

    def test_an_offset_solve_writes_nothing_to_stdout_or_stderr(self, capfd):
        # The CLI prints JSON on fd 1 and the daemon logs on fd 2: HiGHS
        # must not log to either.
        from repro.adg import build_adg
        from repro.align import solve_axis_stride, solve_mobile_offsets
        from repro.lang import programs

        capfd.readouterr()
        adg = build_adg(programs.figure1(n=10))
        skel = solve_axis_stride(adg).skeletons
        res = solve_mobile_offsets(adg, skel, "fixed")
        assert res.lp_stats
        assert capfd.readouterr() == ("", "")
