"""Unit tests for the LP value and its HiGHS solve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.solvers import solve

from lp_reference import Rows, as_lp, linprog_input


def abs_bound(m, bound, x, const):
    """``bound >= |x + const|`` as the paper's two rows."""
    m.add({bound: 1.0, x: 1.0}, ">=", -const)
    m.add({bound: 1.0, x: -1.0}, ">=", const)


class TestBasicLPs:
    def test_bounded_minimum(self):
        m = Rows()
        x, y = m.column(), m.column(0)
        m.add({x: 1.0, y: -1.0}, ">=", 1.0)
        m.add({x: 1.0, y: 1.0}, ">=", 3.0)
        m.objective = {x: 1.0, y: 2.0}
        s = solve(as_lp(m))
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0)

    def test_equality_constraints(self):
        m = Rows()
        x, y = m.column(0), m.column(0)
        m.add({x: 1.0, y: 1.0}, "==", 10.0)
        m.objective = {x: 3.0, y: 1.0}
        s = solve(as_lp(m))
        assert s.objective == pytest.approx(10.0)
        assert s.x[y] == pytest.approx(10.0)

    def test_free_variable_negative_optimum(self):
        m = Rows()
        x = m.column()
        m.add({x: 1.0}, ">=", -7.0)
        m.objective = {x: 1.0}
        s = solve(as_lp(m))
        assert s.objective == pytest.approx(-7.0)

    def test_upper_bounds(self):
        m = Rows()
        x = m.column(0, 4)
        m.objective = {x: -1.0}
        s = solve(as_lp(m))
        assert s.objective == pytest.approx(-4.0)

    def test_infeasible(self):
        m = Rows()
        x = m.column(0)
        m.add({x: 1.0}, "<=", -1.0)
        m.objective = {x: 1.0}
        assert solve(as_lp(m)).status == "infeasible"

    def test_unbounded(self):
        m = Rows()
        x = m.column()
        m.objective = {x: 1.0}
        s = solve(as_lp(m))
        assert s.status == "unbounded"

    def test_abs_bound_pair(self):
        # minimize |x - 5| + |x - 9| -> 4 anywhere in [5, 9]
        m = Rows()
        x, t1, t2 = m.column(), m.column(0), m.column(0)
        abs_bound(m, t1, x, -5.0)
        abs_bound(m, t2, x, -9.0)
        m.objective = {t1: 1.0, t2: 1.0}
        s = solve(as_lp(m))
        assert s.objective == pytest.approx(4.0)
        assert 5 - 1e-6 <= s.x[x] <= 9 + 1e-6

    def test_weighted_median(self):
        # minimize sum w_i |x - a_i|: optimum at weighted median (a=3)
        m = Rows()
        x = m.column()
        for w, a in [(1, 0), (5, 3), (1, 10)]:
            t = m.column(0)
            abs_bound(m, t, x, -float(a))
            m.objective[t] = float(w)
        s = solve(as_lp(m))
        assert s.x[x] == pytest.approx(3.0, abs=1e-6)

    def test_unconstrained_zero_objective(self):
        m = Rows()
        m.column()
        t = m.column(0)
        m.objective = {t: 1.0}
        s = solve(as_lp(m))
        assert s.status == "optimal"
        assert s.objective == pytest.approx(0.0)

    def test_solve_takes_no_solver_choice(self):
        m = Rows()
        m.column(0)
        with pytest.raises(TypeError):
            solve(as_lp(m), "scipy")


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
            "import numpy as np\n"
            "from repro.solvers import LP, solve\n"
            "# min x + 2y subject to -x + y <= -1, -x - y <= -3, y >= 0\n"
            "lp = LP(np.array([1.0, 2.0]), np.array([0, 2, 4]),\n"
            "        np.array([0, 1, 0, 1]), np.array([-1.0, -1.0, 1.0, -1.0]),\n"
            "        (2, 2), np.full(2, -np.inf), np.array([-1.0, -3.0]),\n"
            "        np.array([-np.inf, 0.0]), np.full(2, np.inf))\n"
            "s = solve(lp)\n"
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
    """Where rows enter HiGHS: ``solve`` hands ``milp`` the LP's own
    arrays, the ``<=`` rows stacked over the ``==`` rows."""

    @staticmethod
    def _spy(monkeypatch):
        import scipy.optimize

        seen = []
        real = scipy.optimize.milp

        def spy(c, **kw):
            seen.append((c, kw))
            return real(c, **kw)

        monkeypatch.setattr(scipy.optimize, "milp", spy)
        return seen

    @pytest.mark.parametrize("sense", ["<=", "=="])
    def test_an_absent_block_is_left_out(self, sense):
        # ``linprog_input`` gives the sense that is absent no block, and
        # the LP no rows of it.
        import numpy as np

        m = Rows()
        x, y = m.column(), m.column()
        m.add({x: 1.0, y: 1.0}, sense, 1.0)
        want = linprog_input(m)
        present, absent = ("ub", "eq") if sense == "<=" else ("eq", "ub")
        assert want[f"A_{absent}"] is None and want[f"b_{absent}"] is None
        lp = as_lp(m)
        assert lp.shape == want[f"A_{present}"].shape == (1, 2)
        assert np.array_equal(lp.hi, [1.0])
        assert np.array_equal(lp.lo, [-np.inf] if sense == "<=" else [1.0])
        assert solve(lp).status == "optimal"

    def test_an_empty_row_is_kept(self, monkeypatch):
        # The offset LP has ``0 == shift coefficient`` for a LIV neither port
        # carries; the row must reach the solver, not vanish.
        import numpy as np

        from repro.solvers import LP

        seen = self._spy(monkeypatch)
        lp = LP(
            np.zeros(1), np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0), (1, 1), np.ones(1), np.ones(1), np.zeros(1), np.full(1, np.inf),
        )
        assert solve(lp).status == "infeasible"
        ((_, kw),) = seen
        con = kw["constraints"]
        assert con.A.shape == (1, 1) and con.A.nnz == 0
        assert list(con.lb) == list(con.ub) == [1.0]

    def test_solve_hands_milp_the_stacked_export(self, monkeypatch):
        import numpy as np

        seen = self._spy(monkeypatch)
        m = Rows()
        x, y = m.column(), m.column(0)
        m.add({x: 1.0, y: -1.0}, ">=", 1.0)
        m.add({x: 1.0, y: 1.0}, "==", 3.0)
        m.objective = {x: 1.0, y: 2.0}
        lp = as_lp(m)
        s = solve(lp)
        ((c, kw),) = seen
        # No integrality and no options: HiGHS's defaults, as ``linprog``
        # left them.
        assert set(kw) == {"constraints", "bounds"}
        con, bounds = kw["constraints"], kw["bounds"]
        assert con.A.format == "csc" and con.A.has_canonical_format
        assert np.array_equal(con.A.indptr, lp.indptr)
        assert np.array_equal(con.A.indices, lp.indices)
        assert con.A.data.tobytes() == lp.data.tobytes()
        assert con.lb.tobytes() == lp.lo.tobytes() and con.ub.tobytes() == lp.hi.tobytes()
        assert bounds.lb.tobytes() == lp.lb.tobytes()
        assert bounds.ub.tobytes() == lp.ub.tobytes()
        assert c.tobytes() == lp.c.tobytes()
        assert type(s.x) is list and all(type(v) is float for v in s.x)
        assert (s.x[x], s.x[y]) == (pytest.approx(3.0), pytest.approx(0.0))
        assert s.objective == pytest.approx(3.0)

    def test_the_lp_is_read_only(self):
        import dataclasses

        lp = as_lp(Rows())
        with pytest.raises(dataclasses.FrozenInstanceError):
            lp.c = lp.c
        with pytest.raises(ValueError):
            lp.hi[:] = 0.0


class TestThePostSolveCheck:
    """``solve`` checks HiGHS's point before the planner uses it,
    as ``linprog`` did: a NaN, or a bound or row broken by more than
    ``TOL``, raises instead of becoming a plan."""

    @staticmethod
    def _rows():
        m = Rows()
        x, y = m.column(), m.column(0)
        m.add({x: 1.0, y: -1.0}, ">=", 1.0)
        m.add({x: 1.0, y: 1.0}, "==", 3.0)
        m.objective = {x: 1.0, y: 2.0}
        return m

    def _lp(self):
        return as_lp(self._rows())

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
        from repro.solvers.lp import TOL

        assert abs(delta) > TOL

        def perturb(res):
            res.x = res.x + [delta, 0.0]

        self._doctor(monkeypatch, perturb)
        with pytest.raises(RuntimeError, match="violates the LP"):
            solve(self._lp())

    def test_a_point_off_its_bound_raises(self, monkeypatch):
        def below_zero(res):
            res.x = res.x - 1e-3

        m = Rows()
        y = m.column(0)
        m.objective = {y: 1.0}
        self._doctor(monkeypatch, below_zero)
        with pytest.raises(RuntimeError, match="violates the LP"):
            solve(as_lp(m))

    def test_a_move_inside_the_tolerance_passes(self, monkeypatch):
        from repro.solvers.lp import TOL

        def nudge(res):
            res.x = res.x + [TOL / 2, 0.0]

        self._doctor(monkeypatch, nudge)
        assert solve(self._lp()).status == "optimal"

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
            solve(self._lp())

    def test_a_failed_solve_raises(self, monkeypatch):
        def fail(res):
            res.status, res.success, res.message = 4, False, "numerical trouble"

        self._doctor(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="numerical trouble"):
            solve(self._lp())

    def test_an_infeasible_model_is_reported_not_raised(self):
        m = self._rows()
        m.add({0: 1.0}, "<=", -10.0)
        assert solve(as_lp(m)).status == "infeasible"

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
