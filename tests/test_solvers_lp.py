"""Unit tests for the LP layer: from-scratch simplex vs HiGHS."""

import os
import subprocess
import sys

import pytest

from repro.solvers import LPModel

BACKENDS = ["simplex", "scipy"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBasicLPs:
    def test_bounded_minimum(self, backend):
        m = LPModel()
        x = m.var("x")
        y = m.var("y", lower=0)
        m.add(x - y, ">=", 1)
        m.add(x + y, ">=", 3)
        m.minimize(x + 2 * y)
        s = m.solve(backend)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0)

    def test_equality_constraints(self, backend):
        m = LPModel()
        x = m.var("x", lower=0)
        y = m.var("y", lower=0)
        m.add(x + y, "==", 10)
        m.minimize(3 * x + y)
        s = m.solve(backend)
        assert s.objective == pytest.approx(10.0)
        assert s[y] == pytest.approx(10.0)

    def test_free_variable_negative_optimum(self, backend):
        m = LPModel()
        x = m.var("x")
        m.add(x, ">=", -7)
        m.minimize(x)
        s = m.solve(backend)
        assert s.objective == pytest.approx(-7.0)

    def test_upper_bounds(self, backend):
        m = LPModel()
        x = m.var("x", lower=0, upper=4)
        m.minimize(-1 * x)
        s = m.solve(backend)
        assert s.objective == pytest.approx(-4.0)

    def test_infeasible(self, backend):
        m = LPModel()
        x = m.var("x", lower=0)
        m.add(x, "<=", -1)
        m.minimize(x)
        assert m.solve(backend).status == "infeasible"

    def test_unbounded(self, backend):
        m = LPModel()
        x = m.var("x")
        m.minimize(x)
        s = m.solve(backend)
        assert s.status == "unbounded"

    def test_abs_bound_pair(self, backend):
        # minimize |x - 5| + |x - 9| -> 4 anywhere in [5, 9]
        m = LPModel()
        x = m.var("x")
        t1 = m.var("t1", lower=0)
        t2 = m.var("t2", lower=0)
        m.add_abs_bound(t1, x - 5)
        m.add_abs_bound(t2, x - 9)
        m.minimize(t1 + t2)
        s = m.solve(backend)
        assert s.objective == pytest.approx(4.0)
        assert 5 - 1e-6 <= s[x] <= 9 + 1e-6

    def test_weighted_median(self, backend):
        # minimize sum w_i |x - a_i|: optimum at weighted median (a=3)
        m = LPModel()
        x = m.var("x")
        total = None
        for w, a in [(1, 0), (5, 3), (1, 10)]:
            t = m.var(f"t{a}", lower=0)
            m.add_abs_bound(t, x - a)
            total = t * w if total is None else total + t * w
        m.minimize(total)
        s = m.solve(backend)
        assert s[x] == pytest.approx(3.0, abs=1e-6)


class TestBackendsAgree:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        m = LPModel()
        n = 5
        xs = [m.var(f"x{i}", lower=0, upper=10) for i in range(n)]
        for _ in range(6):
            coeffs = rng.integers(-3, 4, size=n)
            expr = None
            for c, x in zip(coeffs, xs):
                term = x * int(c)
                expr = term if expr is None else expr + term
            m.add(expr, ">=", int(rng.integers(-10, 5)))
        obj = None
        for x in xs:
            c = int(rng.integers(1, 5))
            obj = x * c if obj is None else obj + x * c
        m.minimize(obj)
        s1 = m.solve("simplex")
        s2 = m.solve("scipy")
        assert s1.status == s2.status
        if s1.status == "optimal":
            assert s1.objective == pytest.approx(s2.objective, abs=1e-6)


class TestDeferredSciPyImport:
    def test_serve_entry_point_imports_without_scipy(self):
        # A daemon that only answers cache hits never solves an LP, so
        # importing it must not pay for the solver; the first scipy
        # solve of the process imports it and still agrees with simplex.
        probe = (
            "import sys\n"
            "import repro, repro.serve.__main__\n"
            "assert 'scipy' not in sys.modules, 'scipy imported at start-up'\n"
            "from repro.solvers import LPModel\n"
            "m = LPModel()\n"
            "x = m.var('x'); y = m.var('y', lower=0)\n"
            "m.add(x - y, '>=', 1); m.add(x + y, '>=', 3)\n"
            "m.minimize(x + 2 * y)\n"
            "a, b = m.solve(backend='simplex'), m.solve(backend='scipy')\n"
            "assert 'scipy.optimize' in sys.modules\n"
            "assert a.status == b.status == 'optimal'\n"
            "assert abs(a.objective - b.objective) < 1e-6, (a, b)\n"
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


class TestModelLayer:
    def test_constraint_const_folding(self):
        m = LPModel()
        x = m.var("x")
        i = m.add(x + 5, "<=", 8)
        assert m.row(i)[3] == 3.0

    def test_linexpr_ops(self):
        m = LPModel()
        x = m.var("x")
        y = m.var("y")
        e = 2 * x - (y - 1)
        assert e.coeffs[x] == 2.0
        assert e.coeffs[y] == -1.0
        assert e.const == 1.0

    def test_unknown_backend(self):
        m = LPModel()
        m.var("x")
        with pytest.raises(ValueError):
            m.solve("nonsense")

    def test_unconstrained_zero_objective(self):
        m = LPModel()
        m.var("x")
        m.minimize(LPModel().var("y") * 0 if False else m.var("t", lower=0))
        s = m.solve("simplex")
        assert s.status == "optimal"
        assert s.objective == pytest.approx(0.0)


class TestRowEntryPoint:
    """``add`` and ``add_abs_bound`` go through ``add_row`` into the one
    row store and give the rows they gave when each row was a
    ``{Variable: float}`` map."""

    @staticmethod
    def rows(m):
        return [m.row(i) for i in range(m.num_constraints)]

    def test_add_row_appends_to_the_row_store(self):
        m = LPModel()
        x, y = m.var("x"), m.var("y")
        assert m.add_row([y.index, x.index], [2.0, -1.0], "<=", 4.0) == 0
        assert m.add_row([x.index], [1.0], "==", 0.0) == 1
        assert (m.cols, m.vals, m.starts) == ([1, 0, 0], [2.0, -1.0, 1.0], [0, 2, 3])
        assert (m.senses, m.rhs) == ([0, 2], [4.0, 0.0])
        assert m.num_constraints == 2
        assert m.row(0) == ([1, 0], [2.0, -1.0], "<=", 4.0)

    def test_add_drops_zeros_and_folds_the_constant(self):
        m = LPModel()
        x, y, z = m.var("x"), m.var("y"), m.var("z")
        i = m.add(2 * x + y - y + 0 * z + 5, "<=", 8)
        assert m.row(i) == ([x.index], [2.0], "<=", 3.0)
        assert all(type(c) is float for c in m.vals)

    def test_add_copies_the_expression(self):
        m = LPModel()
        x = m.var("x")
        e = x + 1
        i = m.add(e, "==", 0)
        e.coeffs[x] = 5.0
        assert m.row(i) == ([x.index], [1.0], "==", -1.0)

    def test_abs_bound_rows(self):
        m = LPModel()
        x, y, t = m.var("x"), m.var("y"), m.var("t", lower=0)
        m.add_abs_bound(t, 3 * x - y + 2)
        assert self.rows(m) == [
            ([t.index, x.index, y.index], [1.0, 3.0, -1.0], ">=", -2.0),
            ([t.index, x.index, y.index], [1.0, -3.0, 1.0], ">=", 2.0),
        ]

    def test_abs_bound_on_the_bound_itself_cancels(self):
        m = LPModel()
        x, t = m.var("x"), m.var("t")
        m.add_abs_bound(t, x + t)
        plus, minus = self.rows(m)
        assert plus[:2] == ([t.index, x.index], [2.0, 1.0])
        assert minus[:2] == ([x.index], [-1.0])  # t - t dropped

    def test_sparse_export_negates_ge_rows_once(self):
        import numpy as np

        from repro.solvers.scipy_backend import linprog_input

        m = LPModel()
        x, y = m.var("x"), m.var("y", lower=0, upper=9)
        m.add(x - 2 * y, ">=", 1)
        m.add(x + y, "<=", 7)
        m.add(3 * y, "==", 6)
        m.minimize(x + 2 * y)
        got = linprog_input(m)
        assert np.array_equal(got["c"], [1.0, 2.0])
        assert got["A_ub"].format == got["A_eq"].format == "csc"
        assert np.array_equal(got["A_ub"].toarray(), [[-1.0, 2.0], [1.0, 1.0]])
        assert np.array_equal(got["b_ub"], [-1.0, 7.0])
        assert np.array_equal(got["A_eq"].toarray(), [[0.0, 3.0]])
        assert np.array_equal(got["b_eq"], [6.0])
        assert np.array_equal(got["bounds"], [[-np.inf, np.inf], [0.0, 9.0]])

    @pytest.mark.parametrize("sense", ["<=", "=="])
    def test_an_absent_block_is_left_out(self, sense):
        from repro.solvers.scipy_backend import linprog_input

        m = LPModel()
        x, y = m.var("x"), m.var("y")
        m.add(x + y, sense, 1)
        got = linprog_input(m)
        present, absent = ("ub", "eq") if sense == "<=" else ("eq", "ub")
        assert got[f"A_{absent}"] is None and got[f"b_{absent}"] is None
        assert got[f"A_{present}"].shape == (1, 2)
        assert m.solve("scipy").status == m.solve("simplex").status

    def test_an_empty_row_is_kept(self):
        # OffsetLP emits ``0 == shift coefficient`` for a LIV neither port
        # carries; the row must reach the backend, not vanish.
        from repro.solvers.scipy_backend import linprog_input

        m = LPModel()
        m.var("x", lower=0)
        m.add_row([], [], "==", 1.0)
        got = linprog_input(m)
        assert got["A_eq"].shape == (1, 1) and got["A_eq"].nnz == 0
        assert got["b_eq"][0] == 1.0
        assert m.solve("scipy").status == m.solve("simplex").status == "infeasible"

    def test_solve_hands_linprog_the_sparse_export(self, monkeypatch):
        import numpy as np
        import scipy.optimize

        from repro.solvers.scipy_backend import linprog_input

        seen = []
        real = scipy.optimize.linprog

        def spy(**kw):
            seen.append(kw)
            return real(**kw)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        m = LPModel()
        x, y = m.var("x"), m.var("y", lower=0)
        m.add(x - y, ">=", 1)
        m.add(x + y, "==", 3)
        m.minimize(x + 2 * y + 5)
        s = m.solve("scipy")
        (kw,) = seen
        want = linprog_input(m)
        for key in ("A_ub", "A_eq"):
            assert kw[key].format == "csc" and kw[key].has_canonical_format
            assert np.array_equal(kw[key].toarray(), want[key].toarray())
        assert kw["bounds"].shape == (2, 2) and kw["method"] == "highs"
        assert type(s.x) is list and all(type(v) is float for v in s.x)
        assert (s[x], s[y]) == (pytest.approx(3.0), pytest.approx(0.0))
        assert s.objective == pytest.approx(8.0)
