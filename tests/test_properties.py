"""Property-based tests (hypothesis) on the core data structures."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    LIV,
    AffineForm,
    Polynomial,
    Triplet,
    exact_div,
    sigma0,
    sigma1,
    sigma2,
    sum_powers,
)
from lp_reference import Rows, as_lp
from moments_reference import sum_over
from repro.align.span import split_at_crossing
from repro.solvers import solve

k = LIV("k")
j = LIV("j")

small_ints = st.integers(min_value=-50, max_value=50)
coeffs = st.integers(min_value=-10, max_value=10)


def affine_forms(livs=(k, j)):
    return st.builds(
        lambda c, cs: AffineForm(c, dict(zip(livs, cs))),
        coeffs,
        st.lists(coeffs, min_size=len(livs), max_size=len(livs)),
    )


def triplets():
    return st.builds(
        lambda lo, n, s: Triplet(lo, lo + (n - 1) * s, s),
        st.integers(-20, 20),
        st.integers(1, 40),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )


class TestAffineAlgebra:
    @given(affine_forms(), affine_forms(), st.integers(-5, 5), st.integers(-5, 5))
    def test_evaluation_is_linear(self, f, g, kv, jv):
        env = {k: kv, j: jv}
        assert (f + g).evaluate(env) == f.evaluate(env) + g.evaluate(env)
        assert (f - g).evaluate(env) == f.evaluate(env) - g.evaluate(env)
        assert (f * 3).evaluate(env) == 3 * f.evaluate(env)

    @given(affine_forms(), st.integers(-5, 5), st.integers(-5, 5), st.integers(-4, 4))
    def test_substitution_commutes_with_evaluation(self, f, kv, jv, delta):
        g = f.shift_liv(k, delta)
        assert g.evaluate({k: kv, j: jv}) == f.evaluate({k: kv + delta, j: jv})

    @given(affine_forms(), affine_forms())
    def test_addition_commutes(self, f, g):
        assert f + g == g + f


class TestPolynomialAlgebra:
    @given(affine_forms(), affine_forms(), st.integers(-4, 4), st.integers(-4, 4))
    def test_product_evaluates_pointwise(self, f, g, kv, jv):
        p = Polynomial.from_affine(f) * Polynomial.from_affine(g)
        env = {k: kv, j: jv}
        assert p.evaluate(env) == f.evaluate(env) * g.evaluate(env)

    @given(st.integers(0, 60), st.integers(0, 6))
    def test_faulhaber(self, n, p):
        assert sum_powers(n, p) == sum(Fraction(t) ** p for t in range(n))


# -- the canonical scalar against a Fraction-only reference model -----------
#
# The reference keeps an affine form as ``{None: const, liv: coeff}`` and
# a polynomial as ``{monomial: coeff}``, every value a ``Fraction``, and
# renders them with the formats of ``AffineForm.__repr__`` /
# ``Polynomial.__repr__``: what the classes computed and printed when a
# ``Fraction`` was all they stored.

scalars = st.one_of(
    st.integers(-12, 12),
    st.integers(-12, 12).map(Fraction),  # Fraction(n, 1): never stored as such
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
)
nonzero = scalars.filter(lambda x: x != 0)


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def ref_terms(const, cs, livs=(k, j)) -> dict:
    return {None: Fraction(const), **{v: Fraction(c) for v, c in zip(livs, cs)}}


def ref_add(f, g, sign=1) -> dict:
    return {t: f.get(t, 0) + sign * g.get(t, 0) for t in {**f, **g}}


def ref_scale(f, s) -> dict:
    return {t: c * Fraction(s) for t, c in f.items()}


def ref_eval(f, env) -> Fraction:
    return sum((c * (1 if v is None else Fraction(env[v])) for v, c in f.items()), Fraction(0))


def ref_str(f) -> str:
    livs = sorted((v for v, c in f.items() if v is not None and c != 0),
                  key=lambda v: (v.depth, v.name))
    parts = [str(f[None])] if f[None] != 0 or not livs else []
    for v in livs:
        c = f[v]
        parts.append(v.name if c == 1 else f"-{v.name}" if c == -1 else f"{c}*{v.name}")
    return " + ".join(parts).replace("+ -", "- ")


def ref_poly_mul(p, q) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps: dict = {}
            for v, e in m1 + m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items(), key=lambda ve: (ve[0].depth, ve[0].name)))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def ref_poly(f) -> dict:
    """The reference polynomial of a reference affine form."""
    return {(() if v is None else ((v, 1),)): c for v, c in f.items()}


def ref_poly_eval(p, env) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        for v, e in m:
            c = c * Fraction(env[v]) ** e
        total += c
    return total


def ref_poly_str(p) -> str:
    p = {m: c for m, c in p.items() if c != 0}
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (-sum(e for _, e in m), [(v.name, e) for v, e in m])):
        c = p[m]
        mono = "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in m)
        parts.append(
            str(c) if not m else mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}"
        )
    return " + ".join(parts).replace("+ -", "- ")


def assert_affine(real: AffineForm, ref: dict) -> None:
    want = {v: c for v, c in ref.items() if v is not None and c != 0}
    assert real.const == ref[None] and real.coeffs == want
    assert all(is_canonical(c) for c in (real.const, *real.coeffs.values()))
    assert real.is_integral() == all(c.denominator == 1 for c in ref.values())
    rebuilt = AffineForm(ref[None], want)  # from Fractions, through the constructor
    assert real == rebuilt and hash(real) == hash(rebuilt)
    assert str(real) == str(rebuilt) == ref_str(ref)


def assert_poly(real: Polynomial, ref: dict) -> None:
    want = {m: c for m, c in ref.items() if c != 0}
    assert real.terms == want
    assert all(is_canonical(c) for c in real.terms.values())
    rebuilt = Polynomial(want)
    assert real == rebuilt and hash(real) == hash(rebuilt)
    assert str(real) == str(rebuilt) == ref_poly_str(ref)


affine_parts = st.tuples(scalars, st.lists(scalars, min_size=2, max_size=2))


class TestCanonicalScalar:
    @given(scalars, nonzero)
    def test_exact_div_is_fraction_division(self, a, b):
        q = exact_div(a, b)
        assert q == Fraction(a) / Fraction(b) and is_canonical(q)
        assert hash(q) == hash(Fraction(a) / Fraction(b))

    @given(affine_parts, affine_parts, scalars, nonzero, scalars, scalars)
    def test_affine_forms_against_the_reference(self, f, g, s, d, kv, jv):
        F, G = AffineForm(f[0], dict(zip((k, j), f[1]))), AffineForm(g[0], dict(zip((k, j), g[1])))
        rf, rg = ref_terms(*f), ref_terms(*g)
        assert_affine(F, rf)
        assert_affine(F + G, ref_add(rf, rg))
        assert_affine(F - G, ref_add(rf, rg, -1))
        assert_affine(F + s, ref_add(rf, {None: Fraction(s)}))
        assert_affine(s - F, ref_add({None: Fraction(s)}, rf, -1))
        assert_affine(F * s, ref_scale(rf, s))
        assert_affine(F / d, ref_scale(rf, 1 / Fraction(d)))
        # k -> G, k -> s: what is left of F's k-term plus G (or s) scaled by it.
        rest = {**rf, k: Fraction(0)}
        assert_affine(F.substitute({k: G}), ref_add(rest, ref_scale(rg, rf[k])))
        assert_affine(F.substitute({k: s}), ref_add(rest, {None: rf[k] * Fraction(s)}))
        env = {k: kv, j: jv}
        value = F.evaluate(env)
        assert value == ref_eval(rf, env) and is_canonical(value)
        assert hash(value) == hash(ref_eval(rf, env))

    @given(affine_parts, affine_parts, scalars, scalars, scalars)
    def test_polynomials_against_the_reference(self, f, g, s, kv, jv):
        F, G = AffineForm(f[0], dict(zip((k, j), f[1]))), AffineForm(g[0], dict(zip((k, j), g[1])))
        P, Q = Polynomial.from_affine(F), Polynomial.from_affine(G)
        rp, rq = ref_poly(ref_terms(*f)), ref_poly(ref_terms(*g))
        assert_poly(P, rp)
        assert_poly(P + Q, ref_add(rp, rq))
        assert_poly(P - Q, ref_add(rp, rq, -1))
        assert_poly(s - P, ref_add({(): Fraction(s)}, rp, -1))
        assert_poly(P * Q, ref_poly_mul(rp, rq))
        assert_poly(P * s, ref_scale(rp, s))

        def k_becomes_g(r):  # an affine r with G in k's place
            return ref_add({**r, ((k, 1),): Fraction(0)}, ref_scale(rq, r[((k, 1),)]))

        assert_poly(
            (P * Q).substitute({k: G}), ref_poly_mul(k_becomes_g(rp), k_becomes_g(rq))
        )
        env = {k: kv, j: jv}
        value = (P * Q).evaluate(env)
        assert value == ref_poly_eval(ref_poly_mul(rp, rq), env) and is_canonical(value)

    @given(affine_parts, affine_parts, triplets())
    @settings(max_examples=40)
    def test_sum_over_against_enumeration(self, f, g, t):
        F, G = AffineForm(f[0], dict(zip((k, j), f[1]))), AffineForm(g[0], dict(zip((k, j), g[1])))
        rpq = ref_poly_mul(ref_poly(ref_terms(*f)), ref_poly(ref_terms(*g)))
        summed: dict = {}
        for v in t:  # the reference: k bound to each value of the triplet in turn
            for m, c in rpq.items():
                rest = tuple((l, e) for l, e in m if l != k)
                ke = next((e for l, e in m if l == k), 0)
                summed[rest] = summed.get(rest, 0) + c * Fraction(v) ** ke
        PQ = Polynomial.from_affine(F) * Polynomial.from_affine(G)
        assert_poly(sum_over(PQ, k, t.lo, t.hi, t.step), summed)


class TestTripletProperties:
    @given(triplets())
    def test_sigmas_match_enumeration(self, t):
        assert sigma0(t) == len(list(t))
        assert sigma1(t) == sum(t)
        assert sigma2(t) == sum(v * v for v in t)

    @given(triplets(), st.integers(1, 8))
    def test_split_partitions(self, t, m):
        parts = t.split(m)
        assert [v for p in parts for v in p] == list(t)

    @given(triplets(), st.fractions(min_value=-100, max_value=100))
    @settings(max_examples=60)
    def test_split_at_crossing_covers(self, t, cross):
        parts = split_at_crossing(t, cross)
        assert [v for p in parts for v in p] == list(t.normalized())
        # each side is sign-pure wrt (v - cross)
        for p in parts:
            signs = {(v > cross) - (v < cross) for v in p}
            assert len(signs - {0}) <= 1


class TestLPProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(-20, 20)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_weighted_median_objective(self, points):
        """min sum w|x-a| solved by LP equals brute force over candidates."""
        m = Rows()
        x = m.column()
        for w, a in points:
            # t >= |x - a| as the two rows t - x >= -a, t + x >= a
            t = m.column(0)
            m.add({t: 1.0, x: -1.0}, ">=", -float(a))
            m.add({t: 1.0, x: 1.0}, ">=", float(a))
            m.objective[t] = float(w)
        s = solve(as_lp(m))
        best = min(
            sum(w * abs(c - a) for w, a in points)
            for c in {a for _, a in points}
        )
        assert s.objective == __import__("pytest").approx(best, abs=1e-6)
