"""Unit tests for polynomials and Faulhaber power sums."""

from fractions import Fraction

import pytest

from repro.ir import LIV, AffineForm, Polynomial, sum_powers

k = LIV("k")
j = LIV("j")


class TestSumPowers:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 7])
    def test_matches_bruteforce(self, n, p):
        assert sum_powers(n, p) == sum(Fraction(t) ** p for t in range(n))

    def test_negative_n(self):
        assert sum_powers(-3, 2) == 0


class TestArithmetic:
    def test_from_affine(self):
        p = Polynomial.from_affine(AffineForm(2, {k: 3}))
        assert p.evaluate({k: 4}) == 14
        assert p.degree() == 1

    def test_mul_degree(self):
        p = Polynomial.from_affine(AffineForm(0, {k: 1}))
        q = p * p
        assert q.degree() == 2
        assert q.evaluate({k: 5}) == 25

    def test_cross_variable_product(self):
        p = Polynomial.variable(k) * Polynomial.variable(j)
        assert p.evaluate({k: 3, j: 4}) == 12
        assert p.degree() == 2

    def test_add_sub(self):
        p = Polynomial.variable(k) + 3
        q = p - Polynomial.variable(k)
        assert q == 3

    def test_pow(self):
        p = (Polynomial.variable(k) + 1) ** 3
        assert p.evaluate({k: 2}) == 27

    def test_pow_negative_raises(self):
        with pytest.raises(ValueError):
            Polynomial.variable(k) ** -1


class TestSubstitution:
    def test_substitute_affine(self):
        p = Polynomial.variable(k) ** 2
        q = p.substitute({k: AffineForm(1, {j: 1})})  # (j+1)^2
        assert q.evaluate({j: 3}) == 16

    def test_substitute_polynomial(self):
        p = Polynomial.variable(k) + 1
        q = p.substitute({k: Polynomial.variable(j) ** 2})
        assert q.evaluate({j: 3}) == 10


class TestPickle:
    def test_a_state_of_fractions_loads_canonical(self):
        """The slot state a ``Polynomial`` pickled with before its
        scalars were canonical: integral ``Fraction`` coefficients."""
        terms = {((k, 1),): Fraction(2), (): Fraction(1, 2), ((j, 2),): Fraction(0)}
        p = Polynomial.__new__(Polynomial)
        p.__setstate__((None, {"_terms": terms}))  # pickle's BUILD
        want = Polynomial.variable(k) * 2 + Fraction(1, 2)
        assert p == want and hash(p) == hash(want)
        assert type(p.coeff(((k, 1),))) is int and p.const == Fraction(1, 2)
        assert repr(p) == repr(want) == "2*k + 1/2"

    def test_roundtrip_keeps_the_slot_state_shape_and_no_hash(self):
        import pickle

        p = Polynomial.variable(k) * 2 + 1
        hash(p)
        assert p.__getstate__() == (None, {"_terms": {((k, 1),): 2, (): 1}})
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q._hash is None
        assert pickle.loads(pickle.dumps(Polynomial())) == Polynomial()  # an empty one still builds
