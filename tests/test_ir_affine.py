"""Unit tests for affine forms over LIVs."""

from fractions import Fraction

import pytest

from repro.ir import LIV, AffineForm

k = LIV("k")
j = LIV("j")


class TestConstruction:
    def test_constant(self):
        f = AffineForm(5)
        assert f.is_constant
        assert f.const == 5
        assert f.evaluate({}) == 5

    def test_variable(self):
        f = AffineForm.variable(k)
        assert not f.is_constant
        assert f.coeff(k) == 1
        assert f.evaluate({k: 7}) == 7

    def test_zero_coeffs_dropped(self):
        f = AffineForm(1, {k: 0})
        assert f.is_constant
        assert f.livs() == frozenset()

    def test_fraction_const(self):
        f = AffineForm(Fraction(1, 2))
        assert f.const == Fraction(1, 2)
        assert not f.is_integral()

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            AffineForm("x")  # type: ignore[arg-type]


class TestArithmetic:
    def test_add(self):
        f = AffineForm(1, {k: 2}) + AffineForm(3, {k: -2, j: 1})
        assert f.const == 4
        assert f.coeff(k) == 0
        assert f.coeff(j) == 1

    def test_add_scalar(self):
        f = AffineForm(1, {k: 2}) + 10
        assert f.const == 11
        assert (10 + AffineForm(1)).const == 11

    def test_sub(self):
        f = AffineForm(5, {k: 3}) - AffineForm(2, {k: 3})
        assert f == AffineForm(3)

    def test_rsub(self):
        f = 10 - AffineForm(1, {k: 1})
        assert f.const == 9
        assert f.coeff(k) == -1

    def test_neg(self):
        f = -AffineForm(1, {k: 2})
        assert f.const == -1
        assert f.coeff(k) == -2

    def test_scalar_mul(self):
        f = AffineForm(1, {k: 2}) * 3
        assert f.const == 3
        assert f.coeff(k) == 6
        assert (3 * AffineForm(1, {k: 2})) == f

    def test_div(self):
        f = AffineForm(2, {k: 4}) / 2
        assert f.const == 1
        assert f.coeff(k) == 2

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            AffineForm(1) / 0


class TestEvaluationSubstitution:
    def test_evaluate_multi(self):
        f = AffineForm(1, {k: 2, j: -1})
        assert f.evaluate({k: 3, j: 4}) == 1 + 6 - 4

    def test_evaluate_unbound_raises(self):
        with pytest.raises(KeyError):
            AffineForm(0, {k: 1}).evaluate({})

    def test_substitute_affine(self):
        f = AffineForm(0, {k: 2})
        g = f.substitute({k: AffineForm(1, {j: 1})})  # k -> j + 1
        assert g.const == 2
        assert g.coeff(j) == 2
        assert g.coeff(k) == 0

    def test_substitute_partial(self):
        f = AffineForm(0, {k: 1, j: 1})
        g = f.substitute({k: 5})
        assert g.const == 5
        assert g.coeff(j) == 1

    def test_shift_liv(self):
        f = AffineForm(0, {k: 3})
        g = f.shift_liv(k, 2)  # k -> k + 2
        assert g.const == 6
        assert g.coeff(k) == 3


class TestVectorView:
    def test_rounded(self):
        f = AffineForm(Fraction(5, 2), {k: Fraction(1, 3)})
        r = f.rounded()
        assert r.is_integral()
        assert r.const == 2
        assert r.coeff(k) == 0


class TestEqualityHash:
    def test_eq_scalar(self):
        assert AffineForm(3) == 3
        assert AffineForm(3, {k: 1}) != 3

    def test_hashable(self):
        s = {AffineForm(1, {k: 2}), AffineForm(1, {k: 2}), AffineForm(2)}
        assert len(s) == 2

    def test_liv_depth_distinguishes(self):
        k0 = LIV("k", 0)
        k1 = LIV("k", 1)
        assert AffineForm.variable(k0) != AffineForm.variable(k1)

    def test_repr_readable(self):
        assert repr(AffineForm(3, {k: 2})) == "3 + 2*k"
        assert repr(AffineForm(0)) == "0"



def _unpickled(cls, state):
    """What ``pickle.loads`` builds from ``state``: ``cls.__new__`` and
    then ``__setstate__`` (the BUILD opcode)."""
    obj = cls.__new__(cls)
    obj.__setstate__(state)
    return obj


class TestPickle:
    def test_a_state_of_fractions_loads_canonical(self):
        """Unpickling goes through the constructor: a state of integral
        ``Fraction`` values loads as the ``int`` they are, with the memo
        and hash slots set."""
        f = _unpickled(AffineForm, (Fraction(3), {k: Fraction(2), j: Fraction(1, 2)}))
        want = AffineForm(3, {k: 2, j: Fraction(1, 2)})
        assert f == want and hash(f) == hash(want)
        assert type(f.const) is int and type(f.coeff(k)) is int
        assert f.coeff(j) == Fraction(1, 2) and not f.is_integral()
        assert f.evaluate({k: 1, j: 4}) == 7  # the memo slot was set too
        g = _unpickled(AffineForm, (Fraction(3), {k: Fraction(2)}))
        assert g == AffineForm(3, {k: 2}) and hash(g) == hash(AffineForm(3, {k: 2}))
        assert g.is_integral() and repr(g) == "3 + 2*k"

    def test_roundtrip_keeps_no_hash(self):
        import pickle

        f = AffineForm(3, {k: 2})
        hash(f)
        assert f.__getstate__() == (3, {k: 2})
        g = pickle.loads(pickle.dumps(f))
        assert g._hash is None and g == f and hash(g) == hash(f)
