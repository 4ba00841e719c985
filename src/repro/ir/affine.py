"""Affine forms over loop induction variables.

Section 2.4 of the paper restricts mobile alignment functions to affine
functions of the LIVs: for a k-deep loop nest with LIVs ``i1 .. ik`` the
alignment is ``a0 + a1*i1 + ... + ak*ik``, written ``a i^T`` with
``i = (1, i1, ..., ik)``.

:class:`AffineForm` is that coefficient vector with exact rational
arithmetic so that LP round-off never leaks into the symbolic layer;
rounding to integers is an explicit, separate step (the "R" in the
paper's RLP).

**The canonical scalar.**  Every exact value the planner stores — a
coefficient here or in a :class:`~repro.ir.polynomial.Polynomial`, a
moment sum, a cost — is a Python ``int`` whenever it is integral and a
``fractions.Fraction`` only when a denominator survives (:func:`scalar`
normalises; the constructors apply it).  Strides, rounded offsets and
sums over integer triplets are integers, so almost all of the planner's
arithmetic is ``int`` arithmetic.  ``int`` and ``Fraction`` of equal
value compare and hash equal, so no dict, set or LP row order depends on
which one a value is; ``str`` renders both alike and the fingerprint
renderer (:mod:`repro.passes.core`) writes both as a ``Fraction``, so no
fingerprint or payload does either.

**The division rule.**  A planner scalar is never divided with ``/``:
``int / int`` is a ``float``, and no ``float`` may enter the symbolic
layer.  :func:`exact_div` is the one division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .symbols import LIV

Scalar = Union[int, Fraction]


def scalar(x: Scalar | float) -> Scalar:
    """``x`` as the canonical exact scalar: an ``int`` when integral."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        # Floats appear only at the LP boundary; convert exactly.
        x = Fraction(x).limit_denominator(10**12)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}")


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """``a / b`` exactly: an ``int`` when ``b`` divides ``a``, else a
    ``Fraction``.  The one division of planner scalars (``int / int``
    is a ``float``)."""
    return scalar(Fraction(a) / b)


class AffineForm:
    """An affine function ``a0 + sum_j a_j * liv_j`` of LIVs.

    Immutable.  LIVs not present in the coefficient map have coefficient
    zero.  Supports +, -, scalar *, substitution, and evaluation.
    """

    __slots__ = ("_const", "_coeffs", "_hash")

    def __init__(
        self,
        const: Scalar = 0,
        coeffs: Mapping[LIV, Scalar] | None = None,
    ) -> None:
        self._const = scalar(const)
        cleaned: dict[LIV, Scalar] = {}
        if coeffs:
            for liv, c in coeffs.items():
                fc = scalar(c)
                if fc != 0:
                    cleaned[liv] = fc
        self._coeffs = cleaned
        # Computed lazily so short-lived forms pay nothing.
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "AffineForm":
        return cls(c)

    @classmethod
    def variable(cls, liv: LIV, coeff: Scalar = 1) -> "AffineForm":
        return cls(0, {liv: coeff})

    # -- inspection ----------------------------------------------------

    @property
    def const(self) -> Scalar:
        return self._const

    def coeff(self, liv: LIV) -> Scalar:
        return self._coeffs.get(liv, 0)

    @property
    def coeffs(self) -> dict[LIV, Scalar]:
        return dict(self._coeffs)

    def livs(self) -> frozenset[LIV]:
        return frozenset(self._coeffs)

    @property
    def is_constant(self) -> bool:
        return not self._coeffs

    def is_integral(self) -> bool:
        """True when every coefficient (and the constant) is an integer."""
        return type(self._const) is int and all(
            type(c) is int for c in self._coeffs.values()
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "AffineForm | Scalar") -> "AffineForm":
        # ``AffineForm`` first: an ``isinstance`` against ``Fraction``
        # (an ABC) costs as much as the sum.
        if not isinstance(other, AffineForm):
            if isinstance(other, (int, Fraction)):
                return AffineForm(self._const + other, self._coeffs)
            return NotImplemented
        coeffs = dict(self._coeffs)
        for liv, c in other._coeffs.items():
            coeffs[liv] = coeffs.get(liv, 0) + c
        return AffineForm(self._const + other._const, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self._const, {v: -c for v, c in self._coeffs.items()})

    def __sub__(self, other: "AffineForm | Scalar") -> "AffineForm":
        if isinstance(other, (AffineForm, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: Scalar) -> "AffineForm":
        return (-self) + other

    def __mul__(self, k: Scalar) -> "AffineForm":
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        return AffineForm(
            self._const * k, {v: c * k for v, c in self._coeffs.items()}
        )

    __rmul__ = __mul__

    def __truediv__(self, k: Scalar) -> "AffineForm":
        if k == 0:
            raise ZeroDivisionError("division of AffineForm by zero")
        return self * exact_div(1, k)

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, env: Mapping[LIV, Scalar]) -> Scalar:
        """Evaluate at a point; every LIV with nonzero coefficient must be bound."""
        total = self._const
        try:
            for liv, c in self._coeffs.items():
                total += c * env[liv]
        except KeyError as exc:
            raise KeyError(f"unbound LIV {exc.args[0].name} in evaluation") from None
        return scalar(total)

    def substitute(self, env: Mapping[LIV, "AffineForm | Scalar"]) -> "AffineForm":
        """Replace LIVs by affine forms (loop normalization, transformer nodes).

        LIVs absent from ``env`` are left symbolic.
        """
        result = AffineForm(self._const)
        for liv, c in self._coeffs.items():
            repl = env.get(liv)
            if repl is None:
                result = result + AffineForm.variable(liv, c)
            elif isinstance(repl, AffineForm):
                result = result + repl * c
            else:
                result = result + repl * c
        return result

    def shift_liv(self, liv: LIV, delta: Scalar) -> "AffineForm":
        """Substitute ``liv -> liv + delta`` (loop-back transformer semantics)."""
        return self.substitute({liv: AffineForm.variable(liv) + delta})

    def rounded(self) -> "AffineForm":
        """Round every coefficient to the nearest integer (the R of RLP)."""
        return AffineForm(
            round(self._const), {v: round(c) for v, c in self._coeffs.items()}
        )

    # -- pickling (drop the hash) ----------------------------------------------

    def __getstate__(self):
        return (self._const, self._coeffs)

    def __setstate__(self, state) -> None:
        # Through the constructor: it sets the slots the state leaves out.
        self.__init__(*state)

    # -- equality, hashing, display ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AffineForm):
            return self._const == other._const and self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self._const == other
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._const, frozenset(self._coeffs.items())))
        return h

    def __repr__(self) -> str:
        parts: list[str] = []
        if self._const != 0 or not self._coeffs:
            parts.append(str(self._const))
        for liv in sorted(self._coeffs, key=lambda v: (v.depth, v.name)):
            c = self._coeffs[liv]
            if c == 1:
                parts.append(f"{liv.name}")
            elif c == -1:
                parts.append(f"-{liv.name}")
            else:
                parts.append(f"{c}*{liv.name}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out


ZERO = AffineForm(0)
ONE = AffineForm(1)
