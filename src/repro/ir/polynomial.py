"""Multivariate polynomials over loop induction variables.

Data weights in the ADG (the size of the object flowing along an edge at a
given iteration) are polynomial in the LIVs: Section 2.4 restricts object
extents to be affine in the LIVs, so the element count of a d-dimensional
object — a product of d affine extents — is a degree-d polynomial.

Communication weights in both the stride problem (Section 3) and the
offset problem (Sections 4.2–4.3) are sums of these polynomials over
iteration spaces, which :mod:`repro.ir.closedform` evaluates exactly
from the power sums of :func:`sum_powers` (Faulhaber).

Coefficients and results are the canonical scalar of
:mod:`repro.ir.affine` — an ``int`` when integral, a ``Fraction``
otherwise — and the two divisions of the closed forms (the Bernoulli
recurrence, Faulhaber's ``1/(p+1)``) go through
:func:`~repro.ir.affine.exact_div`: an element count summed over an
integer triplet is an ``int`` from end to end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping, Union

from .affine import AffineForm, Scalar, exact_div, scalar
from .symbols import LIV

# A monomial is a frozenset-free canonical form: a tuple of (LIV, exponent)
# pairs sorted by (depth, name), exponents >= 1.
Monomial = tuple[tuple[LIV, int], ...]

_EMPTY: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[LIV, int] = {}
    for liv, e in a + b:
        exps[liv] = exps.get(liv, 0) + e
    return tuple(sorted(exps.items(), key=lambda p: (p[0].depth, p[0].name)))


# Unbounded, but keyed by the index alone: it holds B_0 .. B_p for the
# highest power-sum degree p asked for.  The planner asks only through
# ``closedform._power_sums``, for one above a weight's highest power of
# one LIV, and only from degree 4 up (none of the 16 benchmark kernels'
# weights reach it, so planning them never calls this).
@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Scalar:
    """Bernoulli numbers B_n (B_1 = -1/2 convention), via the standard recurrence."""
    if n == 0:
        return 1
    total = 0
    for k in range(n):
        total += comb(n + 1, k) * _bernoulli(k)
    return exact_div(-total, n + 1)


def sum_powers(n: int, p: int) -> Scalar:
    """Exact ``sum_{t=0}^{n-1} t**p`` (Faulhaber).  ``n >= 0``, ``p >= 0``."""
    if n <= 0:
        return 0
    if p == 0:
        return n
    # Faulhaber: sum_{t=0}^{n-1} t^p = (1/(p+1)) sum_{j=0}^{p} C(p+1, j) B_j n^{p+1-j}
    total = 0
    for j in range(p + 1):
        total += comb(p + 1, j) * _bernoulli(j) * n ** (p + 1 - j)
    return exact_div(total, p + 1)


class Polynomial:
    """A multivariate polynomial with exact rational coefficients.

    Stored as ``{monomial: coefficient}``.  Immutable by convention
    (operations return new instances).
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None) -> None:
        cleaned: dict[Monomial, Scalar] = {}
        if terms:
            for mono, c in terms.items():
                fc = scalar(c)
                if fc != 0:
                    cleaned[mono] = fc
        self._terms = cleaned
        self._hash: int | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls({_EMPTY: c})

    @classmethod
    def variable(cls, liv: LIV) -> "Polynomial":
        return cls({((liv, 1),): 1})

    @classmethod
    def from_affine(cls, form: AffineForm) -> "Polynomial":
        terms: dict[Monomial, Scalar] = {_EMPTY: form.const}
        for liv, c in form.coeffs.items():
            terms[((liv, 1),)] = c
        return cls(terms)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        return dict(self._terms)

    def coeff(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, 0)

    @property
    def const(self) -> Scalar:
        return self._terms.get(_EMPTY, 0)

    @property
    def is_constant(self) -> bool:
        return all(m == _EMPTY for m in self._terms)

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max((sum(e for _, e in m) for m in self._terms), default=0)

    def livs(self) -> frozenset[LIV]:
        out: set[LIV] = set()
        for m in self._terms:
            out.update(liv for liv, _ in m)
        return frozenset(out)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Polynomial | AffineForm | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | AffineForm | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | AffineForm | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, p: int) -> "Polynomial":
        if p < 0:
            raise ValueError("negative power of Polynomial")
        out = Polynomial.constant(1)
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base
            p >>= 1
        return out

    # -- evaluation, substitution ---------------------------------------------

    def evaluate(self, env: Mapping[LIV, Scalar]) -> Scalar:
        total = 0
        for m, c in self._terms.items():
            val = c
            for liv, e in m:
                if liv not in env:
                    raise KeyError(f"unbound LIV {liv.name}")
                val *= env[liv] ** e
            total += val
        return scalar(total)

    def substitute(self, env: Mapping[LIV, "Polynomial | AffineForm | Scalar"]) -> "Polynomial":
        """Replace LIVs by polynomials; absent LIVs stay symbolic."""
        result = Polynomial()
        for m, c in self._terms.items():
            term = Polynomial.constant(c)
            for liv, e in m:
                repl = env.get(liv)
                if repl is None:
                    factor = Polynomial.variable(liv)
                elif isinstance(repl, Polynomial):
                    factor = repl
                elif isinstance(repl, AffineForm):
                    factor = Polynomial.from_affine(repl)
                else:
                    factor = Polynomial.constant(repl)
                term = term * factor**e
            result = result + term
        return result

    # -- equality, display ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.const == other
        if isinstance(other, AffineForm):
            other = Polynomial.from_affine(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._terms.items()))
        return h

    # -- pickling (drop the hash: LIV names hash per process) --------------------

    def __getstate__(self):
        return None, {"_terms": self._terms}

    def __setstate__(self, state) -> None:
        # Through the constructor: it sets the slots the state leaves out.
        self.__init__(state[1]["_terms"])

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(
            self._terms,
            key=lambda m: (-sum(e for _, e in m), [(v.name, e) for v, e in m]),
        ):
            c = self._terms[m]
            if m == _EMPTY:
                parts.append(str(c))
                continue
            mono = "*".join(
                f"{v.name}" if e == 1 else f"{v.name}^{e}" for v, e in m
            )
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x: Union["Polynomial", AffineForm, int, Fraction]) -> "Polynomial | None":
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, AffineForm):
        return Polynomial.from_affine(x)
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    return None
