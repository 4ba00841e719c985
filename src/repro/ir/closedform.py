"""Closed-form iteration sums: the sigma formulas of Section 4.3.

For a triplet ``l : h : s`` the paper defines

    sigma0 = sum_{i in l:h:s} 1   = (h' - l + s) / s          (iteration count)
    sigma1 = sum_{i in l:h:s} i   = (s*sigma0^2 + (2l - s)*sigma0) / 2
    sigma2 = sum_{i in l:h:s} i^2 = (2 s^2 sigma0^3 + (6 l s - 3 s^2) sigma0^2
                                     + (6 l^2 - 6 l s + s^2) sigma0) / 6

(with ``h'`` the last value actually taken).  These let the per-edge
communication cost of a variable-size object — weight ``beta0 + beta1*i``
times span ``(a - a') i^T`` — be evaluated exactly under the no-sign-change
assumption.

Beyond the paper's scalar forms, :func:`weighted_moments` generalizes to
polynomial weights and arbitrary loop nests: it returns the moment sums
``M_0 = sum_i w(i)`` and ``M_j = sum_i w(i) * i_j``, which are exactly the
coefficients that multiply the unknown alignment-coefficient differences in
the linear program of Section 4.
"""

from __future__ import annotations

from .affine import Scalar, exact_div, scalar
from .itspace import IterationSpace, Triplet
from .polynomial import Polynomial
from .symbols import LIV


def sigma0(t: Triplet) -> int:
    """Iteration count ``sum 1`` over the triplet."""
    return len(t)


def sigma1(t: Triplet) -> Scalar:
    """``sum i`` over the triplet, by the paper's closed form."""
    s0 = sigma0(t)
    s = t.step
    l = t.lo
    return exact_div(s * s0**2 + (2 * l - s) * s0, 2)


def sigma2(t: Triplet) -> Scalar:
    """``sum i**2`` over the triplet, by the paper's closed form."""
    s0 = sigma0(t)
    s = t.step
    l = t.lo
    return exact_div(
        2 * s**2 * s0**3
        + (6 * l * s - 3 * s**2) * s0**2
        + (6 * l**2 - 6 * l * s + s**2) * s0,
        6,
    )


def average_index(t: Triplet) -> Scalar:
    """Mean LIV value over the triplet: ``(l + h')/2`` for nonempty triplets.

    Appears in equation (3): the fixed-size no-sign-change cost is the
    iteration count times the span at the *average* iteration.
    """
    if t.is_empty():
        raise ValueError("empty triplet has no average index")
    return exact_div(t.lo + t.last, 2)


class Moments:
    """Moment sums of a weight polynomial over an iteration space.

    ``m0`` is ``sum_i w(i)``; ``m1[liv]`` is ``sum_i w(i) * liv``.  The
    realignment cost contribution of a subrange, assuming no sign change of
    the span ``delta0 + sum_j delta_j * i_j``, is

        | delta0 * m0 + sum_j delta_j * m1[liv_j] |

    which is linear in the unknown deltas — exactly the form RLP consumes.
    """

    __slots__ = ("space", "m0", "m1")

    def __init__(self, space: IterationSpace, m0: Scalar, m1: dict[LIV, Scalar]):
        self.space = space
        self.m0 = m0
        self.m1 = m1

    def span_sum(self, delta0: Scalar, deltas: dict[LIV, Scalar]) -> Scalar:
        """Evaluate ``delta0*m0 + sum_j deltas[j]*m1[j]`` (signed, no abs)."""
        total = delta0 * self.m0
        for liv, d in deltas.items():
            if d == 0:
                continue
            total += d * self.m1.get(liv, 0)
        return scalar(total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{v.name}:{c}" for v, c in self.m1.items())
        return f"Moments(m0={self.m0}, m1={{{inner}}})"


def weighted_moments(space: IterationSpace, weight: Polynomial) -> Moments:
    """Compute ``M_0`` and per-LIV first moments ``M_j`` exactly.

    Works for any polynomial weight and any loop-nest depth by repeated
    closed-form summation (no enumeration).  LIVs appearing in ``weight``
    must all belong to ``space``.
    """
    extra = weight.livs() - set(space.livs)
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise ValueError(f"weight mentions LIVs outside the iteration space: {names}")

    def total(poly: Polynomial) -> Scalar:
        for liv, trip in zip(space.livs, space.triplets):
            poly = poly.sum_over(liv, trip.lo, trip.hi, trip.step)
        if not poly.is_constant:
            raise AssertionError("sum did not reduce to a constant")
        return poly.const

    m0 = total(weight)
    m1 = {
        liv: total(weight * Polynomial.variable(liv)) for liv in space.livs
    }
    return Moments(space, m0, m1)


def fixed_size_cost_closed_form(
    t: Triplet, a_minus_a1: Scalar, a0_minus_a0p: Scalar
) -> Scalar:
    """Equation (3): ``C = |sigma0 * (d0 + d1*(l+h')/2)|`` for unit weights.

    ``a0_minus_a0p`` is the constant-coefficient difference d0 and
    ``a_minus_a1`` is the LIV-coefficient difference d1 of the span.
    Valid only under the no-sign-change assumption; callers that cannot
    guarantee that must subrange first.
    """
    if t.is_empty():
        return 0
    return scalar(abs(sigma0(t) * (a0_minus_a0p + a_minus_a1 * average_index(t))))
