"""Moment sums by chained symbolic summation: the test-only reference
that ``repro.ir.closedform.weighted_moments`` (power-sum tables) is
checked against.

``sum_over`` is the closed-form ``sum_{liv in lo:hi:step}`` of a
polynomial, one LIV at a time, and ``chained_moments`` is how the
planner summed its moments before the tables: the weight (times the
LIV, for a first moment) summed over each triplet of the box in turn
until a constant is left.
"""

from __future__ import annotations

from math import comb

from repro.ir import Polynomial, sum_powers
from repro.ir.closedform import Moments


def sum_over(poly: Polynomial, liv, lo: int, hi: int, step: int = 1) -> Polynomial:
    """Exact closed-form ``sum_{liv in lo:hi:step} poly``.

    The iteration set is ``lo, lo+step, ..., <= hi`` (Fortran triplet
    semantics; empty if the triplet is empty).  The result no longer
    mentions ``liv``.
    """
    if step == 0:
        raise ValueError("step must be nonzero")
    if step > 0:
        n = max(0, (hi - lo) // step + 1) if hi >= lo else 0
    else:
        n = max(0, (lo - hi) // (-step) + 1) if hi <= lo else 0
    if n == 0:
        return Polynomial()
    # liv takes values lo + step*t for t = 0..n-1.
    result = Polynomial()
    for m, c in poly.terms.items():
        rest = tuple((v, e) for v, e in m if v != liv)
        p = next((e for v, e in m if v == liv), 0)
        # sum_t (lo + step*t)^p = sum_j C(p,j) lo^(p-j) step^j S_j(n)
        s = 0
        for j in range(p + 1):
            s += comb(p, j) * lo ** (p - j) * step**j * sum_powers(n, j)
        result = result + Polynomial({rest: c * s})
    return result


def chained_moments(space, weight: Polynomial) -> Moments:
    """``M_0`` and the first moments ``M_j``, each summed LIV by LIV."""

    def total(poly: Polynomial):
        for liv, trip in zip(space.livs, space.triplets):
            poly = sum_over(poly, liv, trip.lo, trip.hi, trip.step)
        assert poly.is_constant, "sum did not reduce to a constant"
        return poly.const

    m0 = total(weight)
    m1 = {liv: total(weight * Polynomial.variable(liv)) for liv in space.livs}
    return Moments(space, m0, m1)
