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

Over a box a monomial ``prod_j i_j^e_j`` sums to ``prod_j P_e_j(t_j)``,
with ``P_e(t) = sum_{i in t} i^e`` the triplet's power sums, so each
moment is ``sum c * prod_j P_e_j(t_j)`` over the weight's terms.  A
triplet's table ``P_0 .. P_top`` is built once per call from the index
sums ``sum_{k<n} k^d``: closed forms up to ``d = 3``, Faulhaber's
:func:`~repro.ir.polynomial.sum_powers` above.  The sigma formulas above
are its ``e <= 2`` entries.
"""

from __future__ import annotations

from math import comb

from .affine import Scalar, exact_div, scalar
from .itspace import IterationSpace, Triplet
from .polynomial import Polynomial, sum_powers
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


def _power_sums(t: Triplet, top: int) -> list[int]:
    """``P_e(t) = sum_{i in t} i**e`` for ``e = 0 .. top``.

    With ``i = lo + step*k`` for ``k < n``, ``P_e`` expands binomially
    over the index sums ``S_d = sum_{k<n} k**d``.
    """
    n = len(t)
    s1 = n * (n - 1) // 2
    index = [n, s1, n * (n - 1) * (2 * n - 1) // 6, s1 * s1][: top + 1]
    index += [sum_powers(n, d) for d in range(4, top + 1)]
    lo, step = t.lo, t.step
    return [
        sum(comb(e, d) * lo ** (e - d) * step**d * index[d] for d in range(e + 1))
        for e in range(top + 1)
    ]


def weighted_moments(space: IterationSpace, weight: Polynomial) -> Moments:
    """Compute ``M_0`` and per-LIV first moments ``M_j`` exactly.

    Works for any polynomial weight and any loop-nest depth from the
    triplets' power-sum tables (no enumeration).  LIVs appearing in
    ``weight`` must all belong to ``space``.
    """
    extra = weight.livs() - set(space.livs)
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise ValueError(f"weight mentions LIVs outside the iteration space: {names}")

    axis = {liv: j for j, liv in enumerate(space.livs)}
    terms = []  # (coefficient, exponent of each LIV of the space)
    for mono, c in weight.terms.items():
        exps = [0] * len(axis)
        for liv, e in mono:
            exps[axis[liv]] = e
        terms.append((c, exps))
    # One power above the weight's own, for the first moments.
    tables = [
        _power_sums(t, max([x[j] for _, x in terms], default=0) + 1)
        for j, t in enumerate(space.triplets)
    ]

    def moment(raised: int) -> Scalar:
        """``sum c * prod_j P_e_j``, LIV ``raised``'s power one higher."""
        total = 0
        for c, exps in terms:
            term = c
            for j, e in enumerate(exps):
                term *= tables[j][e + (j == raised)]
            total += term
        return scalar(total)

    m1 = {liv: moment(j) for j, liv in enumerate(space.livs)}
    return Moments(space, moment(-1), m1)


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
