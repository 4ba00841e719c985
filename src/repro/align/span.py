"""Spans and zero crossings (Section 4.2, Figure 3).

The *span* of an edge at iteration ``i`` is ``(a - a') i^T`` — the signed
offset difference between its two ports.  When the span does not change
sign over a subrange, the sum of absolute values equals the absolute
value of the sum and the closed forms of Section 4.3 apply; when it does,
the interchange is wrong (Figure 3(b)) and the subrange must be split at
the crossing.  This module tests a span for a sign change over a space
and splits iteration triplets and spaces at its crossings.
"""

from __future__ import annotations

from math import ceil

from ..ir.affine import AffineForm, Scalar, exact_div
from ..ir.itspace import IterationSpace, Triplet
from ..ir.symbols import LIV


def has_sign_change(span: AffineForm, space: IterationSpace) -> bool:
    """Whether the span takes both positive and negative values on the
    space.  Affine spans attain extremes at corner points, so checking
    the 2^k corners is exact."""
    from itertools import product

    if space.depth == 0:
        return False
    corners = []
    for t in space.triplets:
        if t.is_empty():
            return False
        corners.append((t.lo, t.last))
    seen_pos = seen_neg = False
    for combo in product(*corners):
        env = dict(zip(space.livs, combo))
        v = span.evaluate(env)
        if v > 0:
            seen_pos = True
        elif v < 0:
            seen_neg = True
        if seen_pos and seen_neg:
            return True
    return False


def split_at_crossing(trip: Triplet, cross: Scalar) -> list[Triplet]:
    """Split a triplet at a real crossing point into sign-pure halves.

    Values strictly below the crossing go left, the rest right.  Returns
    one or two nonempty triplets covering the same value set.
    """
    if trip.is_empty():
        return []
    lo, last, s = trip.lo, trip.last, trip.step
    if s > 0:
        if cross <= lo:
            return [trip.normalized()]
        if cross > last:
            return [trip.normalized()]
        # Number of values strictly below the crossing:
        n_left = ceil(exact_div(cross - lo, s))
        n_left = max(1, min(n_left, len(trip) - 1))
        left, right = trip.split_at(n_left)
        return [t for t in (left, right) if not t.is_empty()]
    # Negative step: mirror.
    if cross >= lo:
        return [trip.normalized()]
    if cross < last:
        return [trip.normalized()]
    n_left = ceil(exact_div(lo - cross, -s))
    n_left = max(1, min(n_left, len(trip) - 1))
    left, right = trip.split_at(n_left)
    return [t for t in (left, right) if not t.is_empty()]


def refine_space_at_crossings(
    span: AffineForm, space: IterationSpace
) -> list[IterationSpace]:
    """Split each axis of the space at the span's marginal crossing.

    For a single LIV this is exact (the two halves are sign-pure); for
    nests it splits each axis at the crossing of the span's marginal in
    that LIV (other LIVs at their range midpoint), the natural extension
    the paper's Section 4.4 Cartesian scheme suggests.
    """
    if space.depth == 0 or not has_sign_change(span, space):
        return [space]
    per_axis: list[list[Triplet]] = []
    for liv, trip in zip(space.livs, space.triplets):
        c = span.coeff(liv)
        if c == 0:
            per_axis.append([trip])
            continue
        # Fix other LIVs at midpoints to locate the marginal crossing.
        rest = span - AffineForm.variable(liv, c)
        env: dict[LIV, Scalar] = {}
        for l2, t2 in zip(space.livs, space.triplets):
            if l2 != liv:
                env[l2] = exact_div(t2.lo + t2.last, 2)
        base = rest.evaluate(env) if not rest.is_constant else rest.const
        cross = exact_div(-base, c)
        per_axis.append(split_at_crossing(trip, cross))
    from itertools import product

    return [
        IterationSpace(space.livs, tuple(combo)) for combo in product(*per_axis)
    ]
