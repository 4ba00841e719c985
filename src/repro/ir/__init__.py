"""Symbolic substrate: LIVs, affine forms, polynomials, iteration spaces.

Everything the alignment algorithms manipulate symbolically lives here.
All arithmetic is exact — an ``int`` while a value is integral, a
``fractions.Fraction`` once a denominator appears (:func:`scalar`,
:func:`exact_div`); floats only appear at the LP-solver boundary.
"""

from .symbols import LIV
from .affine import AffineForm, ONE, ZERO, Scalar, exact_div, scalar
from .polynomial import Polynomial, sum_powers
from .itspace import IterationSpace, Triplet
from .closedform import (
    Moments,
    average_index,
    fixed_size_cost_closed_form,
    sigma0,
    sigma1,
    sigma2,
    weighted_moments,
)

__all__ = [
    "LIV",
    "AffineForm",
    "ZERO",
    "ONE",
    "Scalar",
    "scalar",
    "exact_div",
    "Polynomial",
    "sum_powers",
    "IterationSpace",
    "Triplet",
    "Moments",
    "average_index",
    "fixed_size_cost_closed_form",
    "sigma0",
    "sigma1",
    "sigma2",
    "weighted_moments",
]
