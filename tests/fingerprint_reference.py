"""The content-fingerprint scheme as first written, for the tests.

An ``isinstance`` chain over atoms, tuples and lists, sets, dicts,
frozen dataclasses, ``AffineForm`` (by its old content key: the
constant and the coefficient map, every scalar a ``Fraction``),
``Polynomial`` (its sorted terms, likewise) and classes exposing
``__content_key__``.  ``repro.passes.core`` renders
only what the planner inputs are made of — atoms, tuples and lists,
frozen dataclasses and ``AffineForm`` — so on every program, option
record and machine the two must give the same digest
(``tests/test_passes.py::TestDigestIdentity``): the fingerprints are
on-disk cache keys.
"""

import dataclasses
import hashlib
from fractions import Fraction

from repro.ir.affine import AffineForm
from repro.ir.polynomial import Polynomial


class NotContentAddressable(Exception):
    pass


def reference_repr(value) -> str:
    """The canonical string of ``value``; raises
    :class:`NotContentAddressable` for anything the scheme does not
    cover."""
    if value is None or isinstance(value, (bool, int, float, str, Fraction)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        inner = ",".join(reference_repr(v) for v in value)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(reference_repr(v) for v in value))
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        items = sorted((reference_repr(k), reference_repr(v)) for k, v in value.items())
        return "dict(" + ",".join(f"{k}:{v}" for k, v in items) + ")"
    if (
        dataclasses.is_dataclass(value)
        and not isinstance(value, type)
        and type(value).__dataclass_params__.frozen
    ):
        fields = ",".join(
            f"{f.name}={reference_repr(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, AffineForm):
        key = (
            Fraction(value._const),
            {liv: Fraction(c) for liv, c in value._coeffs.items()},
        )
        return f"AffineForm<{reference_repr(key)}>"
    if isinstance(value, Polynomial):
        key = tuple(sorted((m, Fraction(c)) for m, c in value._terms.items()))
        return f"Polynomial<{reference_repr(key)}>"
    key_fn = getattr(value, "__content_key__", None)
    if key_fn is not None:
        return f"{type(value).__qualname__}<{reference_repr(key_fn())}>"
    raise NotContentAddressable


def reference_fingerprint(value):
    """The digest the scheme gives ``value``, or ``None``."""
    try:
        text = reference_repr(value)
    except Exception:  # noqa: BLE001 - as content_fingerprint catches
        return None
    digest = hashlib.sha1(f"{type(value).__name__}|{text}".encode())
    return digest.hexdigest()[:12]
