"""Symbol management for loop induction variables (LIVs).

The paper restricts mobile alignments and object extents to affine (and
data weights to polynomial) functions of the loop induction variables of
the enclosing ``do`` loops.  This module holds the one symbol those
functions are written over, the LIV.

LIVs are ordered outermost-first; an :class:`~repro.ir.affine.AffineForm`
over a k-deep nest is the coefficient vector ``(a0, a1, ..., ak)`` of the
paper's Section 2.4, with ``a0`` the constant term and ``ai`` the
coefficient of the i-th LIV.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class LIV:
    """A loop induction variable.

    ``depth`` is the loop-nest depth of the loop that declares this LIV,
    with the outermost loop at depth 0.  Two LIVs with the same name but
    different depths are distinct (shadowing in nested loops is legal in
    the surface language, though unusual).
    """

    name: str
    depth: int = 0

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name
