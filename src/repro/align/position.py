"""Alignment representation: axis, stride, offset; mobile; replicated.

Section 2 of the paper: an alignment maps array element ``i`` (a d-vector
of Fortran indices) to template cell ``g(i)`` where each template-axis
component ``g_t`` is either a constant (*space axis*) or ``s_t * i_a + f_t``
for exactly one array axis ``a`` (*body axis*).  Mobile alignments make
the stride ``s_t`` and offset ``f_t`` affine functions of the LIVs
(Section 2.4).  Replication (Section 5) widens a space-axis offset from a
single position to a regular section of the template axis, written
``lo:hi:st`` or ``*`` for the whole axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..ir.affine import AffineForm, Scalar, scalar
from ..ir.symbols import LIV


@dataclass(frozen=True)
class ReplicatedExtent:
    """The positions a replicated space axis occupies: a triplet or ``*``.

    ``full=True`` means the whole template axis (the paper's ``*``);
    otherwise ``lo:hi:step`` with integer bounds.
    """

    full: bool = True
    lo: int = 0
    hi: int = 0
    step: int = 1

    def __repr__(self) -> str:
        if self.full:
            return "*"
        if self.step == 1:
            return f"{self.lo}:{self.hi}"
        return f"{self.lo}:{self.hi}:{self.step}"


@dataclass(frozen=True)
class AxisAlignment:
    """One template axis of an object's alignment.

    * body axis: ``array_axis`` (0-based) is set, position is
      ``stride * i_axis + offset``;
    * space axis: ``array_axis is None``, position is ``offset`` alone,
      or a :class:`ReplicatedExtent` when replicated.
    """

    array_axis: Optional[int]
    stride: Optional[AffineForm]  # None on space axes
    offset: AffineForm
    replication: Optional[ReplicatedExtent] = None

    @property
    def is_body(self) -> bool:
        return self.array_axis is not None

    @property
    def is_replicated(self) -> bool:
        return self.replication is not None

    def __post_init__(self) -> None:
        if self.is_body and self.stride is None:
            raise ValueError("body axis requires a stride")
        if self.is_body and self.replication is not None:
            raise ValueError("replication is restricted to space axes (Section 5)")

    def position(
        self, index: Mapping[int, Scalar], env: Mapping[LIV, int]
    ) -> Scalar:
        """Template coordinate for an element, at a LIV environment.

        ``index`` maps array-axis number to the element's index value.
        Replicated axes have no single position; callers must branch on
        :attr:`is_replicated` first.
        """
        if self.is_replicated:
            raise ValueError("replicated axis has no single position")
        off = self.offset.evaluate(env)
        if not self.is_body:
            return off
        assert self.stride is not None and self.array_axis is not None
        return scalar(off + self.stride.evaluate(env) * index[self.array_axis])

    def __repr__(self) -> str:
        if self.is_replicated:
            return f"[{self.replication!r}]"
        if not self.is_body:
            return f"[{self.offset!r}]"
        s = repr(self.stride)
        if "+" in s or "-" in s[1:]:
            s = f"({s})"
        body = f"{s}*i{self.array_axis}" if self.stride != AffineForm(1) else f"i{self.array_axis}"
        off = self.offset
        if off == AffineForm(0):
            return f"[{body}]"
        return f"[{body} + {off!r}]"


@dataclass(frozen=True)
class Alignment:
    """A complete alignment: one :class:`AxisAlignment` per template axis.

    Invariants enforced: every array axis of the object appears exactly
    once among the body axes.
    """

    axes: tuple[AxisAlignment, ...]

    def __post_init__(self) -> None:
        body = [a.array_axis for a in self.axes if a.is_body]
        if len(body) != len(set(body)):
            raise ValueError("array axis mapped to two template axes")

    @property
    def template_rank(self) -> int:
        return len(self.axes)

    @property
    def rank(self) -> int:
        return sum(1 for a in self.axes if a.is_body)

    def template_axis_of(self, array_axis: int) -> int:
        for t, a in enumerate(self.axes):
            if a.array_axis == array_axis:
                return t
        raise KeyError(f"array axis {array_axis} is not mapped")

    def position(
        self, index: Mapping[int, int], env: Mapping[LIV, int]
    ) -> tuple[Scalar, ...]:
        """Template cell of one element (no replicated axes allowed)."""
        return tuple(a.position(index, env) for a in self.axes)

    def axis_signature(self) -> tuple[Optional[int], ...]:
        """The axis mapping alone (for discrete-metric comparison)."""
        return tuple(a.array_axis for a in self.axes)

    def stride_signature(self) -> tuple[Optional[AffineForm], ...]:
        return tuple(a.stride for a in self.axes)

    def __repr__(self) -> str:
        return "".join(repr(a) for a in self.axes)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def canonical(cls, rank: int, template_rank: int) -> "Alignment":
        """Identity alignment: array axis a -> template axis a, stride 1,
        offset 0; trailing template axes are space axes at offset 0."""
        axes = []
        for t in range(template_rank):
            if t < rank:
                axes.append(AxisAlignment(t, AffineForm(1), AffineForm(0)))
            else:
                axes.append(AxisAlignment(None, None, AffineForm(0)))
        return cls(tuple(axes))

