"""Abstract syntax for the mini data-parallel language.

The surface language is the Fortran-90 subset the paper's fragments are
written in: array declarations, whole-array and section assignment,
elementwise arithmetic, ``transpose``, ``spread``, reductions, ``do``
loops and ``if`` blocks.  Scalar index expressions are *affine in the
enclosing LIVs* with integer constants — exactly the class the paper's
analysis covers (Section 2.4).

Design notes
------------
* Every AST node is a frozen dataclass; programs are immutable values.
* Subscripts distinguish a scalar :class:`Index` (rank-reducing) from a
  :class:`Slice` triplet (rank-preserving), mirroring Fortran semantics.
* Loop bounds are integer constants; *section bounds* may be affine in
  LIVs, which is what produces the variable-size objects of Section 4.3
  (e.g. ``A(1:20*k:k)`` in Example 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..ir.affine import AffineForm


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for array-valued (or scalar-valued) expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A scalar literal, broadcast elementwise where needed."""

    value: float


@dataclass(frozen=True)
class ScalarRef(Expr):
    """A reference to a scalar variable (opaque to alignment analysis)."""

    name: str


@dataclass(frozen=True)
class Index:
    """A scalar subscript: selects one coordinate, reducing rank by one."""

    value: AffineForm


@dataclass(frozen=True)
class Slice:
    """A triplet subscript ``lo:hi:step``.

    All three components are affine in the LIVs; a LIV-dependent step
    (e.g. ``A(1:20*k:k)`` from Example 5) is what gives rise to *mobile
    stride* alignment.  A full-axis reference ``:`` is represented by
    :class:`FullSlice` since the bounds come from the declaration, not
    the reference.  The element count of a slice generally involves a
    floor; :func:`repro.lang.typecheck.section_extent` reduces it to an
    affine form using the enclosing loop ranges.
    """

    lo: AffineForm
    hi: AffineForm
    step: AffineForm = field(default_factory=lambda: AffineForm(1))

    def __post_init__(self) -> None:
        if not isinstance(self.step, AffineForm):
            object.__setattr__(self, "step", AffineForm(int(self.step)))
        if self.step.is_constant and self.step.const == 0:
            raise ValueError("slice step must be nonzero")


@dataclass(frozen=True)
class FullSlice:
    """A bare ``:`` subscript — the whole declared axis."""


Subscript = Union[Index, Slice, FullSlice]


@dataclass(frozen=True)
class Ref(Expr):
    """An array reference, optionally subscripted.

    ``A`` (no subscripts) and ``A(1:n, k)`` are both Refs; the former has
    ``subscripts == ()`` and denotes the whole array.
    """

    name: str
    subscripts: tuple[Subscript, ...] = ()


@dataclass(frozen=True)
class BinOp(Expr):
    """Elementwise binary operation; operands must be conformable."""

    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-'
    operand: Expr


@dataclass(frozen=True)
class Intrinsic(Expr):
    """An elementwise intrinsic (``cos``, ``sin``, ``exp``, ``sqrt``...)."""

    name: str
    operand: Expr


@dataclass(frozen=True)
class Transpose(Expr):
    """``transpose(X)`` for two-dimensional ``X``."""

    operand: Expr


@dataclass(frozen=True)
class Spread(Expr):
    """``spread(X, dim=d, ncopies=n)``: replicate along a new axis ``d``.

    ``dim`` is 1-based, following Fortran.  ``ncopies`` is a positive
    integer constant.  Spread is the program-level source of replication
    (Section 5).
    """

    operand: Expr
    dim: int
    ncopies: int


@dataclass(frozen=True)
class Reduce(Expr):
    """A reduction intrinsic (``sum``, ``maxval``, ``minval``, ``product``).

    ``dim`` is the 1-based reduced axis, or ``None`` for full reduction to
    a scalar.  Reductions are *intrinsic* communication in the paper's
    terminology — they move data as part of the operation — so the
    alignment phase does not charge their edges with residual cost beyond
    operand alignment.
    """

    op: str
    operand: Expr
    dim: Optional[int] = None


@dataclass(frozen=True)
class Gather(Expr):
    """A vector-valued-subscript read ``table(idx)`` (lookup table use).

    Section 5 lists replicated lookup tables as a replication source;
    ``Gather`` is how they appear in programs.  ``table`` must be a
    rank-1 Ref, ``index`` an arbitrary rank-1 expression.
    """

    table: Ref
    index: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Decl(Stmt):
    """``real A(d1, d2, ...)`` — extents are positive integer constants."""

    name: str
    dims: tuple[int, ...]
    kind: str = "real"
    readonly: bool = False
    replicate_hint: bool = False  # programmer permission to replicate (lookup tables)

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"array {self.name} has nonpositive extent")

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Assign(Stmt):
    """``lhs = rhs``; lhs is a Ref (whole array or section)."""

    lhs: Ref
    rhs: Expr


@dataclass(frozen=True)
class Do(Stmt):
    """``do liv = lo, hi [, step] ... enddo`` with integer constant bounds."""

    liv: str
    lo: int
    hi: int
    step: int
    body: tuple[Stmt, ...]

    def __post_init__(self) -> None:
        if self.step == 0:
            raise ValueError("do-loop step must be nonzero")


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) then ... [else ...] endif``.

    ``cond`` is opaque to alignment analysis; its only effect is the
    branch/merge structure of the ADG.  ``prob`` is the control weight
    (probability of the then-branch) used in expected-cost mode.
    """

    cond: str
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...] = ()
    prob: float = 0.5


@dataclass(frozen=True)
class Program:
    """A whole procedure: declarations followed by executable statements."""

    decls: tuple[Decl, ...]
    body: tuple[Stmt, ...]
    name: str = "main"

    def decl(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(f"undeclared array {name!r}")

    def array_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_exprs(e: Expr):
    """Yield ``e`` and all sub-expressions, preorder."""
    yield e
    if isinstance(e, BinOp):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, (UnaryOp, Intrinsic)):
        yield from walk_exprs(e.operand)
    elif isinstance(e, (Transpose, Spread, Reduce)):
        yield from walk_exprs(e.operand)
    elif isinstance(e, Gather):
        yield from walk_exprs(e.table)
        yield from walk_exprs(e.index)


def walk_stmts(stmts):
    """Yield every statement, preorder, descending into loops/branches."""
    for s in stmts:
        yield s
        if isinstance(s, Do):
            yield from walk_stmts(s.body)
        elif isinstance(s, If):
            yield from walk_stmts(s.then_body)
            yield from walk_stmts(s.else_body)
