"""Shape and binding analysis for the mini language.

Infers the *symbolic shape* of every expression — a tuple of affine
extents, one per axis — and validates:

* every array referenced is declared, with the right subscript count;
* every LIV used in index arithmetic is bound by an enclosing ``do``
  (and LIV names are not shadowed, keeping alignment functions well
  defined);
* elementwise operands are conformable (equal symbolic extents, or
  scalar);
* ``transpose`` is rank-2; ``spread`` dims are in range; reductions
  reduce an existing axis;
* sections with constant bounds fall inside declared extents;
* no extent, loop bound, subscript number or spread count exceeds
  :data:`MAX_MAGNITUDE` in absolute value.

The inferred shapes drive the ADG's data weights: the element count of
an object is the product of its extents, a polynomial in the LIVs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from math import floor

from ..ir.affine import AffineForm, exact_div
from ..ir.itspace import Triplet
from ..ir.symbols import LIV
from . import ast as A


class TypeError_(Exception):
    """Shape/binding violation (named to avoid the builtin)."""


#: The largest extent, loop bound, subscript number or spread count a
#: program may write.  The offset LP's coefficients are moments of the
#: iteration spaces, which grow with these numbers, and past some size
#: HiGHS no longer returns the right vertex in floats.  A doubling
#: search on n over ``x = y`` and ``x(1:n-1) = x(2:n)`` (extent n) and
#: over ``A(k,1:n) = A(k,1:n) + V(k:k+n-1)`` for ``k = 1..n`` (A n by
#: n) found each planned with its exact cost (0, n - 1, 2n**2) up to
#: n = 2**12; the loop fails at n = 2**13 as "offset LP infeasible"
#: (the other two hold to 2**43).
MAX_MAGNITUDE = 2**12


def section_extent(
    lo: AffineForm,
    hi: AffineForm,
    step: AffineForm,
    ranges: dict[str, Triplet],
) -> AffineForm:
    """Element count of the section ``lo:hi:step`` as an affine form.

    The true count is ``floor((hi - lo)/step) + 1``, which involves a
    floor; the paper's analysis requires extents affine in the LIVs
    (Section 2.4).  We reduce the floor using the (constant, known) loop
    ranges:

    * constant step ``s``: if ``(hi - lo)/s`` has integral coefficients
      the count is exact; otherwise the fractional part must be constant
      over the loop ranges (one range step of each LIV moves
      ``(hi - lo)/s`` by an integer) so that the floor is an affine
      shift.
    * LIV-dependent step (Example 5's ``1:20*k:k``): polynomial-divide
      ``hi - lo`` by ``step``; the quotient must be an integer constant
      and the floor of the remainder ratio constant over the LIV range.

    Sections whose count genuinely is not affine are a
    :class:`TypeError_` — they are outside the language the paper
    analyzes.
    """
    diff = hi - lo
    if step.is_constant:
        s = step.const
        cand = diff if s == 1 else diff / s
        if cand.is_integral():
            return cand + 1
        # The floor correction must be a constant over the iteration
        # ranges.  The ranges are progressions and their product a
        # lattice box, so it is exactly when one range step of every
        # LIV that takes two or more values moves diff/s by an integer;
        # it is then read at one point.
        livs = list(diff.livs())
        for v in livs:
            if v.name not in ranges:
                raise TypeError_(f"LIV {v.name} has no known range")
        point = {}
        for v in livs:
            r = ranges[v.name]
            n = len(r)
            if not n or (n > 1 and type(exact_div(diff.coeff(v) * r.step, s)) is not int):
                raise TypeError_(
                    f"section extent floor(({diff})/{s}) + 1 is not affine over the loop ranges"
                )
            point[v] = r.lo
        val = exact_div(diff.evaluate(point), s)
        return cand + (floor(val) - val) + 1
    livs = step.livs()
    if len(livs) != 1:
        raise TypeError_(f"section step {step} depends on more than one LIV")
    k = next(iter(livs))
    if diff.livs() - {k}:
        raise TypeError_(
            f"section bounds {diff} mix LIVs with LIV-dependent step {step}"
        )
    counts = set()
    if k.name not in ranges:
        raise TypeError_(f"LIV {k.name} has no known range")
    for kv in ranges[k.name]:
        sv = step.evaluate({k: kv})
        if sv == 0:
            raise TypeError_(f"section step {step} vanishes at {k.name}={kv}")
        dv = diff.evaluate({k: kv})
        counts.add(dv // sv + 1)  # the floor of the exact ratio
    if len(counts) == 1:
        return AffineForm(next(iter(counts)))
    raise TypeError_(
        f"section extent with step {step} is not constant over the range of {k.name}"
    )


Shape = tuple[AffineForm, ...]


@dataclass
class TypeInfo:
    """Result of checking a program: shapes keyed by expression identity."""

    program: A.Program
    shapes: dict[int, Shape] = field(default_factory=dict)
    _keepalive: list[A.Expr] = field(default_factory=list)

    def shape_of(self, e: A.Expr) -> Shape:
        try:
            return self.shapes[id(e)]
        except KeyError:
            raise TypeError_(f"expression {e!r} was not typechecked") from None

    def __getstate__(self) -> dict:
        # ``id(expr)`` keys are meaningless in another process.  Ship the
        # expression objects themselves — pickle preserves their sharing
        # with the program AST serialized in the same blob — and re-key
        # against the re-hydrated objects on the other side.
        return {
            "program": self.program,
            "pairs": [(e, self.shapes[id(e)]) for e in self._keepalive],
        }

    def __setstate__(self, state: dict) -> None:
        self.program = state["program"]
        self._keepalive = [e for e, _ in state["pairs"]]
        self.shapes = {id(e): shape for e, shape in state["pairs"]}


def _extents_equal(a: Shape, b: Shape) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


class TypeChecker:
    def __init__(self, program: A.Program) -> None:
        self.program = program
        self.info = TypeInfo(program)
        self.bound: dict[str, LIV] = {}
        self.ranges: dict[str, Triplet] = {}

    # -- entry point ----------------------------------------------------------

    def check(self) -> TypeInfo:
        names = [d.name for d in self.program.decls]
        if len(names) != len(set(names)):
            raise TypeError_("duplicate array declaration")
        for d in self.program.decls:
            for extent in d.dims:
                _check_magnitude(extent, f"extent of {d.name}")
        self._check_block(self.program.body)
        return self.info

    # -- statements --------------------------------------------------------------

    def _check_block(self, stmts: tuple[A.Stmt, ...]) -> None:
        for s in stmts:
            if isinstance(s, A.Assign):
                self._check_assign(s)
            elif isinstance(s, A.Do):
                self._check_do(s)
            elif isinstance(s, A.If):
                self._check_block(s.then_body)
                self._check_block(s.else_body)
            else:
                raise TypeError_(f"unknown statement {s!r}")

    def _check_do(self, s: A.Do) -> None:
        if s.liv in self.bound:
            raise TypeError_(f"loop variable {s.liv!r} shadows an enclosing loop")
        if s.liv in {d.name for d in self.program.decls}:
            raise TypeError_(f"loop variable {s.liv!r} collides with an array name")
        for bound in (s.lo, s.hi, s.step):
            _check_magnitude(bound, f"bound of loop {s.liv}")
        liv = LIV(s.liv, 0)
        self.bound[s.liv] = liv
        self.ranges[s.liv] = Triplet(s.lo, s.hi, s.step)
        try:
            self._check_block(s.body)
        finally:
            del self.bound[s.liv]
            del self.ranges[s.liv]

    def _check_assign(self, s: A.Assign) -> None:
        lshape = self._shape_ref(s.lhs, is_lhs=True)
        rshape = self._shape(s.rhs)
        if len(rshape) != 0 and not _extents_equal(lshape, rshape):
            raise TypeError_(
                f"assignment shape mismatch: lhs {s.lhs.name} has shape "
                f"{[str(x) for x in lshape]}, rhs has {[str(x) for x in rshape]}"
            )

    # -- expressions ----------------------------------------------------------------

    def _remember(self, e: A.Expr, shape: Shape) -> Shape:
        self.info.shapes[id(e)] = shape
        self.info._keepalive.append(e)
        return shape

    def _shape(self, e: A.Expr) -> Shape:
        if isinstance(e, A.Const):
            return self._remember(e, ())
        if isinstance(e, A.ScalarRef):
            return self._remember(e, ())
        if isinstance(e, A.Ref):
            return self._shape_ref(e)
        if isinstance(e, A.BinOp):
            ls = self._shape(e.left)
            rs = self._shape(e.right)
            if len(ls) == 0:
                return self._remember(e, rs)
            if len(rs) == 0:
                return self._remember(e, ls)
            if not _extents_equal(ls, rs):
                raise TypeError_(
                    f"nonconformable operands to {e.op!r}: "
                    f"{[str(x) for x in ls]} vs {[str(x) for x in rs]}"
                )
            return self._remember(e, ls)
        if isinstance(e, A.UnaryOp):
            return self._remember(e, self._shape(e.operand))
        if isinstance(e, A.Intrinsic):
            return self._remember(e, self._shape(e.operand))
        if isinstance(e, A.Transpose):
            s = self._shape(e.operand)
            if len(s) != 2:
                raise TypeError_("transpose requires a rank-2 operand")
            return self._remember(e, (s[1], s[0]))
        if isinstance(e, A.Spread):
            s = self._shape(e.operand)
            if not 1 <= e.dim <= len(s) + 1:
                raise TypeError_(
                    f"spread dim={e.dim} out of range for rank-{len(s)} operand"
                )
            if e.ncopies <= 0:
                raise TypeError_("spread ncopies must be positive")
            _check_magnitude(e.ncopies, "spread ncopies")
            new = s[: e.dim - 1] + (AffineForm(e.ncopies),) + s[e.dim - 1 :]
            return self._remember(e, new)
        if isinstance(e, A.Reduce):
            s = self._shape(e.operand)
            if e.dim is None:
                return self._remember(e, ())
            if not 1 <= e.dim <= len(s):
                raise TypeError_(
                    f"reduction dim={e.dim} out of range for rank-{len(s)} operand"
                )
            return self._remember(e, s[: e.dim - 1] + s[e.dim :])
        if isinstance(e, A.Gather):
            ts = self._shape_ref(e.table)
            if len(ts) != 1:
                raise TypeError_("gather table must be rank-1")
            idx_shape = self._shape(e.index)
            if len(idx_shape) != 1:
                raise TypeError_("gather index must be rank-1")
            return self._remember(e, idx_shape)
        raise TypeError_(f"unknown expression {e!r}")

    def _shape_ref(self, e: A.Ref, is_lhs: bool = False) -> Shape:
        try:
            decl = self.program.decl(e.name)
        except KeyError:
            if not e.subscripts and e.name in self.bound and not is_lhs:
                # A LIV used as a scalar value (e.g. ``A(k) = 2*k``).
                return self._remember(e, ())
            raise TypeError_(f"undeclared array {e.name!r}") from None
        if e.subscripts and len(e.subscripts) != decl.rank:
            raise TypeError_(
                f"{e.name} has rank {decl.rank} but {len(e.subscripts)} subscripts"
            )
        if is_lhs and decl.readonly:
            raise TypeError_(f"assignment to readonly array {e.name!r}")
        if not e.subscripts:
            shape = tuple(AffineForm(d) for d in decl.dims)
            return self._remember(e, shape)
        out: list[AffineForm] = []
        for axis, (sub, extent) in enumerate(zip(e.subscripts, decl.dims), start=1):
            if isinstance(sub, A.FullSlice):
                out.append(AffineForm(extent))
            elif isinstance(sub, A.Index):
                self._check_bound_livs(sub.value, e.name)
                self._check_range(sub.value, extent, e.name, axis)
            elif isinstance(sub, A.Slice):
                self._check_bound_livs(sub.lo, e.name)
                self._check_bound_livs(sub.hi, e.name)
                self._check_bound_livs(sub.step, e.name)
                self._check_range(sub.lo, extent, e.name, axis)
                self._check_range(sub.hi, extent, e.name, axis)
                out.append(section_extent(sub.lo, sub.hi, sub.step, self.ranges))
            else:
                raise TypeError_(f"unknown subscript {sub!r}")
        return self._remember(e, tuple(out))

    # -- helpers -----------------------------------------------------------------------

    def _check_bound_livs(self, form: AffineForm, arr: str) -> None:
        for number in (form.const, *form.coeffs.values()):
            _check_magnitude(number, f"subscript of {arr}")
        for liv in form.livs():
            if liv.name not in self.bound:
                raise TypeError_(
                    f"index of {arr} uses unbound variable {liv.name!r}"
                )

    def _check_range(
        self, form: AffineForm, extent: int, arr: str, axis: int
    ) -> None:
        """Static bounds check, only when the index is a constant."""
        if form.is_constant:
            v = form.const
            if not (1 <= v <= extent):
                raise TypeError_(
                    f"{arr} axis {axis}: constant index {v} outside 1..{extent}"
                )


def _check_magnitude(value, what: str) -> None:
    if abs(value) > MAX_MAGNITUDE:
        raise TypeError_(
            f"{what}: {value} exceeds the largest magnitude the planner "
            f"solves exactly, {MAX_MAGNITUDE}"
        )


def typecheck(program: A.Program) -> TypeInfo:
    """Check ``program``; returns shapes for every expression."""
    return TypeChecker(program).check()
