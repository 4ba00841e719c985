"""Unit tests for shape/binding analysis and section extents."""

import time
from fractions import Fraction
from itertools import product
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FLOOR_SOURCE
from repro.ir import LIV, AffineForm, Triplet
from repro.ir.affine import exact_div
from repro.lang import TypeError_, parse, typecheck
from repro.lang.typecheck import section_extent

k = LIV("k", 0)


def shapes_of(src, pick):
    p = parse(src)
    info = typecheck(p)
    from repro.lang import ast as A

    for s in A.walk_stmts(p.body):
        if isinstance(s, A.Assign):
            for e in A.walk_exprs(s.rhs):
                if pick(e):
                    return info.shape_of(e)
    raise AssertionError("expression not found")


class TestShapes:
    def test_whole_array(self):
        from repro.lang import ast as A

        sh = shapes_of("real A(10,20), B(10,20)\nB = A", lambda e: isinstance(e, A.Ref) and e.name == "A")
        assert sh == (AffineForm(10), AffineForm(20))

    def test_section_shape(self):
        from repro.lang import ast as A

        sh = shapes_of(
            "real A(100), B(50)\nB = A(2:100:2)",
            lambda e: isinstance(e, A.Ref) and e.subscripts,
        )
        assert sh == (AffineForm(50),)

    def test_index_drops_axis(self):
        from repro.lang import ast as A

        sh = shapes_of(
            "real A(10,20), B(20)\nB = A(3,1:20)",
            lambda e: isinstance(e, A.Ref) and e.subscripts,
        )
        assert sh == (AffineForm(20),)

    def test_transpose_swaps(self):
        from repro.lang import ast as A

        sh = shapes_of(
            "real A(10,20), B(20,10)\nB = transpose(A)",
            lambda e: isinstance(e, A.Transpose),
        )
        assert sh == (AffineForm(20), AffineForm(10))

    def test_spread_inserts(self):
        from repro.lang import ast as A

        sh = shapes_of(
            "real t(4), B(4,6)\nB = t + 0 * spread(t, dim=2, ncopies=6)"
            if False
            else "real t(4), B(4,6)\nB = spread(t, dim=2, ncopies=6)",
            lambda e: isinstance(e, A.Spread),
        )
        assert sh == (AffineForm(4), AffineForm(6))

    def test_reduce_removes(self):
        from repro.lang import ast as A

        sh = shapes_of(
            "real A(4,6), r(4)\nr = sum(A, dim=2)",
            lambda e: isinstance(e, A.Reduce),
        )
        assert sh == (AffineForm(4),)


class TestErrors:
    def test_undeclared(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(10)\nA = Z"))

    def test_nonconformable(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(10), B(20)\nA = B"))

    def test_wrong_subscript_count(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(10,10)\nA(3) = 0"))

    def test_constant_index_out_of_bounds(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(10)\nA(11) = 0"))

    def test_unbound_liv(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(10)\nA(k) = 0"))

    def test_shadowed_liv(self):
        with pytest.raises(TypeError_):
            typecheck(
                parse("real A(9,9)\ndo k = 1, 9\ndo k = 1, 9\nA(k,k) = 0\nenddo\nenddo")
            )

    def test_liv_colliding_with_array(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(10)\ndo A = 1, 5\nenddo"))

    def test_assign_to_readonly(self):
        with pytest.raises(TypeError_):
            typecheck(parse("readonly real T(10)\nT(1) = 0"))

    def test_transpose_rank1_rejected(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(10), B(10)\nB = transpose(A)"))

    def test_spread_dim_out_of_range(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real t(4), B(4,6)\nB = spread(t, dim=5, ncopies=6)"))

    def test_reduce_dim_out_of_range(self):
        with pytest.raises(TypeError_):
            typecheck(parse("real A(4,6), r(4)\nr = sum(A, dim=3)"))


#: The doubling-search families behind ``MAX_MAGNITUDE``: program text
#: and exact cost as functions of n (the costs hold from n = 4).
MAGNITUDE_FAMILIES = {
    "copy": (lambda n: f"real x({n}), y({n})\nx = y\n", lambda n: 0),
    "shift": (lambda n: f"real x({n})\nx(1:{n - 1}) = x(2:{n})\n", lambda n: n - 1),
    "loop": (
        lambda n: (
            f"real A({n},{n}), V({2 * n})\ndo k = 1, {n}\n"
            f"  A(k,1:{n}) = A(k,1:{n}) + V(k:k+{n - 1})\nenddo\n"
        ),
        lambda n: 2 * n * n,
    ),
}


class TestMagnitudes:
    """Numbers past ``MAX_MAGNITUDE`` give offset LPs whose float
    coefficients HiGHS no longer solves right ("offset LP infeasible",
    or a wrong cost); the typechecker refuses them, naming the number,
    before any pass runs."""

    @staticmethod
    def _admitted_powers(make):
        from repro.lang.typecheck import MAX_MAGNITUDE

        n = 4
        while True:
            try:
                typecheck(parse(make(n)))
            except TypeError_:
                return
            yield n
            n *= 2
            assert n <= 2 * MAX_MAGNITUDE

    @pytest.mark.parametrize("family", sorted(MAGNITUDE_FAMILIES))
    def test_every_admitted_power_of_two_plans_its_exact_cost(self, family):
        from repro.align import align_program

        make, cost = MAGNITUDE_FAMILIES[family]
        sizes = list(self._admitted_powers(make))
        assert sizes and sizes[-1] >= 2**11
        for n in sizes:
            assert align_program(parse(make(n))).total_cost == cost(n), n

    def test_the_loop_plans_at_the_constant(self, monkeypatch):
        # The loop at n = MAX_MAGNITUDE declares V(2n), over the constant:
        # admitted here only to show n itself is still solved exactly.
        import sys

        from repro.align import align_program

        tc = sys.modules["repro.lang.typecheck"]
        make, cost = MAGNITUDE_FAMILIES["loop"]
        n = tc.MAX_MAGNITUDE
        monkeypatch.setattr(tc, "MAX_MAGNITUDE", 2 * n)
        assert align_program(parse(make(n))).total_cost == cost(n)

    @pytest.mark.parametrize(
        "src, what",
        [
            ("real x({big}), y({big})\nx = x + y", "extent of x"),
            ("real x(8)\ndo k = 1, {big}\n  x(1) = k\nenddo", "bound of loop k"),
            ("real x(8)\ndo k = -{big}, 1\n  x(1) = k\nenddo", "bound of loop k"),
            ("real x(8)\ndo k = 1, 4\n  x(1:8) = x({big}*k-{big}+1:8)\nenddo",
             "subscript of x"),
            ("real t(4), B(4,8)\nB = spread(t, dim=2, ncopies={big})",
             "spread ncopies"),
        ],
    )
    def test_one_past_the_constant_is_refused(self, src, what):
        from repro.lang.typecheck import MAX_MAGNITUDE

        big = MAX_MAGNITUDE + 1
        with pytest.raises(TypeError_, match=f"{what}: -?{big} exceeds"):
            typecheck(parse(src.format(big=big)))
        # The same program at the constant passes this check.
        try:
            typecheck(parse(src.format(big=MAX_MAGNITUDE)))
        except TypeError_ as exc:
            assert "exceeds" not in str(exc)

    @pytest.mark.parametrize("n", [10**12, 10**15], ids=["1e12", "1e15"])
    def test_a_huge_extent_is_refused_not_misreported(self, n):
        """``x = x + y`` at extent 10**15 used to fail inside the offset
        LP as "offset LP axis 0: infeasible"; it is now a typecheck error
        that names the extent, in the kernel and in the batch driver.
        10**12 planned, but is past the constant too."""
        from repro.align import align_and_distribute
        from repro.batch import plan_many

        src = f"real x({n}), y({n})\nx = x + y\n"
        with pytest.raises(TypeError_, match=f"extent of x: {n} exceeds"):
            align_and_distribute(parse(src), nprocs=16)
        (res,) = plan_many([src], jobs=1).results
        assert res.error.startswith(f"TypeError_: extent of x: {n} exceeds")

    def test_every_corpus_program_is_admitted(self, corpus_kernels, corpus_edits):
        from repro.lang.generate import generate_corpus

        sources = list(corpus_kernels.values())
        sources += [src for _, _, src in corpus_edits]
        sources += [sc.source for sc in generate_corpus(14, 0)]
        sources += [sc.source for sc in generate_corpus(40, 3)]
        assert len(sources) == 16 + 48 + 14 + 40
        for src in sources:
            typecheck(parse(src))


class TestSectionExtent:
    def test_constant_step_exact(self):
        ext = section_extent(AffineForm(2), AffineForm(100), AffineForm(2), {})
        assert ext == AffineForm(50)

    def test_affine_bounds_constant_step(self):
        # V(k : k+99): extent 100 for every k
        lo = AffineForm.variable(k)
        hi = AffineForm(99, {k: 1})
        ext = section_extent(lo, hi, AffineForm(1), {"k": Triplet(1, 100)})
        assert ext == AffineForm(100)

    def test_liv_step_constant_count(self):
        # A(1:20k:k): 20 elements for every k in 1..50
        lo = AffineForm(1)
        hi = AffineForm(0, {k: 20})
        step = AffineForm.variable(k)
        ext = section_extent(lo, hi, step, {"k": Triplet(1, 50)})
        assert ext == AffineForm(20)

    def test_growing_extent(self):
        # B(1 : 8k): extent 8k, affine in k
        ext = section_extent(
            AffineForm(1), AffineForm(0, {k: 8}), AffineForm(1), {"k": Triplet(1, 10)}
        )
        assert ext == AffineForm(0, {k: 8})

    def test_floor_constant_correction(self):
        # 1 : 2k+1 : 2 -> elements 1,3,..,2k+1: extent k+1
        ext = section_extent(
            AffineForm(1),
            AffineForm(1, {k: 2}),
            AffineForm(2),
            {"k": Triplet(1, 10)},
        )
        assert ext == AffineForm(1, {k: 1})

    def test_nonaffine_rejected(self):
        # 1 : k*k not expressible -> reject via varying count
        lo = AffineForm(1)
        hi = AffineForm.variable(k)
        step = AffineForm.variable(k)  # count = floor((k-1)/k)+1: 1 for k=1? varies
        with pytest.raises(TypeError_):
            # hi - lo = k - 1; step k: count = floor((k-1)/k) + 1 = 1 for all k>=1
            # so use a genuinely varying case: hi = 3k, step 2
            section_extent(
                AffineForm(1), AffineForm(0, {k: 3}), AffineForm(2), {"k": Triplet(1, 4)}
            )

    def test_unknown_liv_range(self):
        # Step 2 with non-integral symbolic quotient needs the LIV range;
        # with none supplied, the extent is not computable.
        with pytest.raises(TypeError_):
            section_extent(
                AffineForm(1), AffineForm.variable(k), AffineForm(2), {}
            )

    def test_symbolic_extent_without_range(self):
        # (k - 1)/1 + 1 = k is affine without needing the range.
        ext = section_extent(AffineForm(1), AffineForm.variable(k), AffineForm(1), {})
        assert ext == AffineForm.variable(k)


def reference_section_extent(lo, hi, step, ranges):
    """``section_extent`` for a constant step the way it was first
    written: the floor correction at every point of the product of the
    LIV ranges, accepted when there is exactly one."""
    diff = hi - lo
    s = step.const
    cand = diff if s == 1 else diff / s
    if cand.is_integral():
        return cand + 1
    livs = list(diff.livs())
    for v in livs:
        if v.name not in ranges:
            raise TypeError_(f"LIV {v.name} has no known range")
    corrections = set()
    for combo in product(*[list(ranges[v.name]) for v in livs]):
        val = exact_div(diff.evaluate(dict(zip(livs, combo))), s)
        corrections.add(floor(val) - val)
    if len(corrections) == 1:
        return cand + corrections.pop() + 1
    raise TypeError_(
        f"section extent floor(({diff})/{s}) + 1 is not affine over the loop ranges"
    )


_LIVS = [LIV(name, 0) for name in "ijk"]
_FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
_STEPS = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


@st.composite
def constant_step_sections(draw):
    """``(lo, hi, step, ranges)`` over 1-3 LIVs with fractional
    coefficients, ranges of 0-5 values on steps of +-1..4, and now and
    then a LIV with no range."""
    livs = _LIVS[: draw(st.integers(1, 3))]
    lo = AffineForm(draw(_FRACTIONS), {v: draw(_FRACTIONS) for v in livs})
    hi = AffineForm(draw(_FRACTIONS), {v: draw(_FRACTIONS) for v in livs})
    ranges = {}
    for v in livs:
        if draw(st.integers(0, 9)):
            r_step = draw(_STEPS)
            first = draw(st.integers(-6, 6))
            ranges[v.name] = Triplet(first, first + r_step * (draw(st.integers(0, 5)) - 1), r_step)
    return lo, hi, AffineForm(draw(_STEPS)), ranges


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError_ as exc:
        return str(exc)


class TestSectionExtentAgainstTheEnumeration:
    @settings(max_examples=1500, deadline=None)
    @given(constant_step_sections())
    def test_per_liv_test_equals_the_enumeration(self, section):
        assert _outcome(section_extent, *section) == _outcome(
            reference_section_extent, *section
        )

    def test_empty_range_refuses(self):
        i = _LIVS[0]
        with pytest.raises(TypeError_, match="not affine over the loop ranges"):
            section_extent(
                AffineForm(1), AffineForm(0, {i: Fraction(1, 2)}), AffineForm(1),
                {"i": Triplet(5, 1)},
            )

    def test_a_fractional_liv_with_one_value_is_a_constant_shift(self):
        i = _LIVS[0]
        ext = section_extent(
            AffineForm(1), AffineForm(0, {i: Fraction(1, 2)}), AffineForm(1),
            {"i": Triplet(3, 3)},
        )
        # floor((3/2 - 1)/1) + 1 = 1 elements, as i/2 - 1/2 at i = 3
        assert ext == AffineForm(Fraction(-1, 2), {i: Fraction(1, 2)})

    def test_the_product_of_two_large_ranges_is_refused_at_once(self):
        program = parse(FLOOR_SOURCE)
        t0 = time.perf_counter()
        with pytest.raises(TypeError_, match="not affine over the loop ranges"):
            typecheck(program)
        assert time.perf_counter() - t0 < 0.05
