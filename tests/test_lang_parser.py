"""Unit tests for the parser."""

import pytest

from repro.ir import LIV, AffineForm
from repro.lang import ParseError, ast as A, parse, tokenize
from repro.lang.parser import MAX_NESTING, Parser

k = LIV("k", 0)


class TestDeclarations:
    def test_single(self):
        p = parse("real A(10,20)")
        assert p.decls[0].name == "A"
        assert p.decls[0].dims == (10, 20)

    def test_multiple_items(self):
        p = parse("real A(10), B(20)")
        assert [d.name for d in p.decls] == ["A", "B"]

    def test_attributes(self):
        p = parse("readonly replicated real T(256)")
        assert p.decls[0].readonly
        assert p.decls[0].replicate_hint

    def test_integer_kind(self):
        p = parse("integer idx(100)")
        assert p.decls[0].kind == "integer"

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            parse("real A(10)\nreal A(20)")


class TestAssignments:
    def test_whole_array(self):
        p = parse("real A(10), B(10)\nA = B")
        stmt = p.body[0]
        assert isinstance(stmt, A.Assign)
        assert stmt.lhs == A.Ref("A")

    def test_section_lhs(self):
        p = parse("real A(10)\nA(2:9) = 0")
        sub = p.body[0].lhs.subscripts[0]
        assert isinstance(sub, A.Slice)
        assert sub.lo == AffineForm(2)

    def test_full_slice(self):
        p = parse("real A(10,10)\nA(:,3) = 0")
        subs = p.body[0].lhs.subscripts
        assert isinstance(subs[0], A.FullSlice)
        assert isinstance(subs[1], A.Index)

    def test_precedence(self):
        p = parse("real A(10), B(10), C(10)\nA = B + C * 2")
        rhs = p.body[0].rhs
        assert rhs.op == "+"
        assert rhs.right.op == "*"

    def test_parens(self):
        p = parse("real A(10), B(10), C(10)\nA = (B + C) * 2")
        assert p.body[0].rhs.op == "*"

    def test_unary_minus(self):
        p = parse("real A(10), B(10)\nA = -B")
        assert isinstance(p.body[0].rhs, A.UnaryOp)


class TestAffineIndexing:
    def test_affine_subscript(self):
        p = parse("real A(100,100)\ndo k = 1, 10\nA(k,2*k+1) = 0\nenddo")
        assign = p.body[0].body[0]
        idx = assign.lhs.subscripts[1]
        assert idx.value == AffineForm(1, {k: 2})

    def test_affine_slice_bounds(self):
        p = parse("real V(200)\ndo k = 1, 100\nV(k:k+99) = 0\nenddo")
        sl = p.body[0].body[0].lhs.subscripts[0]
        assert sl.lo == AffineForm.variable(k)
        assert sl.hi == AffineForm(99, {k: 1})

    def test_liv_dependent_step(self):
        p = parse("real A(1000)\ndo k = 1, 50\nA(1:20*k:k) = 0\nenddo")
        sl = p.body[0].body[0].lhs.subscripts[0]
        assert sl.step == AffineForm.variable(k)

    def test_nonaffine_product_rejected(self):
        with pytest.raises(ParseError):
            parse("real A(100)\ndo k = 1, 9\ndo j = 1, 9\nA(k*j) = 0\nenddo\nenddo")

    def test_array_in_index_rejected(self):
        with pytest.raises(ParseError):
            parse("real A(10), B(10)\nA(B) = 0")

    def test_division_in_index(self):
        p = parse("real A(100)\ndo k = 2, 20, 2\nA(k/2) = 0\nenddo")
        idx = p.body[0].body[0].lhs.subscripts[0]
        assert idx.value == AffineForm(0, {k: AffineForm(0, {k: 1}).coeff(k) / 2})


class TestControlFlow:
    def test_do_loop(self):
        p = parse("real A(10)\ndo k = 1, 10\nA(k) = 1\nenddo")
        loop = p.body[0]
        assert isinstance(loop, A.Do)
        assert (loop.lo, loop.hi, loop.step) == (1, 10, 1)

    def test_do_with_step(self):
        p = parse("real A(10)\ndo k = 10, 1, -2\nA(k) = 1\nenddo")
        assert p.body[0].step == -2

    def test_nested_do(self):
        p = parse(
            "real A(10,10)\ndo i = 1, 10\ndo j = 1, 10\nA(i,j) = 0\nenddo\nenddo"
        )
        assert isinstance(p.body[0].body[0], A.Do)

    def test_unterminated_do(self):
        with pytest.raises(ParseError):
            parse("real A(10)\ndo k = 1, 10\nA(k) = 1")

    def test_if_else(self):
        p = parse(
            "real A(10)\nif (flag) then\nA(1) = 1\nelse\nA(2) = 2\nendif"
        )
        s = p.body[0]
        assert isinstance(s, A.If)
        assert s.cond == "flag"
        assert len(s.then_body) == 1 and len(s.else_body) == 1

    def test_if_no_else(self):
        p = parse("real A(10)\nif (x > 1) then\nA(1) = 1\nendif")
        assert p.body[0].else_body == ()


class TestIntrinsics:
    def test_transpose(self):
        p = parse("real B(8,8), C(8,8)\nB = transpose(C)")
        assert isinstance(p.body[0].rhs, A.Transpose)

    def test_spread(self):
        p = parse("real t(4), B(4,6)\nB = spread(t, dim=2, ncopies=6)")
        sp = p.body[0].rhs
        assert isinstance(sp, A.Spread)
        assert (sp.dim, sp.ncopies) == (2, 6)

    def test_spread_kwargs_any_order(self):
        p = parse("real t(4), B(6,4)\nB = spread(t, ncopies=6, dim=1)")
        sp = p.body[0].rhs
        assert (sp.dim, sp.ncopies) == (1, 6)

    def test_spread_missing_kwarg(self):
        with pytest.raises(ParseError):
            parse("real t(4), B(4,6)\nB = spread(t, dim=2)")

    def test_reduction_with_dim(self):
        p = parse("real A(4,6), r(4)\nr = sum(A, dim=2)")
        red = p.body[0].rhs
        assert isinstance(red, A.Reduce)
        assert red.dim == 2

    def test_elementwise_intrinsic(self):
        p = parse("real t(4)\nt = cos(t)")
        assert isinstance(p.body[0].rhs, A.Intrinsic)

    def test_gather(self):
        p = parse("real T(16), y(5)\ninteger idx(5)\ny = gather(T, idx(1:5))")
        g = p.body[0].rhs
        assert isinstance(g, A.Gather)
        assert g.table.name == "T"

    def test_ident_named_like_intrinsic_without_call(self):
        # a bare identifier 'sum' (no parens) is an array reference
        p = parse("real sum(4), x(4)\nx = sum")
        assert isinstance(p.body[0].rhs, A.Ref)


class TestTokenCursor:
    """The parser reads its token list in place; ``eof`` ends every
    stream and the cursor never passes it."""

    @pytest.mark.parametrize("source", ["", "real A(3)", "A = B"])
    def test_a_look_ahead_past_the_end_is_eof(self, source):
        parser = Parser(tokenize(source))
        for _ in range(len(parser.tokens) + 2):
            parser.next()
        assert parser.peek().kind == "eof"
        assert [parser.peek(k).kind for k in (1, 2, 5)] == ["eof"] * 3
        assert parser.at("eof") and parser.expect("eof").kind == "eof"
        assert parser.peek().kind == "eof"

    def test_an_intrinsic_name_without_a_call_is_a_reference(self):
        p = parse("real sum(4), B(4)\nB = sum + B\nB = sum(B) + B(1)")
        first, second = (s.rhs for s in p.body)
        assert first.left == A.Ref("sum")
        assert isinstance(second.left, A.Reduce) and second.right == A.Ref(
            "B", (A.Index(AffineForm(1)),)
        )

    @pytest.mark.parametrize(
        "source, message",
        [
            ("real A(4)\nA = transpose(A", "main:2: expected ')', found '\\n'"),
            ("real A(4)\nA = gather(A A)", "main:2: expected ',', found 'A'"),
            ("real A(4)\nA = cos(", "main:2: unexpected token '\\n' in expression"),
        ],
    )
    def test_a_broken_call_names_what_it_expected(self, source, message):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == message


#: One line per way an expression nests, ``n`` levels deep.
NESTINGS = {
    "parentheses": lambda n: "x = " + "(" * n + "x" + ")" * n,
    "intrinsics": lambda n: "x = " + "sin(" * n + "x" + ")" * n,
    "reductions": lambda n: "s = " + "sum(" * n + "x" + ")" * n,
    "unary minus": lambda n: "x = " + "- " * n + "x",
    "index parentheses": lambda n: "x(" + "(" * n + "1" + ")" * n + ") = 1",
    "index signs": lambda n: "x(" + "- " * n + "1) = 1",
    "sums": lambda n: "x = " + " + ".join(["x"] * (n + 1)),
    "products": lambda n: "x = " + " * ".join(["x"] * (n + 1)),
}


def _tree_depth(expr) -> int:
    """Operator levels of an expression tree, walked without recursion."""
    deepest, stack = 0, [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        for child in (getattr(node, f, None) for f in ("left", "right", "operand", "index")):
            if child is not None:
                stack.append((child, depth + 1))
    return deepest


class TestNestingBound:
    """Each nesting level costs the parser a few Python frames: past
    ``MAX_NESTING`` levels a line is a ``ParseError`` naming it, not a
    ``RecursionError``."""

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_four_hundred_levels_are_a_parse_error(self, kind):
        with pytest.raises(ParseError) as err:
            parse("real x(8), s(8)\n" + NESTINGS[kind](400))
        assert str(err.value) == (
            f"main:2: expression nested deeper than {MAX_NESTING} levels"
        )

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_the_bound_itself_parses_and_one_more_level_does_not(self, kind):
        parse("real x(8), s(8)\n" + NESTINGS[kind](MAX_NESTING))
        with pytest.raises(ParseError, match="nested deeper"):
            parse("real x(8), s(8)\n" + NESTINGS[kind](MAX_NESTING + 1))

    @pytest.mark.parametrize(
        "first",
        ["sin(" * 50 + "x" + ")" * 50, "- " * 50 + "x", "(" + " + ".join(["x"] * 51) + ")"],
        ids=["intrinsics", "unary minus", "parenthesised sum"],
    )
    def test_a_chain_stands_on_its_first_terms_levels(self, first):
        """A chain's first term is the deepest leaf of its tree: each
        operator after it is one more level above it."""
        program = parse("real x(8)\nx = " + first + " + x" * 50)
        assert _tree_depth(program.body[0].rhs) == MAX_NESTING
        with pytest.raises(ParseError, match="nested deeper"):
            parse("real x(8)\nx = " + first + " + x" * 51)

    def test_no_tree_is_deeper_than_the_bound(self):
        lines = [f(MAX_NESTING) for f in NESTINGS.values() if f(1).startswith("x =")]
        lines.append("x = " + " + ".join(["(" + " * ".join(["x"] * 60) + ")"] * 41))
        for line in lines:
            program = parse("real x(8), s(8)\n" + line)
            assert _tree_depth(program.body[0].rhs) <= MAX_NESTING, line

    def test_levels_close_again(self):
        # Siblings do not add up: only the open levels count.
        line = " + ".join(["(" * MAX_NESTING + "x" + ")" * MAX_NESTING] * 5)
        parse("real x(8)\nx = " + line + "\nx = " + line)


class TestBlockNestingBound:
    """``do`` and ``if`` blocks nest at most ``MAX_NESTING`` deep: a
    deeper program would parse but leave the fingerprint renderer out
    of frames, so it could never be cached."""

    @pytest.mark.parametrize("kind", ["do", "if"])
    def test_170_blocks_are_a_parse_error_on_the_101st(self, kind):
        from conftest import nested_blocks

        with pytest.raises(ParseError) as err:
            parse(nested_blocks(kind, 170), name="w")
        assert str(err.value) == (
            f"w:{MAX_NESTING + 2}: blocks nested deeper than {MAX_NESTING} levels"
        )

    @pytest.mark.parametrize("kind", ["do", "if"])
    def test_the_bound_itself_fingerprints_and_one_more_block_does_not_parse(
        self, kind
    ):
        from conftest import nested_blocks
        from repro.passes import content_fingerprint

        program = parse(nested_blocks(kind, MAX_NESTING))
        assert content_fingerprint(program) is not None
        with pytest.raises(ParseError, match="blocks nested deeper"):
            parse(nested_blocks(kind, MAX_NESTING + 1))

    def test_sibling_blocks_do_not_add_up(self):
        from conftest import nested_blocks

        inner = nested_blocks("if", MAX_NESTING).split("\n", 1)[1]
        parse("real x(8)\n" + inner + inner)
