"""Unit tests for the pretty-printer round-trip and the constructs the
parser reads."""

import pytest

from repro.lang import ParseError, parse, pretty, typecheck
from repro.lang import programs
from repro.lang.typecheck import TypeError_
from repro.passes import content_fingerprint


class TestConstructs:
    def test_figure1_equivalent(self):
        src = (
            "real A(100,100), V(200)\n"
            "do k = 1, 100\n"
            "  A(k,1:100) = A(k,1:100) + V(k:k+99)\n"
            "enddo\n"
        )
        assert pretty(parse(src, name="fig1")) == pretty(programs.figure1())

    def test_operator_overloads(self):
        p = parse("real A(8)\nreal B(8)\nA = 2 * B - 1\nA = -B / 2\n")
        typecheck(p)
        assert "2 * B - 1" in pretty(p)

    def test_full_slice(self):
        p = parse("real A(4,6)\nreal B(6)\nA(2,:) = B\n")
        typecheck(p)
        assert "A(2,:)" in pretty(p)

    def test_intrinsics(self):
        typecheck(
            parse(
                "real t(4)\nreal B(4,6)\nreal r(4)\n"
                "t = cos(t)\n"
                "B = spread(t, dim=2, ncopies=6)\n"
                "r = sum(B, dim=2)\n"
            )
        )

    def test_transpose(self):
        typecheck(parse("real B(4,4)\nreal C(4,4)\nB = B + transpose(C)\n"))

    def test_gather(self):
        typecheck(
            parse(
                "readonly replicated real T(16)\ninteger idx(5)\nreal y(5)\n"
                "y(1:5) = gather(T, idx(1:5))\n"
            )
        )

    def test_if_blocks(self):
        p = parse(
            "real A(8)\n"
            "if (converged) then\n  A = A + 1\nelse\n  A = A - 1\nendif\n"
        )
        s = p.body[0]
        assert s.prob == 0.5  # the text carries no weight: the default
        assert len(s.then_body) == 1 and len(s.else_body) == 1

    def test_gather_from_rank2_table_rejected(self):
        p = parse(
            "readonly replicated real T(4,4)\ninteger idx(5)\nreal y(5)\n"
            "y(1:5) = gather(T, idx(1:5))\n"
        )
        with pytest.raises(TypeError_, match="gather table must be rank-1"):
            typecheck(p)

    def test_open_slice_rejected(self):
        with pytest.raises(ParseError):
            parse("real A(8)\nA(1:) = 1\n")

    def test_assign_to_expression_rejected(self):
        with pytest.raises(ParseError, match="expected '='"):
            parse("real A(8)\nA + 1 = A\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(programs.ALL_PAPER_FRAGMENTS))
    def test_paper_fragments(self, name):
        p = programs.ALL_PAPER_FRAGMENTS[name]()
        text = pretty(p)
        assert pretty(parse(text)) == text

    @pytest.mark.parametrize(
        "gen",
        [
            programs.stencil_sweep,
            programs.skewed_wavefront,
            programs.triangular_sections,
            programs.doubly_nested,
            programs.conditional_update,
        ],
    )
    def test_generators(self, gen):
        p = gen()
        text = pretty(p)
        assert pretty(parse(text)) == text

    def test_negative_step_roundtrip(self):
        src = "real A(10)\ndo k = 10, 1, -2\n  A(k) = 1\nenddo\n"
        assert pretty(parse(src)) == src

    def test_attributes_roundtrip(self):
        src = "readonly replicated real T(256)\n"
        p = parse(src)
        assert pretty(p) == src

    def test_every_construct_typechecks_and_roundtrips(self):
        # Elementwise intrinsics, spread with dim/ncopies, a reduction
        # along a dim, transpose, a gather from a readonly replicated
        # table, a full slice and if/else, in one program.
        src = (
            "readonly replicated real T(16)\n"
            "integer idx(5)\n"
            "real t(4)\nreal B(4,6)\nreal r(4)\nreal C(4,4)\nreal D(4,4)\n"
            "real y(5)\nreal A(8)\n"
            "t = sqrt(cos(t))\n"
            "B = spread(t, dim=2, ncopies=6)\n"
            "r = sum(B, dim=2)\n"
            "C = C + transpose(D)\n"
            "B(2,:) = B(3,:)\n"
            "y(1:5) = gather(T, idx(1:5))\n"
            "if (converged) then\n"
            "  A = 2 * A - 1\n"
            "else\n"
            "  A = -A / 2\n"
            "endif\n"
        )
        p = parse(src)
        typecheck(p)
        assert pretty(p) == src


def test_lookup_table_keeps_its_fingerprint():
    assert content_fingerprint(programs.lookup_table()) == "293b0a081e07"
