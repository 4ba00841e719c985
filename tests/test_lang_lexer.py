"""Unit tests for the lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexer_reference import reference_tokenize
from repro.lang import LexError, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind not in ("newline", "eof")]


class TestTokens:
    def test_declaration(self):
        toks = kinds("real A(100,100)")
        assert toks[0] == ("kw", "real")
        assert toks[1] == ("ident", "A")
        assert ("int", "100") in toks

    def test_keywords_case_insensitive(self):
        assert kinds("DO k = 1, 5")[0] == ("kw", "do")
        assert kinds("EndDo")[0] == ("kw", "enddo")

    def test_identifiers_preserve_case(self):
        assert ("ident", "Vec_1") in kinds("Vec_1 = Vec_1")

    def test_operators_maximal_munch(self):
        toks = kinds("a ** b == c /= d <= e >= f")
        ops = [t for k, t in toks if k == "op"]
        assert ops == ["**", "==", "/=", "<=", ">="]

    def test_triplet_colons(self):
        toks = kinds("A(1:100:2)")
        assert ([t for k, t in toks if t == ":"]) == [":", ":"]

    def test_comments_stripped(self):
        toks = kinds("x = 1 ! this is a comment")
        assert all("comment" not in t for _, t in toks)
        assert toks[-1] == ("int", "1")

    def test_floats(self):
        toks = kinds("x = 1.5 + 2e3 + 3.25e-1")
        floats = [t for k, t in toks if k == "float"]
        assert floats == ["1.5", "2e3", "3.25e-1"]

    def test_fortran_d_exponent(self):
        toks = kinds("x = 1.5d0")
        assert ("float", "1.5e0") in toks

    def test_newlines_terminate_statements(self):
        toks = tokenize("a = 1\nb = 2")
        newlines = [t for t in toks if t.kind == "newline"]
        assert len(newlines) == 2

    def test_positions(self):
        toks = tokenize("  foo")
        assert toks[0].line == 1
        assert toks[0].col == 3

    def test_unexpected_char(self):
        with pytest.raises(LexError):
            tokenize("a = @")

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind == "eof"
        assert tokenize("a = 1")[-1].kind == "eof"

    def test_number_then_colon(self):
        # '1:100' must not lex '1:' as a malformed float
        toks = kinds("A(1:100)")
        assert ("int", "1") in toks and ("int", "100") in toks

    def test_double_dot_rejected(self):
        with pytest.raises(LexError):
            tokenize("x = 1.2.3")

    def test_malformed_number_names_its_column(self):
        with pytest.raises(LexError, match=r"^line 2: malformed number near col 5$"):
            tokenize("x = 1\nx = 1.2.3")

    def test_exponent_without_digits_is_not_part_of_the_number(self):
        assert kinds("x = 1e + 1.e5 + .5d-2") == [
            ("ident", "x"), ("op", "="), ("int", "1"), ("ident", "e"),
            ("op", "+"), ("float", "1.e5"), ("op", "+"), ("float", ".5e-2"),
        ]  # fmt: skip


class TestAsciiOnly:
    """The characters of the language are ASCII; comments hold any text
    but a line break outside ASCII."""

    @pytest.mark.parametrize(
        "source, message",
        [
            ("real A(²)", "line 1: unexpected character '²' at col 8"),
            ("real A(٣)", "line 1: unexpected character '٣' at col 8"),
            ("real Aé(4)", "line 1: unexpected character 'é' at col 7"),
            ("real A(4)\nA\u2028= 1", "line 2: unexpected character '\\u2028' at col 2"),
            # str.splitlines once ended the line at these breaks: read as
            # comment text they would hide ``A = 2``.
            ("A = 1 ! n\x85A = 2\nB = 3", "line 1: unexpected character '\\x85' at col 10"),
            ("A = 1 ! n\u2028A = 2", "line 1: unexpected character '\\u2028' at col 10"),
            ("A = 1 ! n\u2029A = 2", "line 1: unexpected character '\\u2029' at col 10"),
            ("A = ² ! \u2028", "line 1: unexpected character '²' at col 5"),
        ],
    )
    def test_a_character_outside_ascii_is_refused(self, source, message):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert str(exc.value) == message

    def test_a_comment_may_hold_any_text(self):
        assert kinds("x = 1 ! café ²") == [("ident", "x"), ("op", "="), ("int", "1")]

    def test_lines_break_where_they_did_on_ascii_text(self):
        source = "a = 1\r\nb = 2\x0bc = 3\x0c\x1cd = 4\n"
        assert tokenize(source) == reference_tokenize(source)
        assert tokenize(source + "! é")[-1].line == 7


_ascii_lines = st.lists(
    st.one_of(
        st.sampled_from(
            [" ", "\t", "!", "1.", ".5", "1e", "1.e5", "1.5d0", "1.2.3", "2D-3",
             "e+", ".", "**", "==", "/=", "<=", ">=", "=", "*", "/", "(", ")",
             ":", ",", "do", "EndDo", "x_1", "A", "\n", "\r\n", "\x0b", "@"]
        ),
        st.text(st.characters(max_codepoint=127), max_size=3),
    ),
    max_size=24,
).map("".join)


@given(_ascii_lines)
@settings(max_examples=600, deadline=None)
def test_equals_the_character_loop_on_ascii_text(source):
    try:
        want = reference_tokenize(source)
    except LexError as exc:
        with pytest.raises(LexError) as got:
            tokenize(source)
        assert str(got.value) == str(exc)
        return
    assert tokenize(source) == want
