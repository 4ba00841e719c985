"""Tokenizer for the Fortran-90-like surface syntax.

Line-oriented like Fortran: statements end at newline; ``!`` starts a
comment; keywords are case-insensitive.  Produces a flat token stream
with positions for error reporting.

The characters of the language are ASCII, as Fortran's are, and so are
its line breaks (those of ``str.splitlines`` below U+0080).  A comment
may hold any other text, but not a line break outside ASCII (U+0085,
U+2028, U+2029): read as a character, it would hide the statement after
it in the comment, so it is refused there as everywhere else.  Each line
is read by one pattern, :data:`_TOKEN`,
whose alternatives are the token grammar: a name (a keyword when it is
one, in any case), blanks and tabs, the operators, longest first, and a
number (digits with at most one ``.``, then an optional
``e``/``E``/``d``/``D`` exponent; an exponent without digits is not
part of it).  A number with a second ``.`` is a
:class:`LexError` (``malformed number``), and so is any other character
(``unexpected character``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = {
    "real", "integer", "do", "enddo", "end", "if", "then", "else", "endif",
    "readonly", "replicated",
}

# Multi-character operators first so maximal munch works.
OPERATORS = ["**", "==", "/=", "<=", ">=", "=", "+", "-", "*", "/", "(", ")", ",", ":", "<", ">"]

_TOKEN = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<blank>[ \t]+)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")"
    r"|(?P<malformed>(?:[0-9]+\.[0-9]*|\.[0-9]+)\.)"
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eEdD][+-]?[0-9]+)?)"
    r"|(?P<other>.)",
    re.DOTALL,
)

# The line breaks of ``str.splitlines`` that are ASCII, and those that
# are not.
_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e]")
_FOREIGN_BREAK = re.compile("[\x85\u2028\u2029]")


class Token(NamedTuple):
    kind: str  # 'ident', 'int', 'float', 'op', 'kw', 'newline', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        if self.kind in ("newline", "eof"):
            return f"<{self.kind}@{self.line}>"
        return f"<{self.kind} {self.text!r}@{self.line}:{self.col}>"


class LexError(SyntaxError):
    pass


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; always ends with exactly one ``eof`` token."""
    new = tuple.__new__
    tokens: list[Token] = []
    append = tokens.append
    lines = _BREAK.split(source)
    if not lines[-1]:
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("!", 1)[0]
        first = len(tokens)
        for m in _TOKEN.finditer(line):
            kind = m.lastgroup
            if kind == "blank":
                continue
            text = m.group()
            col = m.start() + 1
            if kind == "ident":
                low = text.lower()
                if low in KEYWORDS:
                    kind, text = "kw", low
            elif kind == "number":
                if text.isdigit():
                    kind = "int"
                else:
                    kind, text = "float", text.replace("d", "e").replace("D", "e")
            elif kind == "malformed":
                raise LexError(f"line {lineno}: malformed number near col {col}")
            elif kind == "other":
                raise LexError(
                    f"line {lineno}: unexpected character {text!r} at col {col}"
                )
            append(new(Token, (kind, text, lineno, col)))
        m = _FOREIGN_BREAK.search(raw, len(line))
        if m:
            raise LexError(
                f"line {lineno}: unexpected character {m.group()!r} at col {m.start() + 1}"
            )
        if len(tokens) > first:
            append(new(Token, ("newline", "\n", lineno, len(line) + 1)))
    append(new(Token, ("eof", "", len(lines) + 1, 1)))
    return tokens
