"""The lexer's character loop, kept as the reference for the one-pattern
tokenizer of :mod:`repro.lang.lexer`.

On ASCII text the two give equal token streams or equal ``LexError``
texts (``tests/test_lang_lexer.py``).  The loop tests characters with
``str.isdigit`` / ``isalpha`` / ``isalnum``, which also accept letters
and digits outside ASCII: there the tokenizer refuses what this loop
takes.
"""

from __future__ import annotations

from repro.lang.lexer import KEYWORDS, OPERATORS, LexError, Token


def reference_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("!", 1)[0]
        col = 0
        n = len(line)
        emitted_any = False
        while col < n:
            ch = line[col]
            if ch in " \t":
                col += 1
                continue
            start = col
            if ch.isdigit() or (
                ch == "." and col + 1 < n and line[col + 1].isdigit()
            ):
                col += 1
                isfloat = ch == "."
                while col < n and (line[col].isdigit() or line[col] == "."):
                    if line[col] == ".":
                        # The language has no ranges with '.', so any '.'
                        # here belongs to the number.
                        if isfloat:
                            raise LexError(
                                f"line {lineno}: malformed number near col {start+1}"
                            )
                        isfloat = True
                    col += 1
                # exponent part
                if col < n and line[col] in "eEdD":
                    mark = col
                    col += 1
                    if col < n and line[col] in "+-":
                        col += 1
                    if col < n and line[col].isdigit():
                        isfloat = True
                        while col < n and line[col].isdigit():
                            col += 1
                    else:
                        col = mark
                text = line[start:col].replace("d", "e").replace("D", "e")
                tokens.append(
                    Token("float" if isfloat else "int", text, lineno, start + 1)
                )
                emitted_any = True
                continue
            if ch.isalpha() or ch == "_":
                col += 1
                while col < n and (line[col].isalnum() or line[col] == "_"):
                    col += 1
                text = line[start:col]
                kind = "kw" if text.lower() in KEYWORDS else "ident"
                tokens.append(Token(kind, text.lower() if kind == "kw" else text, lineno, start + 1))
                emitted_any = True
                continue
            for op in OPERATORS:
                if line.startswith(op, col):
                    tokens.append(Token("op", op, lineno, col + 1))
                    col += len(op)
                    emitted_any = True
                    break
            else:
                raise LexError(f"line {lineno}: unexpected character {ch!r} at col {col+1}")
        if emitted_any:
            tokens.append(Token("newline", "\n", lineno, n + 1))
    tokens.append(Token("eof", "", len(source.splitlines()) + 1, 1))
    return tokens
