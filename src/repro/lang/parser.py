"""Recursive-descent parser for the mini data-parallel language.

Grammar (statements are newline-terminated, Fortran style)::

    program   : { decl | stmt }
    decl      : attrs ('real'|'integer') item {',' item}
    attrs     : { 'readonly' | 'replicated' }
    item      : IDENT '(' INT {',' INT} ')'
    stmt      : assign | do | if
    do        : 'do' IDENT '=' INT ',' INT [',' INT] NL {stmt} 'enddo'
    if        : 'if' '(' cond ')' 'then' NL {stmt} ['else' NL {stmt}] 'endif'
    assign    : ref '=' expr
    expr      : term {('+'|'-') term}
    term      : factor {('*'|'/') factor}
    factor    : ['-'] primary
    primary   : NUMBER | call | ref | '(' expr ')'
    call      : INTRINSIC '(' ... ')'
    ref       : IDENT ['(' subscript {',' subscript} ')']
    subscript : ':' | sexpr [':' sexpr [':' INT]]

Scalar index expressions (``sexpr``) are affine: sums/differences of
integer literals and identifiers, products only with an integer constant
on one side.  Anything else is a parse error — this is precisely the
restriction of Section 2.4.

An expression nests at most :data:`MAX_NESTING` levels, counted two
ways: the parser's own open levels (parentheses, call arguments and
unary signs, in expressions and in indices), and the levels of the tree
it returns, where each operator of a left-associative chain
(``x + x + ... + x``) is one more level above the chain's first term.
A deeper line is a :class:`ParseError` naming its line, before the
parser, or a pass that walks the tree, could run out of Python frames.
``do`` and ``if`` blocks nest at most :data:`MAX_NESTING` deep too: the
opening line of the one block too many is the error's line.

The parser reads the token list in place: every stream ends with one
``eof`` token and ``pos`` never moves past it, so only a look-ahead
(``peek(1)``) needs a clamp.
"""

from __future__ import annotations

from ..ir.affine import AffineForm
from ..ir.symbols import LIV
from . import ast as A
from .lexer import Token, tokenize

ELEMENTWISE_INTRINSICS = {"cos", "sin", "exp", "sqrt", "abs", "log", "tanh"}
REDUCTIONS = {"sum", "product", "maxval", "minval"}
CALLS = ELEMENTWISE_INTRINSICS | REDUCTIONS | {"transpose", "spread", "gather"}


#: The deepest expression nesting a line may write: parentheses,
#: intrinsic and reduction arguments and unary signs each open one
#: level of the parser, and each operator, sign or call one level of
#: the expression tree.  It also bounds how deep ``do`` and ``if``
#: blocks nest.  Each level costs the parser, the typechecker and the
#: fingerprint renderer a few Python frames, so deeper input would end
#: in a ``RecursionError`` (or, in the renderer, an unfingerprintable
#: program) instead of a ``ParseError``.
MAX_NESTING = 100


class ParseError(SyntaxError):
    pass


class Parser:
    def __init__(self, tokens: list[Token], source_name: str = "<string>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name
        self.declared: dict[str, A.Decl] = {}
        self.depth = 0  # open nesting levels of the expression being read
        self.height = 0  # operator levels of the expression last returned
        self.blocks = 0  # open do/if blocks around the statement being read

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tokens[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(
                f"{self.source_name}:{t.line}: expected {want!r}, found {t.text!r}"
            )
        if kind != "eof":
            self.pos += 1
        return t

    def too_deep(self) -> ParseError:
        return ParseError(
            f"{self.source_name}:{self.peek().line}: expression nested "
            f"deeper than {MAX_NESTING} levels"
        )

    def nest(self, parse, *args):
        """``parse(*args)`` one nesting level deeper; past
        :data:`MAX_NESTING` levels a :class:`ParseError`."""
        if self.depth == MAX_NESTING:
            raise self.too_deep()
        self.depth += 1
        out = parse(*args)
        self.depth -= 1
        return out

    def rise(self, height: int) -> None:
        """The expression just built stands one level above a subtree
        ``height`` levels high; past :data:`MAX_NESTING` levels a
        :class:`ParseError`."""
        if height == MAX_NESTING:
            raise self.too_deep()
        self.height = height + 1

    def skip_newlines(self) -> None:
        while self.at("newline"):
            self.next()

    def end_of_statement(self) -> None:
        t = self.peek()
        if t.kind == "eof":
            return
        self.expect("newline")
        self.skip_newlines()

    # -- program -----------------------------------------------------------------

    def parse_program(self, name: str = "main") -> A.Program:
        decls: list[A.Decl] = []
        body: list[A.Stmt] = []
        self.skip_newlines()
        while not self.at("eof"):
            if self.at("kw", "real") or self.at("kw", "integer") or (
                self.at("kw", "readonly") or self.at("kw", "replicated")
            ):
                decls.extend(self.parse_decl())
            else:
                body.append(self.parse_stmt())
        return A.Program(tuple(decls), tuple(body), name=name)

    def parse_decl(self) -> list[A.Decl]:
        readonly = False
        replicate = False
        while self.at("kw", "readonly") or self.at("kw", "replicated"):
            t = self.next()
            if t.text == "readonly":
                readonly = True
            else:
                replicate = True
        kind_tok = self.peek()
        if not (self.at("kw", "real") or self.at("kw", "integer")):
            raise ParseError(
                f"{self.source_name}:{kind_tok.line}: expected type keyword"
            )
        kind = self.next().text
        items: list[A.Decl] = []
        while True:
            name = self.expect("ident").text
            self.expect("op", "(")
            dims = [int(self.expect("int").text)]
            while self.at("op", ","):
                self.next()
                dims.append(int(self.expect("int").text))
            self.expect("op", ")")
            d = A.Decl(
                name,
                tuple(dims),
                kind=kind,
                readonly=readonly,
                replicate_hint=replicate,
            )
            if name in self.declared:
                raise ParseError(f"{self.source_name}: duplicate declaration of {name!r}")
            self.declared[name] = d
            items.append(d)
            if self.at("op", ","):
                self.next()
                continue
            break
        self.end_of_statement()
        return items

    # -- statements ----------------------------------------------------------------

    def parse_stmt(self) -> A.Stmt:
        if self.at("kw", "do"):
            return self.block(self.parse_do)
        if self.at("kw", "if"):
            return self.block(self.parse_if)
        return self.parse_assign()

    def block(self, parse):
        """``parse()`` one block deeper; the block past
        :data:`MAX_NESTING` open ones is a :class:`ParseError`."""
        if self.blocks == MAX_NESTING:
            raise ParseError(
                f"{self.source_name}:{self.peek().line}: blocks nested "
                f"deeper than {MAX_NESTING} levels"
            )
        self.blocks += 1
        out = parse()
        self.blocks -= 1
        return out

    def parse_do(self) -> A.Do:
        self.expect("kw", "do")
        liv = self.expect("ident").text
        self.expect("op", "=")
        lo = self.parse_signed_int()
        self.expect("op", ",")
        hi = self.parse_signed_int()
        step = 1
        if self.at("op", ","):
            self.next()
            step = self.parse_signed_int()
        self.end_of_statement()
        body: list[A.Stmt] = []
        while not self.at("kw", "enddo"):
            if self.at("eof"):
                raise ParseError(f"{self.source_name}: unterminated do loop ({liv})")
            body.append(self.parse_stmt())
        self.expect("kw", "enddo")
        self.end_of_statement()
        return A.Do(liv, lo, hi, step, tuple(body))

    def parse_if(self) -> A.If:
        self.expect("kw", "if")
        self.expect("op", "(")
        # The condition is opaque: capture raw tokens to matching ')'.
        depth = 1
        parts: list[str] = []
        while depth > 0:
            t = self.next()
            if t.kind == "eof":
                raise ParseError(f"{self.source_name}: unterminated if condition")
            if t.kind == "op" and t.text == "(":
                depth += 1
            elif t.kind == "op" and t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            parts.append(t.text)
        cond = " ".join(parts)
        self.expect("kw", "then")
        self.end_of_statement()
        then_body: list[A.Stmt] = []
        else_body: list[A.Stmt] = []
        while not (self.at("kw", "else") or self.at("kw", "endif")):
            if self.at("eof"):
                raise ParseError(f"{self.source_name}: unterminated if block")
            then_body.append(self.parse_stmt())
        if self.at("kw", "else"):
            self.next()
            self.end_of_statement()
            while not self.at("kw", "endif"):
                if self.at("eof"):
                    raise ParseError(f"{self.source_name}: unterminated else block")
                else_body.append(self.parse_stmt())
        self.expect("kw", "endif")
        self.end_of_statement()
        return A.If(cond, tuple(then_body), tuple(else_body))

    def parse_assign(self) -> A.Assign:
        lhs = self.parse_ref()
        self.expect("op", "=")
        rhs = self.parse_expr()
        self.end_of_statement()
        return A.Assign(lhs, rhs)

    # -- expressions ------------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        left = self.parse_term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next().text
            height = self.height
            right = self.parse_term()
            left = A.BinOp(op, left, right)
            self.rise(max(height, self.height))
        return left

    def parse_term(self) -> A.Expr:
        left = self.parse_factor()
        while self.at("op", "*") or self.at("op", "/"):
            op = self.next().text
            height = self.height
            right = self.parse_factor()
            left = A.BinOp(op, left, right)
            self.rise(max(height, self.height))
        return left

    def parse_factor(self) -> A.Expr:
        if self.at("op", "-"):
            self.next()
            operand = self.nest(self.parse_factor)
            self.rise(self.height)
            return A.UnaryOp("-", operand)
        return self.parse_primary()

    def parse_primary(self) -> A.Expr:
        t = self.peek()
        if t.kind in ("int", "float"):
            self.next()
            self.height = 0
            return A.Const(float(t.text))
        if t.kind == "op" and t.text == "(":
            self.next()
            e = self.nest(self.parse_expr)
            self.expect("op", ")")
            return e
        if t.kind == "ident":
            lname = t.text.lower()
            if lname not in CALLS or self.peek(1).text != "(":
                self.height = 0
                return self.parse_ref()
            if lname == "spread":
                e = self.nest(self.parse_spread)
            elif lname in REDUCTIONS:
                e = self.nest(self.parse_reduction, lname)
            else:
                self.next()
                self.expect("op", "(")
                if lname == "gather":
                    table = self.parse_ref()
                    self.expect("op", ",")
                    e = A.Gather(table, self.nest(self.parse_expr))
                elif lname == "transpose":
                    e = A.Transpose(self.nest(self.parse_expr))
                else:
                    e = A.Intrinsic(lname, self.nest(self.parse_expr))
                self.expect("op", ")")
            self.rise(self.height)
            return e
        raise ParseError(
            f"{self.source_name}:{t.line}: unexpected token {t.text!r} in expression"
        )

    def parse_spread(self) -> A.Spread:
        self.expect("ident")  # 'spread'
        self.expect("op", "(")
        operand = self.parse_expr()
        self.expect("op", ",")
        dim = None
        ncopies = None
        for _ in range(2):
            key = self.expect("ident").text.lower()
            self.expect("op", "=")
            val = self.parse_signed_int()
            if key == "dim":
                dim = val
            elif key == "ncopies":
                ncopies = val
            else:
                raise ParseError(f"{self.source_name}: unknown spread argument {key!r}")
            if self.at("op", ","):
                self.next()
        self.expect("op", ")")
        if dim is None or ncopies is None:
            raise ParseError(f"{self.source_name}: spread needs dim= and ncopies=")
        return A.Spread(operand, dim, ncopies)

    def parse_reduction(self, op: str) -> A.Reduce:
        self.expect("ident")
        self.expect("op", "(")
        operand = self.parse_expr()
        dim = None
        if self.at("op", ","):
            self.next()
            key = self.expect("ident").text.lower()
            self.expect("op", "=")
            if key != "dim":
                raise ParseError(f"{self.source_name}: unknown reduction argument {key!r}")
            dim = self.parse_signed_int()
        self.expect("op", ")")
        return A.Reduce(op, operand, dim)

    # -- references and subscripts --------------------------------------------------------

    def parse_ref(self) -> A.Ref:
        name = self.expect("ident").text
        if not self.at("op", "("):
            return A.Ref(name)
        self.next()
        subs: list[A.Subscript] = [self.parse_subscript()]
        while self.at("op", ","):
            self.next()
            subs.append(self.parse_subscript())
        self.expect("op", ")")
        return A.Ref(name, tuple(subs))

    def parse_subscript(self) -> A.Subscript:
        if self.at("op", ":"):
            self.next()
            return A.FullSlice()
        lo = self.parse_affine()
        if not self.at("op", ":"):
            return A.Index(lo)
        self.next()
        hi = self.parse_affine()
        step = AffineForm(1)
        if self.at("op", ":"):
            self.next()
            step = self.parse_affine()
        return A.Slice(lo, hi, step)

    # -- scalar affine expressions ------------------------------------------------------------

    def parse_signed_int(self) -> int:
        neg = False
        while self.at("op", "-") or self.at("op", "+"):
            if self.next().text == "-":
                neg = not neg
        v = int(self.expect("int").text)
        return -v if neg else v

    def parse_affine(self) -> AffineForm:
        """Parse an affine scalar expression (index arithmetic)."""
        left = self.parse_affine_term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next().text
            right = self.parse_affine_term()
            left = left + right if op == "+" else left - right
        return left

    def parse_affine_term(self) -> AffineForm:
        left = self.parse_affine_atom()
        while self.at("op", "*") or self.at("op", "/"):
            op = self.next().text
            right = self.parse_affine_atom()
            if op == "*":
                if left.is_constant:
                    left = right * left.const
                elif right.is_constant:
                    left = left * right.const
                else:
                    t = self.peek()
                    raise ParseError(
                        f"{self.source_name}:{t.line}: non-affine index expression "
                        "(product of two variables)"
                    )
            else:
                if not right.is_constant or right.const == 0:
                    t = self.peek()
                    raise ParseError(
                        f"{self.source_name}:{t.line}: division by non-constant in index"
                    )
                left = left / right.const
        return left

    def parse_affine_atom(self) -> AffineForm:
        if self.at("op", "-"):
            self.next()
            return -self.nest(self.parse_affine_atom)
        if self.at("op", "+"):
            self.next()
            return self.nest(self.parse_affine_atom)
        if self.at("op", "("):
            self.next()
            e = self.nest(self.parse_affine)
            self.expect("op", ")")
            return e
        t = self.peek()
        if t.kind == "int":
            self.next()
            return AffineForm(int(t.text))
        if t.kind == "ident":
            self.next()
            if t.text in self.declared:
                raise ParseError(
                    f"{self.source_name}:{t.line}: array {t.text!r} used in scalar "
                    "index position (vector subscripts use gather(...))"
                )
            return AffineForm.variable(LIV(t.text, 0))
        raise ParseError(
            f"{self.source_name}:{t.line}: unexpected token {t.text!r} in index"
        )


def parse(source: str, name: str = "main") -> A.Program:
    """Parse source text into a :class:`~repro.lang.ast.Program`."""
    return Parser(tokenize(source), source_name=name).parse_program(name)
