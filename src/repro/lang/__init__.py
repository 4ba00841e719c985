"""Mini data-parallel language: the Fortran-90 subset the paper analyzes."""

from . import ast
from .ast import (
    Assign,
    BinOp,
    Const,
    Decl,
    Do,
    Expr,
    FullSlice,
    Gather,
    If,
    Index,
    Intrinsic,
    Program,
    Reduce,
    Ref,
    ScalarRef,
    Slice,
    Spread,
    Stmt,
    Transpose,
    UnaryOp,
)
from .lexer import LexError, tokenize
from .parser import ParseError, parse
from .pretty import expr_str, pretty
from .typecheck import TypeChecker, TypeError_, TypeInfo, typecheck
from . import generate, programs

__all__ = [
    "ast",
    "generate",
    "programs",
    "Assign",
    "BinOp",
    "Const",
    "Decl",
    "Do",
    "Expr",
    "FullSlice",
    "Gather",
    "If",
    "Index",
    "Intrinsic",
    "Program",
    "Reduce",
    "Ref",
    "ScalarRef",
    "Slice",
    "Spread",
    "Stmt",
    "Transpose",
    "UnaryOp",
    "LexError",
    "tokenize",
    "ParseError",
    "parse",
    "expr_str",
    "pretty",
    "TypeChecker",
    "TypeError_",
    "TypeInfo",
    "typecheck",
]
