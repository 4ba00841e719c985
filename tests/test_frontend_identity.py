"""The front end gives the same results it gave before it was made fast.

Lexer, parser, typechecker, ADG builder and the program renderer are
rewritten for speed only: the token stream, the AST, the inferred
shapes (with the type of every scalar), the ADG's node, port and edge
sequences and every statement key and program fingerprint must not
move, because LP column order, plans, payloads and on-disk cache keys
are all derived from them.  ``tests/frontend_pins.json`` holds a digest
of each of these per program, over the 16 pinned kernels, their 48
edits, two generated corpora and a few programs written for the
constructs those miss.

Regenerate the pins (only for a deliberate change of the front end's
output, which also moves ``tests/golden/fingerprints.json``)::

    PYTHONPATH=src python tests/test_frontend_identity.py --write
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.adg import build_adg
from repro.ir.affine import AffineForm
from repro.ir.polynomial import Polynomial
from repro.lang import parse, tokenize, typecheck
from repro.lang.generate import generate_corpus
from repro.passes import content_fingerprint, statement_key

PINS = Path(__file__).parent / "frontend_pins.json"
CORPUS_DIR = Path(__file__).parent.parent / "benchmarks" / "perf" / "corpus"


def dump(value):
    """A JSON-able structural dump that keeps every scalar's type."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, Fraction):
        return ["Fraction", value.numerator, value.denominator]
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__name__, value.name]
    if isinstance(value, AffineForm):
        return [
            "AffineForm",
            dump(value.const),
            [[dump(liv), dump(c)] for liv, c in value.coeffs.items()],
        ]
    if isinstance(value, Polynomial):
        return [
            "Polynomial",
            [[dump(mono), dump(c)] for mono, c in value._terms.items()],
        ]
    if isinstance(value, (tuple, list)):
        return [type(value).__name__, [dump(v) for v in value]]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__qualname__,
            [[f.name, dump(getattr(value, f.name))] for f in dataclasses.fields(value)],
        ]
    raise TypeError(f"no dump for {type(value).__name__}")


def _adg_dump(adg) -> list:
    nodes = [
        [
            n.nid,
            n.kind.name,
            n.label,
            n.stmt,
            dump(n.payload),
            [
                [
                    p.name,
                    p.key,
                    p.index,
                    p.is_output,
                    dump(p.shape),
                    dump(p.space),
                    [e.eid for e in adg.out_edges(p)],
                    [e.eid for e in adg.in_edges(p)],
                ]
                for p in n.ports
            ],
        ]
        for n in adg.nodes
    ]
    edges = [
        [
            e.eid,
            e.tail.key,
            e.head.key,
            dump(e.weight),
            dump(e.space),
            dump(e.control_weight),
        ]
        for e in adg.edges
    ]
    return [adg.name, adg.template_rank, nodes, edges]


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]


def front_end_record(source: str, name: str) -> dict:
    """What the front end makes of one program, as pinned digests."""
    tokens = [[t.kind, t.text, t.line, t.col] for t in tokenize(source)]
    program = parse(source, name=name)
    info = typecheck(program)
    shapes = [
        [type(e).__name__, dump(info.shape_of(e))] for e in info._keepalive
    ]
    return {
        "tokens": _digest(tokens),
        "program": _digest(dump(program)),
        "shapes": _digest(shapes),
        "adg": _digest(_adg_dump(build_adg(program, info))),
        "statements": [statement_key(s) for s in program.body],
        "fingerprint": content_fingerprint(program),
    }


#: Constructs the corpora above do not reach: unary minus, a full
#: reduction, a gather, scalar fills and broadcasts, a LIV as a value,
#: fractional and LIV-dependent section bounds, one-trip and zero-trip
#: loops, nested conditionals, exponents in both spellings.
EXTRA = {
    "unary": "real A(8), B(8)\nB = -A + (-2.5e0) * sqrt(-A)\nA = 1.5D1 - B\n",
    "reduce": "real A(6,4), s(4), t(1)\ns = sum(A, dim=1)\nt(1) = maxval(s)\nA(1,:) = product(A)\n",
    "gather": "integer ix(10)\nreal T(10), V(10)\nV = gather(T, ix) + gather(V, ix)\n",
    "fills": (
        "real A(12), B(12)\nA = 0\ndo k = 1, 5\n  B(k) = 2*k\n  A(k:k+2) = 1\n"
        "  A(2*k:12:2) = B(2*k:12:2)\nenddo\n"
    ),
    "fraction": "real A(40)\ndo k = 2, 8, 2\n  A(k/2:k) = A(k/2+1:k+1)\nenddo\n",
    "trips": (
        "replicated real A(9)\nreadonly real C(9)\ndo i = 3, 3\n  A = A + C\nenddo\n"
        "do j = 5, 1\n  A = C\nenddo\ndo m = 9, 1, -2\n  A(m) = C(m)\nenddo\n"
    ),
    "branches": (
        "real A(7,7), B(7,7)\ndo k = 1, 3\n  if (k > 1) then\n    A = A + B\n"
        "    if (k == 2) then\n      B = transpose(transpose(B))\n    endif\n"
        "  else\n    B = cos(A)\n  endif\nenddo\nif (x) then\n  A = B\nendif\n"
    ),
}


def corpus() -> dict[str, tuple[str, str]]:
    """Pin id -> (source, program name) over every pinned program."""
    out = {f"extra:{name}": (source, name) for name, source in EXTRA.items()}
    for p in sorted(CORPUS_DIR.glob("*.dp")):
        out[f"kernel:{p.stem}"] = (p.read_text(), p.stem)
    for p in sorted((CORPUS_DIR / "edits").glob("*.dp")):
        out[f"edit:{p.stem}"] = (p.read_text(), p.stem.split(".")[0])
    for count, seed in ((40, 3), (14, 0)):
        for sc in generate_corpus(count, seed):
            out[f"corpus{count}.{seed}:{sc.name}"] = (sc.source, sc.name)
    return out


CORPUS = corpus()


def test_the_corpus_is_the_pinned_one():
    pins = json.loads(PINS.read_text())
    assert sorted(CORPUS) == sorted(pins)
    kinds = [key.split(":")[0] for key in CORPUS]
    assert kinds.count("kernel") == 16 and kinds.count("edit") == 48
    assert kinds.count("corpus40.3") == 40 and kinds.count("corpus14.0") == 14
    assert kinds.count("extra") == len(EXTRA)


@pytest.mark.parametrize("pin", sorted(CORPUS))
def test_front_end_output_is_pinned(pin):
    pins = json.loads(PINS.read_text())
    source, name = CORPUS[pin]
    assert front_end_record(source, name) == pins[pin]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.write_text(
        json.dumps(
            {pin: front_end_record(*CORPUS[pin]) for pin in sorted(CORPUS)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
