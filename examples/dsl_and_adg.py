#!/usr/bin/env python
"""Build a program with the Python DSL and inspect its ADG (Figure 2).

Shows the builder API (no parsing), the node/edge inventory of the
alignment-distribution graph, and the Graphviz rendering — the paper's
Figure 2 regenerated for its Figure 1 fragment.
"""

import tempfile
from pathlib import Path

from repro.lang import ProgramBuilder, pretty
from repro.adg import build_adg, summary, to_dot


def main() -> None:
    b = ProgramBuilder("figure1")
    A = b.real("A", 100, 100)
    V = b.real("V", 200)
    with b.do("k", 1, 100) as k:
        b.assign(A[k, 1:100], A[k, 1:100] + V[k : k + 99])
    program = b.build()

    print("surface syntax:")
    print(pretty(program))

    adg = build_adg(program)
    print("ADG inventory (compare to the paper's Figure 2):")
    print(summary(adg))

    path = Path(tempfile.mkdtemp()) / "figure2.dot"
    path.write_text(to_dot(adg))
    print(f"\nGraphviz written to {path} (render with `dot -Tpng`)")


if __name__ == "__main__":
    main()
