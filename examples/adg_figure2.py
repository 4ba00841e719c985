#!/usr/bin/env python
"""Parse the paper's Figure 1 and inspect its ADG (Figure 2).

Shows the parser front end, the node/edge inventory of the
alignment-distribution graph, and the Graphviz rendering — the paper's
Figure 2 regenerated for its Figure 1 fragment.
"""

import tempfile
from pathlib import Path

from repro.lang import parse, pretty
from repro.adg import build_adg, summary, to_dot

FIGURE1 = """
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
"""


def main() -> None:
    program = parse(FIGURE1, name="figure1")

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
