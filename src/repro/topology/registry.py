"""The ``parse_topology`` spec parser and its table of machine kinds.

Specs are compact machine descriptions for CLIs, batch payloads and
JSON reports::

    grid                    the unbounded identity machine (default)
    grid:4x4                4x4 open mesh
    torus:4x4               4x4 mesh with wraparound links
    ring:8                  8-processor cycle
    hypercube:16            16-processor hypercube (Gray-coded)
    hier:2x2/4x4            2x2 nodes of 4x4 cores (grid levels, cost 4)
    hier:(torus:2x2)/(grid:4x4)@8   explicit levels and inter-node cost

Every concrete :class:`~repro.topology.models.Topology` round-trips:
``parse_topology(t.spec()) == t``.  The kinds are the fixed table
``_PARSERS``; the planner, CLI and batch engine all resolve specs
through it.  A machine model outside the table is handed to the planner
as a live :class:`~repro.topology.models.Topology` object instead of a
spec.
"""

from __future__ import annotations

import re

from .models import (
    GridTopology,
    HierarchicalTopology,
    HypercubeTopology,
    RingTopology,
    Topology,
    TorusTopology,
    _parse_dims,
)

DEFAULT_HIER_COST = 4

_DIMS = re.compile(r"^\d+(x\d+)*$")


def topology_kinds() -> tuple[str, ...]:
    return tuple(sorted(_PARSERS))


def parse_topology(spec: str) -> Topology:
    """Parse a topology spec string into a :class:`Topology`."""
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError("empty topology spec")
    spec = spec.strip()
    kind, sep, rest = spec.partition(":")
    if sep and not rest:
        raise ValueError(f"{kind}: missing shape after ':' in {spec!r}")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ValueError(
            f"unknown topology kind {kind!r} in spec {spec!r}; "
            f"known kinds: {', '.join(topology_kinds())}"
        )
    return parser(rest)


_DEFAULT = GridTopology(())


def default_topology() -> GridTopology:
    """The unbounded grid — the paper's identity machine."""
    return _DEFAULT


# -- kind parsers -----------------------------------------------------------


def _parse_grid(rest: str) -> Topology:
    if not rest:
        return _DEFAULT
    return GridTopology(_parse_dims(rest, "grid"))


def _parse_torus(rest: str) -> Topology:
    return TorusTopology(_parse_dims(rest, "torus"))


def _parse_ring(rest: str) -> Topology:
    dims = _parse_dims(rest, "ring")
    if len(dims) != 1:
        raise ValueError(f"ring is one-dimensional, got shape {rest!r}")
    return RingTopology(dims)


def _parse_hypercube(rest: str) -> Topology:
    return HypercubeTopology(_parse_dims(rest, "hypercube"))


def _split_levels(rest: str) -> tuple[str, str, int]:
    """Split ``<outer>/<inner>[@cost]`` at the top parenthesis level."""
    cost = DEFAULT_HIER_COST
    depth = 0
    at = -1
    slash = -1
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"hier: unbalanced parentheses in {rest!r}")
        elif depth == 0 and ch == "/":
            if slash >= 0:
                raise ValueError(
                    f"hier composes exactly two levels, got {rest!r} "
                    "(nest deeper levels in parentheses)"
                )
            slash = i
        elif depth == 0 and ch == "@":
            at = i
            break
    if depth:
        raise ValueError(f"hier: unbalanced parentheses in {rest!r}")
    if at >= 0:
        try:
            cost = int(rest[at + 1 :])
        except ValueError:
            raise ValueError(
                f"hier: bad inter-node cost {rest[at + 1:]!r}"
            ) from None
        rest = rest[:at]
    if slash < 0:
        raise ValueError(
            f"hier needs '<outer>/<inner>' levels, got {rest!r}"
        )
    return rest[:slash], rest[slash + 1 :], cost


def _parse_level(text: str) -> Topology:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return parse_topology(text[1:-1])
    if _DIMS.match(text):
        return GridTopology(_parse_dims(text, "hier level"))
    raise ValueError(
        f"hier level {text!r} must be dims like '4x4' or a "
        "parenthesized spec like '(torus:4x4)'"
    )


def _parse_hier(rest: str) -> Topology:
    if not rest:
        raise ValueError("hier needs '<outer>/<inner>[@cost]'")
    outer_text, inner_text, cost = _split_levels(rest)
    return HierarchicalTopology.of(
        _parse_level(outer_text), _parse_level(inner_text), cost
    )


#: Each kind's parser; it gets the text after ``kind:``.
_PARSERS = {
    "grid": _parse_grid,
    "torus": _parse_torus,
    "ring": _parse_ring,
    "hypercube": _parse_hypercube,
    "hier": _parse_hier,
}
