"""ASCII and Graphviz rendering of ADGs (Figure 2 regeneration)."""

from __future__ import annotations

from .graph import ADG
from .nodes import NodeKind, TransformerPayload


def to_dot(adg: ADG) -> str:
    """Render the ADG in Graphviz dot syntax."""
    lines = [f'digraph "{adg.name}" {{', "  rankdir=TB;", "  node [shape=box];"]
    shapes = {
        NodeKind.SOURCE: "ellipse",
        NodeKind.SINK: "ellipse",
        NodeKind.MERGE: "invtriangle",
        NodeKind.FANOUT: "triangle",
        NodeKind.BRANCH: "diamond",
        NodeKind.TRANSFORMER: "hexagon",
    }
    for n in adg.nodes:
        shape = shapes.get(n.kind, "box")
        label = n.label.replace('"', "'")
        if n.kind is NodeKind.TRANSFORMER and isinstance(n.payload, TransformerPayload):
            label += f"\\n[{n.payload.kind} {n.payload.liv.name}@{n.payload.value}]"
        lines.append(f'  n{n.nid} [label="{label}", shape={shape}];')
    for e in adg.edges:
        w = str(e.weight)
        lines.append(
            f'  n{e.tail.node.nid} -> n{e.head.node.nid} '
            f'[label="w={w}\\n{e.space!r}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def summary(adg: ADG) -> str:
    """Human-readable node/edge inventory (``examples/adg_figure2.py`` prints it)."""
    lines = [repr(adg)]
    for n in adg.nodes:
        ports = ", ".join(
            f"{p.name}{'(out)' if p.is_output else ''}" for p in n.ports
        )
        lines.append(f"  {n.uid} [{n.kind.name}]  ports: {ports}")
    lines.append("edges:")
    for e in adg.edges:
        lines.append(
            f"  e{e.eid}: {e.tail.uid} -> {e.head.uid}  w={e.weight}  "
            f"space={e.space!r} cw={e.control_weight:g}"
        )
    return "\n".join(lines)
