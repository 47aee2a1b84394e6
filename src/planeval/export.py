"""Graph-description export of a finalized net (Graphviz dot dialect).

It draws the nodes the net made. An alias, a name the net keeps in place
of a node whose states would only copy or relabel, one to one, those of
one other node, its source, is not drawn: the nodes that read it have an
arc from its source, which may lie in an earlier situation.
"""

from __future__ import annotations

from .errors import PlanEvalError
from .net import CLOCK, DERIVED, ELAPSED, PRIMITIVE, RELATIVE_END_TIME, SELECTION, PENet

_SHAPES = {
    PRIMITIVE: "ellipse",
    DERIVED: "diamond",
    SELECTION: "box",
    CLOCK: "hexagon",
    RELATIVE_END_TIME: "trapezium",
    ELAPSED: "octagon",
}


def export_graph(net: PENet) -> str:
    """Deterministic dot text: one cluster per situation, shapes by node kind."""
    if not net.finalized:
        raise PlanEvalError("export_graph requires a finalized net")
    lines = ["digraph pe_net {", "  rankdir=LR;"]
    for sit in net.situation_order:
        members = sorted((nid for nid in net.nodes if nid.sit == sit), key=net.node_key)
        lines.append(f"  subgraph cluster_{sit} {{")
        lines.append(f'    label="{sit}";')
        for nid in members:
            shape = _SHAPES[net.nodes[nid].kind]
            lines.append(f'    "{nid}" [shape={shape}];')
        lines.append("  }")
    for nid in sorted(net.nodes, key=net.node_key):
        for parent in net.nodes[nid].parents:
            lines.append(f'  "{parent}" -> "{nid}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
