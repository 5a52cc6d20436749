"""Graphviz DOT export of a tree, its flow field, and geodesic paths.

Edge color encodes the flow sign of the canonical orientation (red
positive, gray neutral, blue negative) and the label carries the exact
flow value.  Statements are emitted in sorted order so the output is
byte-stable; rendering is left to external tools.
"""

from __future__ import annotations

from typing import Optional

from .dynamics import DynamicalPlan
from .flows import NEGATIVE, POSITIVE, FlowField, flow_class
from .rationals import format_fraction
from .tree import MetricTree

__all__ = ["tree_to_dot"]

_COLORS = {POSITIVE: "red", NEGATIVE: "blue"}


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def tree_to_dot(
    t: MetricTree,
    ff: Optional[FlowField] = None,
    plan: Optional[DynamicalPlan] = None,
) -> str:
    lines = ["graph tree {"]
    lines.append('  node [fontname="Helvetica"];')
    if plan is not None:
        atoms = ", ".join(
            f"{a.source}->{a.target} ({format_fraction(a.mass)})" for a in plan.atoms
        )
        lines.append(f'  label="plan: {atoms}";')

    traversals: dict[tuple[str, str], int] = {}
    if plan is not None:
        for a in plan.atoms:
            chain = a.geodesic(t)[0]
            for u, v in zip(chain, chain[1:]):
                key = (u, v) if u <= v else (v, u)
                traversals[key] = traversals.get(key, 0) + 1

    for v in t.vertices:
        shape = "doublecircle" if v == t.base else "circle"
        lines.append(f"  {_quote(v)} [shape={shape}];")
    for end_id in sorted(t.ends):
        lines.append(f"  {_quote('end:' + end_id)} [label={_quote(end_id)}, shape=plaintext];")

    for u, v, length in t.edges:
        attrs = [f"label={_quote('len ' + format_fraction(length))}"]
        if ff is not None:
            phi = ff.flow(u, v)
            attrs = [
                f"label={_quote(f'{u}->{v}: ' + format_fraction(phi))}",
                f"color={_COLORS.get(flow_class(phi), 'gray')}",
            ]
        count = traversals.get((u, v), 0)
        if count:
            attrs.append(f"penwidth={1 + count}")
        lines.append(f"  {_quote(u)} -- {_quote(v)} [{', '.join(attrs)}];")

    for end_id, attach in sorted(t.ends.items()):
        attrs = ["style=dashed"]
        if ff is not None:
            phi = ff.flow_to_end(end_id)
            attrs = [
                f"label={_quote('out: ' + format_fraction(phi))}",
                f"color={_COLORS.get(flow_class(phi), 'gray')}",
                "style=dashed",
            ]
        lines.append(f"  {_quote(attach)} -- {_quote('end:' + end_id)} [{', '.join(attrs)}];")

    lines.append("}")
    return "\n".join(lines) + "\n"
