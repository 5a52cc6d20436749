"""The adjacency walks that the time function and level ties replaced.

:func:`vertex_time` propagates times from the base by a depth-first
search over ``t.adjacency``, reading each edge's flow with
``FlowField.flow``; :func:`tie_components` grows each neutral component
by the same search.  ``oracles.theory`` now reads both from one pass
over the rooted preorder; these are kept to be compared with it by
exact equality.
"""

from __future__ import annotations

from fractions import Fraction

from wassertree.flows import NEGATIVE, NEUTRAL, POSITIVE, flow_class


def vertex_time(t, ff) -> dict:
    """Time of every vertex: +length along positive edges, -length along negative ones."""
    t.require_valid()
    times = {t.base: Fraction(0)}
    stack = [t.base]
    while stack:
        v = stack.pop()
        for w, length in t.adjacency[v]:
            if w in times:
                continue
            cls = flow_class(ff.flow(v, w))
            if cls == POSITIVE:
                times[w] = times[v] + length
            elif cls == NEGATIVE:
                times[w] = times[v] - length
            else:
                times[w] = times[v]
            stack.append(w)
    return times


def tie_components(t, ff, times, time) -> tuple:
    """Boundaries on level ``time`` of the neutral components, two or more vertices each."""
    out = ff.out
    ties = []
    seen: set[str] = set()
    for start in t.vertices:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _l in t.adjacency[v]:
                if w not in component and flow_class(ff.flow(v, w)) == NEUTRAL:
                    component.add(w)
                    stack.append(w)
        seen.update(component)
        if len(component) < 2:
            continue
        boundary = sorted(x for x in component if x in out and times[x] == time)
        if len(boundary) >= 2:
            ties.append(tuple(boundary))
    return tuple(ties)
