"""The well-formedness check that rebuilt every atom's geodesic.

:func:`require_well_formed` compares each atom's path with
:func:`~wassertree.tree.path_between_ends` of its two ends and reads the
arc lengths from ``t.edge_length``.  It is the route that
``dynamics._require_well_formed`` replaced with one walk along the path
against the rooted index, and exists only to be compared with it:
both must accept the same atoms and refuse the others with the same
message.
"""

from __future__ import annotations

from wassertree.errors import DomainError
from wassertree.tree import MetricTree, path_between_ends


def require_well_formed(plan, t: MetricTree) -> None:
    """Refuse an atom whose coords are not arc length along its ends' geodesic."""
    for a in plan.atoms:
        name = f"atom {a.source}->{a.target}"
        if a.path != path_between_ends(t, a.source, a.target):
            raise DomainError(f"{name} does not follow the geodesic between its ends")
        if len(a.coords) != len(a.path.vertices):
            raise DomainError(f"{name} has {len(a.coords)} coords for {len(a.path.vertices)} vertices")
        for (u, v), lo, hi in zip(a.path.edges, a.coords, a.coords[1:]):
            if hi - lo != t.edge_length[(u, v) if u <= v else (v, u)]:
                raise DomainError(f"{name}: coords are not arc length on edge {(u, v)}")
