"""The all-pairs antagonism loop that the step index replaced.

:func:`antagonist_pairs` compares every pair of atoms: the oriented
edges one atom's path shares reversed with the other's, and failing
that the two ray cases, which no plan over antipodal measures has.  It
costs time quadratic in the atoms and exists only to be compared by
exact equality with the antagonists ``dynamics.verify_geodesic``
reports.
"""

from __future__ import annotations

from .rooted import vertex_path


def antagonist_pairs(plan, t):
    """All atom pairs traversing some edge in opposite orientations.

    Returns ``(i, j, witness)`` for ``i < j`` in increasing order; the
    witness is ``("edge", e)`` for the smallest shared edge ``e`` in
    canonical orientation, else ``("ray", end)`` for atom i's source
    when it is atom j's target, else for atom i's target when it is
    atom j's source.
    """
    chains = [vertex_path(t, t.attach(a.source), t.attach(a.target)) for a in plan.atoms]
    oriented = [frozenset(zip(chain, chain[1:])) for chain in chains]
    results = []
    for i in range(len(plan.atoms)):
        for j in range(i + 1, len(plan.atoms)):
            ai, aj = plan.atoms[i], plan.atoms[j]
            shared = sorted(
                (min(u, v), max(u, v)) for (u, v) in oriented[i] if (v, u) in oriented[j]
            )
            if shared:
                results.append((i, j, ("edge", shared[0])))
            elif ai.source == aj.target:
                results.append((i, j, ("ray", ai.source)))
            elif ai.target == aj.source:
                results.append((i, j, ("ray", ai.target)))
    return results
