"""Cost tables and the value oracles that read them.

The library computes transport from edge flows and certifies unit speed
from two closed-form bounds, so it never tabulates a cost.  The tests
still need the tables, as a route that shares nothing with the tree:

* :func:`cost_matrix` tabulates minus the squared Gromov product over
  the two supports, and :func:`coupling_value` prices a coupling with
  it;
* :func:`brute_force_value` solves the end transport problem over that
  table by successive shortest paths (:mod:`oracles.lp`);
* :func:`snapshot_transport_value` solves the exact W2^2 between two
  snapshots of a plan by the transportation simplex, over squared tree
  distances between their points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from wassertree import BoundaryMeasure, Coupling, MetricTree, Snapshot, TreePoint
from wassertree.errors import DomainError, OversizeError
from wassertree.flows import check_antipodal
from wassertree.theory import dist
from wassertree.tree import gromov_product

from .lp import min_cost_transport_value, solve_transportation

# The shortest-paths oracle exists to cross-check, not to scale.
ORACLE_SUPPORT_CAP = 7


@dataclass(frozen=True)
class CostMatrix:
    """Minus squared Gromov product on source-support x target-support."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: Mapping[tuple[str, str], Fraction]

    def cost(self, a: str, b: str) -> Fraction:
        return self.values[(a, b)]


def cost_matrix(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> CostMatrix:
    """Build the cost table over the two supports."""
    if not check_antipodal(t, minus, plus):
        raise DomainError("measures are not antipodal (supports intersect)")
    rows = tuple(sorted(minus.support))
    cols = tuple(sorted(plus.support))
    values = {}
    for a in rows:
        for b in cols:
            g = gromov_product(t, a, b)
            values[(a, b)] = -g * g
    return CostMatrix(rows=rows, cols=cols, values=values)


def coupling_value(pi: Coupling, cm: CostMatrix) -> Fraction:
    """The cost of a coupling read from the table."""
    return sum((cm.cost(a, b) * m for (a, b), m in pi.atoms.items()), Fraction(0))


def brute_force_value(
    cm: CostMatrix, minus: BoundaryMeasure, plus: BoundaryMeasure
) -> Fraction:
    """Independent exact optimum over the cost table.

    Computed by successive shortest augmenting paths, sharing nothing
    with the flow-capped greedy or the closed-form value.  Refuses
    supports larger than ORACLE_SUPPORT_CAP per side.
    """
    if len(minus.support) > ORACLE_SUPPORT_CAP or len(plus.support) > ORACLE_SUPPORT_CAP:
        raise OversizeError(
            f"oracle refuses supports larger than {ORACLE_SUPPORT_CAP} per side"
        )
    supplies = [minus.mass(a) for a in cm.rows]
    demands = [plus.mass(b) for b in cm.cols]
    costs = [[cm.cost(a, b) for b in cm.cols] for a in cm.rows]
    return min_cost_transport_value(costs, supplies, demands)


def snapshot_transport_value(t: MetricTree, a: Snapshot, b: Snapshot) -> Fraction:
    """Exact W2^2 between two snapshots by the transportation simplex."""
    rows = sorted(a.atoms, key=TreePoint.sort_key)
    cols = sorted(b.atoms, key=TreePoint.sort_key)
    costs = []
    for p in rows:
        row = []
        for q in cols:
            d = dist(t, p, q)
            row.append(d * d)
        costs.append(row)
    supplies = [a.atoms[p] for p in rows]
    demands = [b.atoms[q] for q in cols]
    _, value = solve_transportation(costs, supplies, demands)
    return value
