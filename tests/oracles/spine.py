"""The spine truncation that the direct canonical construction replaced.

:func:`spine_truncation` builds the raw spine of K levels (vertices
u0..uK, the edge of level k joining u{k-1} to u{k}, S_k on u{k-1} and
T_k on u{k}) and hands it to :func:`~wassertree.tree.canonicalize`,
which checks it and merges the degree-2 vertex u_K into T_K's ray.  It
is kept to be compared with
:func:`wassertree.realizability.spine_truncation` field by field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from wassertree.errors import StructureError
from wassertree.flows import BoundaryMeasure
from wassertree.tree import MetricTree, canonicalize


def spine_truncation(masses: Sequence[Fraction], lengths: Sequence[Fraction]):
    K = len(masses)
    if K != len(lengths):
        raise StructureError("masses and lengths must have the same level count")
    if K < 1:
        raise StructureError("need at least one level")
    total = sum(masses, Fraction(0))
    if total <= 0:
        raise StructureError("truncation carries no mass; cannot renormalize")
    vertices = [f"u{k}" for k in range(K + 1)]
    edges = [(f"u{k - 1}", f"u{k}", lengths[k - 1]) for k in range(1, K + 1)]
    ends = []
    for k in range(1, K + 1):
        ends.append((f"S{k}", f"u{k - 1}"))
        ends.append((f"T{k}", f"u{k}"))
    raw = MetricTree(vertices=vertices, edges=edges, ends=ends, base="u0")
    tree = canonicalize(raw)
    minus = BoundaryMeasure({f"S{k}": masses[k - 1] / total for k in range(1, K + 1) if masses[k - 1] > 0})
    plus = BoundaryMeasure({f"T{k}": masses[k - 1] / total for k in range(1, K + 1) if masses[k - 1] > 0})
    return tree, minus, plus
