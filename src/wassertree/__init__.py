"""Exact transport between boundary measures of a metric tree.

The package decides when two finitely supported probability measures on
the ends of a metric tree are the two ends of a complete unit-speed
geodesic in the quadratic Wasserstein space over the tree, and builds
that geodesic explicitly: edge flows, the Gromov-product transport
problem solved from those flows in exact rational arithmetic, canonical
lifts, and a certificate of unit speed.

The paper's further statements about plans and flows (flow bounds, the
time function, level snapshots, uncrossing, the point metric) are
checkable functions of :mod:`wassertree.theory`, which the decision
path does not import; import them from there.

Everything is computed over `fractions.Fraction`; no floating point
enters any decision.
"""

from .errors import (
    DomainError,
    OversizeError,
    ParseError,
    StructureError,
    WassertreeError,
)
from .rationals import INFINITY, format_fraction, parse_fraction
from .tree import (
    MetricTree,
    TreePoint,
    ValidationReport,
    canonicalize,
    gromov_product,
    validate_tree,
)
from .flows import (
    BoundaryMeasure,
    FlowField,
    check_antipodal,
    compute_flow_field,
    specific_flow_second_moment,
)
from .transport import (
    Coupling,
    MonotonicityResult,
    is_cyclically_monotone,
    optimal_value,
    solve_optimal_coupling,
)
from .dynamics import (
    DynamicalPlan,
    GeodesicReport,
    PlanAtom,
    Snapshot,
    antagonist_pairs,
    lift,
    snapshot,
    snapshots,
    verify_geodesic,
)
from .realizability import (
    FamilySpec,
    FamilyVerdict,
    RealizabilityReport,
    decide,
    family_analyze,
    realize,
    spine_truncation,
)

__version__ = "0.1.0"

__all__ = [
    "WassertreeError",
    "StructureError",
    "DomainError",
    "OversizeError",
    "ParseError",
    "INFINITY",
    "parse_fraction",
    "format_fraction",
    "MetricTree",
    "TreePoint",
    "ValidationReport",
    "validate_tree",
    "canonicalize",
    "gromov_product",
    "BoundaryMeasure",
    "FlowField",
    "check_antipodal",
    "compute_flow_field",
    "specific_flow_second_moment",
    "Coupling",
    "MonotonicityResult",
    "solve_optimal_coupling",
    "optimal_value",
    "is_cyclically_monotone",
    "PlanAtom",
    "DynamicalPlan",
    "Snapshot",
    "GeodesicReport",
    "lift",
    "antagonist_pairs",
    "snapshot",
    "snapshots",
    "verify_geodesic",
    "RealizabilityReport",
    "FamilySpec",
    "FamilyVerdict",
    "decide",
    "realize",
    "family_analyze",
    "spine_truncation",
]
