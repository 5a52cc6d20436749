"""Exact transport between boundary measures of a metric tree.

The package decides when two finitely supported probability measures on
the ends of a metric tree are the two ends of a complete unit-speed
geodesic in the quadratic Wasserstein space over the tree, and builds
that geodesic explicitly: edge flows, the Gromov-product transport
problem solved from those flows in exact rational arithmetic,
uncrossing, canonical lifts, and a certificate of unit speed.

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
    GeodesicPath,
    MetricTree,
    TreePoint,
    ValidationReport,
    canonicalize,
    dist,
    future_ends,
    gromov_product,
    path_between_ends,
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
    uncross,
)
from .dynamics import (
    DynamicalPlan,
    FlowBoundsReport,
    GeodesicReport,
    LevelSnapshot,
    PlanAtom,
    Snapshot,
    TimeFunction,
    align_offsets_to_time_function,
    antagonist_pairs,
    build_time_function,
    check_flow_bounds,
    flow_level_snapshot,
    lift,
    plan_coupling,
    plan_edge_and_vertex_masses,
    plan_marginals,
    reverse_plan,
    second_moment,
    snapshot,
    verify_geodesic,
    with_offsets,
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
    "GeodesicPath",
    "ValidationReport",
    "validate_tree",
    "canonicalize",
    "path_between_ends",
    "gromov_product",
    "dist",
    "future_ends",
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
    "uncross",
    "PlanAtom",
    "DynamicalPlan",
    "TimeFunction",
    "Snapshot",
    "LevelSnapshot",
    "FlowBoundsReport",
    "GeodesicReport",
    "lift",
    "plan_coupling",
    "plan_marginals",
    "antagonist_pairs",
    "plan_edge_and_vertex_masses",
    "check_flow_bounds",
    "build_time_function",
    "snapshot",
    "second_moment",
    "flow_level_snapshot",
    "verify_geodesic",
    "align_offsets_to_time_function",
    "reverse_plan",
    "with_offsets",
    "RealizabilityReport",
    "FamilySpec",
    "FamilyVerdict",
    "decide",
    "realize",
    "family_analyze",
    "spine_truncation",
]
