"""Deciding and constructing complete Wasserstein geodesics between ends.

On a finite instance two boundary measures are the two ends of a
complete unit geodesic exactly when they are antipodal, and the
geodesic is built explicitly: solve the boundary transport problem,
lift the optimal coupling with canonical (zero) offsets, and verify the
construction.  The decision report carries the optimal value and the
specific-flow second moment, which are the two finiteness functionals
that decide realizability for infinite families.

Infinite families are probed by truncation: a family spec generates a
growing spine of vertices with paired ends and summable masses, each
truncation is renormalized and analyzed, and the trend of the
per-level values is classified.  The verdict is about the computed
prefix only, never a proof about the infinite object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, OversizeError, StructureError
from .flows import (
    BoundaryMeasure,
    FlowField,
    check_antipodal,
    compute_flow_field,
    specific_flow_second_moment,
)
from .dynamics import (
    DynamicalPlan,
    GeodesicReport,
    Snapshot,
    lift,
    snapshots,
    verify_geodesic,
)
from .rationals import parse_fraction
from .transport import Coupling, optimal_value, solve_optimal_coupling
from .tree import MetricTree

__all__ = [
    "RealizabilityReport",
    "FamilySpec",
    "FamilyVerdict",
    "decide",
    "realize",
    "family_analyze",
    "spine_truncation",
    "REALIZABLE",
    "NOT_ANTIPODAL",
]

REALIZABLE = "realizable"
NOT_ANTIPODAL = "not-antipodal"

CONVERGED = "converged-within-tolerance"
DIVERGING = "diverging-trend"
INCONCLUSIVE = "inconclusive"

# The deepest truncation family_analyze builds; a deeper request is
# refused before any rule is expanded.
MAX_LEVEL = 10_000


@dataclass(frozen=True)
class RealizabilityReport:
    antipodal: bool
    verdict: str
    lp_value: Optional[Fraction]
    flow_moment: Optional[Fraction]
    coupling: Optional[Coupling]
    plan: Optional[DynamicalPlan]
    flow_field: Optional[FlowField]
    geodesic: Optional[GeodesicReport]


def decide(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> RealizabilityReport:
    """Decide whether the pair of measures bounds a complete geodesic.

    Antipodality is necessary; on a finite instance it is also
    sufficient, and the witness construction (optimal coupling, its
    canonical lift, and the unit-speed verification) is returned.  One
    flow field feeds the coupling, the moment and the verification.

    After the tree is rooted, every stage reads only the atoms' paths
    and the charged vertices: the measures are checked against the
    tree once (by :func:`compute_flow_field`, or here when the supports
    meet), and no stage fills a map over every edge, end or vertex.
    Only the greedy and the verifier walk an atom's path; the verifier
    picks the sample times (:func:`verify_geodesic` takes others).
    """
    t.require_valid()
    if minus.support & plus.support:
        check_antipodal(t, minus, plus)  # refuses ends the tree lacks
        return RealizabilityReport(
            antipodal=False,
            verdict=NOT_ANTIPODAL,
            lp_value=None,
            flow_moment=None,
            coupling=None,
            plan=None,
            flow_field=None,
            geodesic=None,
        )
    ff = compute_flow_field(t, minus, plus)
    coupling, value = solve_optimal_coupling(ff)
    moment = specific_flow_second_moment(t, ff)
    plan = lift(coupling, t)
    report = verify_geodesic(plan, ff)
    return RealizabilityReport(
        antipodal=True,
        verdict=REALIZABLE,
        lp_value=value,
        flow_moment=moment,
        coupling=coupling,
        plan=plan,
        flow_field=ff,
        geodesic=report,
    )


def realize(
    t: MetricTree,
    minus: BoundaryMeasure,
    plus: BoundaryMeasure,
    times: Sequence[Fraction] = (),
) -> tuple[Coupling, DynamicalPlan, list[Snapshot]]:
    """Build the geodesic and snapshot it at the requested times."""
    report = decide(t, minus, plus)
    if report.verdict != REALIZABLE:
        raise DomainError("measures are not antipodal; no geodesic exists")
    return report.coupling, report.plan, snapshots(report.plan, times, t)


# -- truncated families ------------------------------------------------------


def _require_key(data: dict, key: str, what: str):
    if key not in data:
        raise StructureError(f"family {what} is missing key {key!r}")
    return data[key]


def _rule_values(rule: dict, count: int, what: str) -> list[Fraction]:
    kind = rule.get("kind")
    if kind == "constant":
        value = parse_fraction(_require_key(rule, "value", f"{what} rule"))
        return [value] * count
    if kind == "geometric":
        ratio = parse_fraction(_require_key(rule, "ratio", f"{what} rule"))
        scale = parse_fraction(rule.get("scale", 1))
        out = []
        current = ratio
        for _ in range(count):
            out.append(scale * current)
            current *= ratio
        return out
    if kind == "explicit":
        raw = _require_key(rule, "values", f"{what} rule")
        if not isinstance(raw, list):
            raise StructureError(f"family {what} rule key 'values' must be a list")
        values = [parse_fraction(v) for v in raw]
        if len(values) < count:
            raise StructureError(
                f"family {what} list has {len(values)} entries, level {count} requested"
            )
        return values[:count]
    raise StructureError(f"unknown {what} rule kind {kind!r}")


@dataclass(frozen=True)
class FamilySpec:
    """Spine family: level k adds a spine edge of length L_k, a source
    end S_k at the previous spine vertex carrying mass p_k, and a target
    end T_k at the new vertex carrying the same mass.

    Truncating at level K keeps levels 1..K and renormalizes both
    measures by the same factor, so antipodality and every flow sign
    survive truncation.
    """

    kind: str
    masses: dict
    lengths: dict

    @staticmethod
    def from_json(data: dict) -> "FamilySpec":
        kind = data.get("kind")
        if kind not in ("spine", "custom"):
            raise StructureError(f"unknown family kind {kind!r}")
        masses = _require_key(data, "masses", "spec")
        lengths = _require_key(data, "lengths", "spec")
        if kind == "spine":
            if not isinstance(masses, dict) or not isinstance(lengths, dict):
                raise StructureError("spine family masses and lengths must be rule objects")
            return FamilySpec(kind="spine", masses=dict(masses), lengths=dict(lengths))
        if not isinstance(masses, list) or not isinstance(lengths, list):
            raise StructureError("custom family masses and lengths must be lists")
        return FamilySpec(
            kind="spine",
            masses={"kind": "explicit", "values": list(masses)},
            lengths={"kind": "explicit", "values": list(lengths)},
        )

    def level_data(self, level: int) -> tuple[list[Fraction], list[Fraction]]:
        masses = _rule_values(self.masses, level, "masses")
        lengths = _rule_values(self.lengths, level, "lengths")
        if any(m < 0 for m in masses):
            raise StructureError("family masses must be nonnegative")
        if any(l <= 0 for l in lengths):
            raise StructureError("family lengths must be positive")
        return masses, lengths

    def truncation(self, level: int):
        return spine_truncation(*self.level_data(level))


def spine_truncation(
    masses: Sequence[Fraction], lengths: Sequence[Fraction]
) -> tuple[MetricTree, BoundaryMeasure, BoundaryMeasure]:
    """Canonical finite instance for the first K levels of a spine family.

    Level k hangs S_k on u{k-1} and T_k on u{k}, joined by an edge of length
    L_k.  There u_K has degree 2, so its edge merges into T_K's infinite ray:
    the tree has u0..u{K-1}, the edges of levels 1..K-1 and T_k on
    u{min(k, K-1)}.  L_K never enters level K, yet it is read and must be positive.
    """
    K = len(masses)
    if K != len(lengths):
        raise StructureError("masses and lengths must have the same level count")
    if K < 1:
        raise StructureError("need at least one level")
    masses = [parse_fraction(x) for x in masses]
    total = sum(masses, Fraction(0))
    if total <= 0:
        raise StructureError("truncation carries no mass; cannot renormalize")
    lengths = [parse_fraction(x) for x in lengths]
    for k, length in enumerate(lengths, 1):
        if length <= 0:
            raise StructureError(f"level {k} has non-positive length {length}")
    vertices = [f"u{k}" for k in range(K)]
    edges = [(vertices[k - 1], vertices[k], lengths[k - 1]) for k in range(1, K)]
    ends = [(f"S{k}", vertices[k - 1]) for k in range(1, K + 1)]
    ends += [(f"T{k}", vertices[min(k, K - 1)]) for k in range(1, K + 1)]
    tree = MetricTree(vertices=vertices, edges=edges, ends=ends, base="u0")
    minus = BoundaryMeasure({f"S{k}": masses[k - 1] / total for k in range(1, K + 1) if masses[k - 1] > 0})
    plus = BoundaryMeasure({f"T{k}": masses[k - 1] / total for k in range(1, K + 1) if masses[k - 1] > 0})
    return tree, minus, plus


@dataclass(frozen=True)
class FamilyVerdict:
    levels: tuple[int, ...]
    moment_sums: tuple[Fraction, ...]
    lp_values: tuple[Fraction, ...]
    increments: tuple[Fraction, ...]
    classification: str
    tolerance: Fraction
    max_level: int
    converged_at: Optional[int]


def family_analyze(spec: FamilySpec, max_level: int, tolerance) -> FamilyVerdict:
    """Analyze truncations up to ``max_level`` and classify the trend.

    Classification: converged-within-tolerance when the last two
    moment-sum increments are below tolerance and non-increasing;
    diverging-trend when increments never decrease and the final sum
    exceeds ten times the level-3 sum; inconclusive otherwise.  The
    verdict is about the computed prefix only.  A ``max_level`` above
    :data:`MAX_LEVEL` is an :class:`OversizeError`.
    """
    tolerance = parse_fraction(tolerance)
    if max_level < 3:
        raise DomainError("max_level must be at least 3")
    if max_level > MAX_LEVEL:
        raise OversizeError(f"max_level is above the family level cap of {MAX_LEVEL}")
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")

    levels = list(range(1, max_level + 1))
    moment_sums: list[Fraction] = []
    lp_values: list[Fraction] = []
    for level in levels:
        try:
            tree, minus, plus = spec.truncation(level)
        except StructureError as exc:
            raise StructureError(f"level {level}: {exc}") from exc
        ff = compute_flow_field(tree, minus, plus)
        moment_sums.append(specific_flow_second_moment(tree, ff))
        # Only the optimal value is reported per level: the closed form
        # needs neither a cost matrix nor a coupling.
        lp_values.append(optimal_value(tree, minus, plus))

    increments = [moment_sums[0]]
    for i in range(1, len(moment_sums)):
        increments.append(moment_sums[i] - moment_sums[i - 1])

    converged_at = None
    for i in range(1, len(levels)):
        if (
            increments[i - 1] < tolerance
            and increments[i] < tolerance
            and increments[i] <= increments[i - 1]
        ):
            converged_at = levels[i]
            break

    last_two_small = (
        increments[-1] < tolerance
        and increments[-2] < tolerance
        and increments[-1] <= increments[-2]
    )
    nondecreasing = all(
        increments[i] >= increments[i - 1] for i in range(1, len(increments))
    )
    level3_sum = moment_sums[2]
    if last_two_small:
        classification = CONVERGED
    elif nondecreasing and moment_sums[-1] > 10 * level3_sum:
        classification = DIVERGING
    else:
        classification = INCONCLUSIVE

    return FamilyVerdict(
        levels=tuple(levels),
        moment_sums=tuple(moment_sums),
        lp_values=tuple(lp_values),
        increments=tuple(increments),
        classification=classification,
        tolerance=tolerance,
        max_level=max_level,
        converged_at=converged_at,
    )
