"""The unit-speed certificate read from a time function over the tree.

:func:`verify_geodesic` builds the piecewise-isometric time function of
the flow field on every vertex (``build_time_function``), places each
atom at every sample time (``PlanAtom.position``) and reads tau there
(``TimeFunction.at_point``).  It is the route that
``dynamics.verify_geodesic`` replaced by integrating each atom's slopes
along its own path, kept to be compared with it by exact equality.
"""

from __future__ import annotations

from fractions import Fraction

from wassertree.dynamics import GeodesicReport, _require_marginals
from wassertree.errors import DomainError
from wassertree.theory import build_time_function

from .antagonism import antagonist_pairs
from .rooted import vertex_path


def verify_geodesic(plan, ff, sample_times) -> GeodesicReport:
    """The report ``dynamics.verify_geodesic`` gives, by the tau route."""
    times = sorted({Fraction(x) for x in sample_times})
    if len(times) < 2:
        raise DomainError("need at least two distinct sample times")
    t = ff.tree
    _require_marginals(plan, ff)
    pairs = antagonist_pairs(plan, t)

    tau_failures = []
    for idx, a in enumerate(plan.atoms):
        chain = vertex_path(t, t.attach(a.source), t.attach(a.target))
        for (tail, head) in zip(chain, chain[1:]):
            if ff.flow(tail, head) <= 0:
                tau_failures.append((idx, ("edge", (tail, head))))
        if ff.flow_to_end(a.source) >= 0:
            tau_failures.append((idx, ("ray", a.source)))
        if ff.flow_to_end(a.target) <= 0:
            tau_failures.append((idx, ("ray", a.target)))

    tf = build_time_function(t, ff)
    mean_tau = {
        r: sum((a.mass * tf.at_point(t, a.position(r, t)) for a in plan.atoms), Fraction(0))
        for r in times
    }
    speed_checks = []
    for i, r in enumerate(times):
        for s in times[i + 1 :]:
            value = (mean_tau[s] - mean_tau[r]) ** 2
            expected = (s - r) ** 2
            speed_checks.append((r, s, value, expected, value == expected))

    return GeodesicReport(
        antagonism_free=not pairs,
        antagonists=tuple(pairs),
        tau_isometric=not tau_failures,
        tau_failures=tuple(tau_failures),
        speed_checks=tuple(speed_checks),
        speed_ok=all(ok for *_, ok in speed_checks),
    )
