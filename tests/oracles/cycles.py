"""The permutation enumerator that the antagonism scan replaced.

:func:`is_cyclically_monotone` enumerates cycles of support atoms and
compares the diagonal cost sum with the shifted one.  It reads costs
from a table only (a :class:`CostMatrix` or a raw pair->cost mapping),
so it shares nothing with the tree and runs on snapshot couplings of
points as well as on end couplings.  It costs factorial time and exists
only to be compared with the library's scan by exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from wassertree.transport import Coupling, MonotonicityResult

from .costs import CostMatrix

# Exhaustive cycle checking is factorial; above this many support atoms
# only cycles up to PARTIAL_CYCLE_LENGTH are checked and the result is
# marked non-exhaustive.
CYCLE_SUPPORT_CAP = 8
PARTIAL_CYCLE_LENGTH = 4


def is_cyclically_monotone(pi, cost) -> MonotonicityResult:
    """Test cyclical monotonicity of a plan's support for a given cost.

    For every cycle of support atoms the diagonal cost sum must not
    exceed the shifted sum.  Cycles are enumerated exhaustively up to
    CYCLE_SUPPORT_CAP atoms; beyond that only cycles of length at most
    PARTIAL_CYCLE_LENGTH are checked and ``exhaustive`` is False.  On
    failure the witness is the violating cycle of atoms.

    Accepts a :class:`Coupling` or a raw pair->mass mapping, and a
    :class:`CostMatrix` or a raw pair->cost mapping, so the same test
    runs on end couplings and on snapshot couplings.
    """
    atoms = pi.atoms if isinstance(pi, Coupling) else dict(pi)
    lookup = cost.values if isinstance(cost, CostMatrix) else cost

    def label_key(pair):
        return tuple(
            x.sort_key() if hasattr(x, "sort_key") else x for x in pair
        )

    support = sorted(atoms, key=label_key)
    k = len(support)
    exhaustive = k <= CYCLE_SUPPORT_CAP
    max_len = k if exhaustive else PARTIAL_CYCLE_LENGTH

    for first_idx in range(k):
        first = support[first_idx]
        rest = support[first_idx + 1 :]
        for size in range(2, max_len + 1):
            for tail in permutations(rest, size - 1):
                cycle = (first,) + tail
                kept = sum(
                    (lookup[pair] for pair in cycle), Fraction(0)
                )
                shifted = Fraction(0)
                ok = True
                for idx, (a, _b) in enumerate(cycle):
                    b_next = cycle[(idx + 1) % size][1]
                    if (a, b_next) not in lookup:
                        ok = False
                        break
                    shifted += lookup[(a, b_next)]
                if ok and kept > shifted:
                    return MonotonicityResult(False, cycle, exhaustive)
    return MonotonicityResult(True, None, exhaustive)
