"""The per-pair route that ``wassertree d0`` replaced.

Every pair of sorted ends gets its own Gromov product
(:func:`oracles.rooted.gromov`, a climb from both attach vertices to
their meet) and its own rendering, and the
report goes through ``json.dumps``.  Kept to be compared byte for byte
with the CLI's output.
"""

from __future__ import annotations

import json
from typing import Optional

from wassertree.rationals import decimal_string, format_fraction
from wassertree.serialize import load_instance

from .rooted import gromov


def d0_report(path: str, decimal: Optional[int] = None) -> str:
    """What ``wassertree d0 --input path [--decimal N]`` prints."""
    tree, _measures, _ = load_instance(path)
    tree.require_valid()
    pairs = []
    ends = sorted(tree.ends)
    for i, a in enumerate(ends):
        for b in ends[i + 1 :]:
            value = gromov(tree, a, b)
            entry = {"a": a, "b": b, "d0": format_fraction(value)}
            if decimal is not None:
                entry["d0_decimal"] = decimal_string(value, decimal)
            pairs.append(entry)
    return json.dumps({"pairs": pairs}, sort_keys=True, indent=2) + "\n"
