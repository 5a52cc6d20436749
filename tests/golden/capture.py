"""Capture byte-exact CLI goldens: stdout and exit code of every case.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/capture.py

The corpus is ``samples/`` plus seeded instances built with
``tests/gen.py``, stored under ``tests/golden/inputs/``.  Every
subcommand runs on every input (including the ones that must fail, so
the exit-code contract is pinned as well), and one file per input under
``tests/golden/expected/`` records the cases.  A few deep cases run only
the subcommands named in ``deep_cases()``: ``flows`` on a 200-level
spine, ``solve`` and ``realize`` on two 400-vertex trees, and
``family --max-level 60`` on both spine samples; each gets its own
``deep_*`` record.  ``tests/test_golden.py``
replays them.  Re-capturing is a deliberate golden update: review the
diff and record it in CHANGES.md.

Every record is captured from the stored input file.  A generated
input is written only when its file is missing; the seeded streams are
still drawn in order, since each draw depends on the ones before it,
and a draw whose file exists is dropped.  The stored ``gen_*`` inputs
were drawn while ``tests/gen.py`` shuffled coupling supports in
frozenset order, which followed the hash seed; it now shuffles them
sorted, so a deleted ``gen_*`` input may come back with a different
coupling (20 of the 50 would).  Every other input comes back byte for
byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

from gen import random_coupling, random_measures, random_tree  # noqa: E402

from wassertree import cli, serialize  # noqa: E402
from wassertree.realizability import spine_truncation  # noqa: E402

SEED = 20261017
GEN_COUNT = 50
TIMES = "--times=-2,-1/2,0,1,3"

INSTANCE_ARGS = [
    ["validate"],
    ["flows"],
    ["d0"],
    ["solve"],
    ["solve", "--decimal", "6"],
    ["check-monotone"],
    ["realize"],
    ["realize", TIMES],
]
FAMILY_ARGS = [
    ["family"],
    ["family", "--max-level", "14", "--decimal", "8"],
]
ALL_ARGS = INSTANCE_ARGS + FAMILY_ARGS


def run(command: str, path: Path, extra: list) -> tuple[int, str]:
    """Run one CLI case in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--input", str(path), *extra])
    return code, out.getvalue()


def instance_json(t, minus, plus, coupling) -> dict:
    return {
        **serialize.tree_to_json(t),
        "measures": serialize.measures_to_json(minus, plus),
        "coupling": serialize.coupling_to_json(coupling),
    }


def generated_instances() -> list[tuple[str, dict]]:
    """Seeded instances; every tenth one has overlapping supports."""
    rng = random.Random(SEED)
    out = []
    while len(out) < GEN_COUNT:
        idx = len(out)
        t = random_tree(rng, max_internal=rng.choice((3, 6, 10, 16)), extra_ends=4)
        minus, plus = random_measures(rng, t, max_side=6)
        coupling = random_coupling(rng, minus, plus)
        data = instance_json(t, minus, plus, coupling)
        if idx % 10 == 9:
            shared = sorted(minus.support)[0]
            data["measures"]["plus"] = {shared: "1"}
            data["coupling"] = {"atoms": [{"from": shared, "to": shared, "mass": "1"}]}
        out.append((f"gen_{idx:02d}", data))
    return out


def generated_families() -> list[tuple[str, dict]]:
    """Explicit spine families, one of them with a zero-mass level."""
    rng = random.Random(SEED + 1)
    out = []
    for idx in range(3):
        levels = 16
        masses = [str(Fraction(rng.randint(1, 9), rng.randint(1, 5))) for _ in range(levels)]
        lengths = [str(Fraction(rng.randint(1, 8), rng.randint(1, 4))) for _ in range(levels)]
        if idx == 2:
            masses[5] = "0"
        out.append(
            (f"family_{idx}", {"kind": "custom", "masses": masses, "lengths": lengths, "max_level": 12})
        )
    return out


DEEP_SPINE_LEVELS = 200
DEEP_TREE_VERTICES = 400
DEEP_FAMILY_LEVEL = "60"


def deep_instances() -> list[tuple[str, dict]]:
    """A harmonic 200-level spine and two seeded 400-vertex trees."""
    levels = range(1, DEEP_SPINE_LEVELS + 1)
    masses = [Fraction(1, k) for k in levels]
    lengths = [Fraction(k % 3 + 1, 2) for k in levels]
    instances = [("deep_spine_200", spine_truncation(masses, lengths))]
    rng = random.Random(SEED + 2)
    for idx in range(2):
        n = DEEP_TREE_VERTICES
        t = random_tree(rng, max_internal=n, extra_ends=40, min_internal=n)
        instances.append((f"deep_tree_{idx}", (t, *random_measures(rng, t, max_side=30))))
    return [
        (name, {**serialize.tree_to_json(t), "measures": serialize.measures_to_json(minus, plus)})
        for name, (t, minus, plus) in instances
    ]


def deep_cases() -> list[tuple[str, Path, list]]:
    """(record name, input, argument lists) of the deep cases."""
    inputs = HERE / "inputs"
    family = [["family", "--max-level", DEEP_FAMILY_LEVEL]]
    return [
        ("deep_spine_200", inputs / "deep_spine_200.json", [["flows"]]),
        ("deep_tree_0", inputs / "deep_tree_0.json", [["solve"], ["realize"]]),
        ("deep_tree_1", inputs / "deep_tree_1.json", [["solve"], ["realize"]]),
        ("deep_family_spine_constant", ROOT / "samples" / "spine_constant.json", family),
        ("deep_family_spine_geometric", ROOT / "samples" / "spine_geometric.json", family),
    ]


def corpus() -> list[tuple[str, Path, list]]:
    """(record name, input, argument lists) of every golden case."""
    paths = sorted((ROOT / "samples").glob("*.json")) + sorted(
        p for p in (HERE / "inputs").glob("*.json") if not p.stem.startswith("deep_")
    )
    return [(p.stem, p, ALL_ARGS) for p in paths] + deep_cases()


def main() -> int:
    inputs_dir = HERE / "inputs"
    expected_dir = HERE / "expected"
    inputs_dir.mkdir(exist_ok=True)
    expected_dir.mkdir(exist_ok=True)
    for name, data in generated_instances() + generated_families() + deep_instances():
        path = inputs_dir / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for name, path, arg_lists in corpus():
        cases = []
        for args in arg_lists:
            code, stdout = run(args[0], path, args[1:])
            cases.append({"args": args, "exit": code, "stdout": stdout})
        record = {"input": path.relative_to(ROOT).as_posix(), "cases": cases}
        (expected_dir / f"{name}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(name, [case["exit"] for case in cases])
    return 0


if __name__ == "__main__":
    sys.exit(main())
