"""Seeded ``decide`` ladder and CLI rung: stage times and denominator sizes.

Each rung is a random tree with a given number of internal vertices and
two disjoint point-mass supports of a given size (atoms a side), built
from one fixed seed.  ``decide`` is run stage by stage (parse, that is
``MetricTree(...)`` from the raw vertex, edge and end lists; validate
and root; flows; solve with the moment; lift; verify) and also end to
end on a tree built outside the clock, ``--repeats`` times; the median
of each time is kept.  ``validate_root_s`` walks the tree once from
the base and sums no depth: the rooted index computes each exact depth
the first time it is read, so a depth is paid in the stage that first
reads it.  ``lift_s`` only builds the atoms (two ends, a
mass and an offset each); every read of an atom's path from the tree,
with the default sample times, falls in ``verify_s``.  The
row also records the largest denominator bit-length among the flows,
the coupling, the value, the moment and the speed checks.

The CLI rung times ``wassertree d0``, ``wassertree flows`` and
``wassertree validate`` (which checks both measures' totals) end to end
on the 200-level spine ``tests/golden/inputs/deep_spine_200.json``: each
run is a fresh interpreter (start-up, import, parse, compute, render and
write to a file), ``--repeats`` times.  The median is kept as
``<command>_s``, and every run's time, in run order, as
``<command>_runs_s``, so a row shows its own spread.  The SHA-256 of each
output lets rows of two source trees be checked for identical bytes.
The row records ``sys.flags.dont_write_bytecode``, which the children
inherit: where it is set, every run compiles the package from source,
so such rows are not comparable with rows where it is not.  Each
command is also timed with cached bytecode (``<command>_cached_s``
and ``<command>_cached_runs_s``):
the children then run without ``PYTHONDONTWRITEBYTECODE`` and with
``PYTHONPYCACHEPREFIX`` set to a temporary directory, which one
untimed run fills first.  The cached runs must write the same bytes.

    python3 tools/ladder.py --label change --out BENCH_8.json
    python3 tools/ladder.py --src ../parent/src --label parent --out BENCH_8.json
    python3 tools/ladder.py --rungs 50/10 --repeats 1 --label smoke --out ladder.json

The library is imported from ``--src`` (default: ``src`` beside this
directory).  ``--out`` keeps the rows of other labels already in the
file and replaces a row with the same label.  Times are wall seconds
on the machine that runs the script; nothing scales them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

SCHEMA = "wassertree-ladder/1"
ROOT = Path(__file__).resolve().parent.parent
CLI_INPUT = "tests/golden/inputs/deep_spine_200.json"
CLI_COMMANDS = ("d0", "flows", "validate")
RUNGS = ("50/10", "200/40", "500/100", "2000/400")
SEED = 7
STAGES = ("parse_s", "validate_root_s", "flows_s", "solve_s", "lift_s", "verify_s")


def instance(vertices: int, atoms: int, seed: int):
    """Raw tree data and two disjoint measures of ``atoms`` ends each.

    The backbone attaches vertex i to a uniform earlier vertex with a
    random rational length; every vertex is padded with ends up to
    degree 3, and extra ends go to random vertices until there are
    ``2 * atoms`` of them.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(vertices)]
    edges = []
    degree = dict.fromkeys(names, 0)
    for i in range(1, vertices):
        parent = names[rng.randrange(i)]
        edges.append((parent, names[i], Fraction(rng.randint(1, 8), rng.randint(1, 4))))
        degree[parent] += 1
        degree[names[i]] += 1
    ends = []
    for v in names:
        for _ in range(max(0, 3 - degree[v])):
            ends.append((f"e{len(ends)}", v))
    while len(ends) < 2 * atoms:
        ends.append((f"e{len(ends)}", rng.choice(names)))
    base = rng.choice(names)
    chosen = rng.sample([e for e, _ in ends], 2 * atoms)

    def masses(support):
        weights = [rng.randint(1, 9) for _ in support]
        total = sum(weights)
        return {e: Fraction(w, total) for e, w in zip(support, weights)}

    return (names, edges, ends, base), masses(chosen[:atoms]), masses(chosen[atoms:])


def _den_bits(values) -> int:
    return max((Fraction(x).denominator.bit_length() for x in values), default=0)


def run_rung(wt, vertices: int, atoms: int, seed: int, repeats: int) -> dict:
    raw, minus_atoms, plus_atoms = instance(vertices, atoms, seed)
    minus, plus = wt.BoundaryMeasure(minus_atoms), wt.BoundaryMeasure(plus_atoms)
    samples = {name: [] for name in (*STAGES, "decide_s")}
    for _ in range(repeats):
        clock = perf_counter()
        t = wt.MetricTree(*raw)
        stamps = [clock, perf_counter()]
        t.require_valid()
        t._root()
        stamps.append(perf_counter())
        ff = wt.compute_flow_field(t, minus, plus)
        stamps.append(perf_counter())
        coupling, value = wt.solve_optimal_coupling(ff)
        moment = wt.specific_flow_second_moment(t, ff)
        stamps.append(perf_counter())
        plan = wt.lift(coupling, t)
        stamps.append(perf_counter())
        report = wt.verify_geodesic(plan, ff)
        stamps.append(perf_counter())
        for name, start, end in zip(STAGES, stamps, stamps[1:]):
            samples[name].append(end - start)

        fresh = wt.MetricTree(*raw)
        clock = perf_counter()
        decided = wt.decide(fresh, minus, plus)
        samples["decide_s"].append(perf_counter() - clock)

    checks = [x for check in report.speed_checks for x in check[:4]]
    bits = _den_bits(
        [
            *ff.below.values(),
            *minus.atoms.values(),
            *plus.atoms.values(),
            *ff.out.values(),
            *ff.specific.values(),
            *coupling.atoms.values(),
            value,
            moment,
            *checks,
        ]
    )
    medians = {name: statistics.median(times) for name, times in samples.items()}
    return {
        "vertices": vertices,
        "atoms": atoms,
        "seed": seed,
        "ends": len(raw[2]),
        "plan_atoms": len(plan.atoms),
        "stages": {name: round(medians[name], 6) for name in STAGES},
        "stages_total_s": round(sum(medians[name] for name in STAGES), 6),
        "decide_s": round(medians["decide_s"], 6),
        "max_den_bits": bits,
        "passed": bool(
            report.passed
            and value == -moment
            and decided.geodesic.passed
            and decided.coupling == coupling
        ),
    }


def _timed_runs(argv, env, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        clock = perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(round(perf_counter() - clock, 6))
    return times


def run_cli_rung(src: str, repeats: int) -> dict:
    """End-to-end wall time of each CLI subcommand on the 200-level spine."""
    env = {**os.environ, "PYTHONPATH": src}
    rung = {"input": CLI_INPUT, "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}
    with tempfile.TemporaryDirectory() as tmp:
        cached_env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        cached_env["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
        out = Path(tmp) / "out.json"
        for i, command in enumerate(CLI_COMMANDS):
            argv = [sys.executable, "-m", "wassertree.cli", command]
            argv += ["--input", str(ROOT / CLI_INPUT), "--output", str(out)]
            runs = rung[f"{command}_runs_s"] = _timed_runs(argv, env, repeats)
            rung[f"{command}_s"] = statistics.median(runs)
            digest = rung[f"{command}_sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
            if i == 0:
                subprocess.run(argv, env=cached_env, check=True)
            runs = rung[f"{command}_cached_runs_s"] = _timed_runs(argv, cached_env, repeats)
            rung[f"{command}_cached_s"] = statistics.median(runs)
            if hashlib.sha256(out.read_bytes()).hexdigest() != digest:
                raise RuntimeError(f"{command} wrote other bytes with cached bytecode")
    return rung


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rungs", default=",".join(RUNGS), help="vertices/atoms, comma separated")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    sys.path.insert(0, args.src)
    import wassertree as wt

    rungs = []
    for spec in args.rungs.split(","):
        vertices, atoms = (int(x) for x in spec.split("/"))
        rung = run_rung(wt, vertices, atoms, SEED, args.repeats)
        print(json.dumps(rung), flush=True)
        rungs.append(rung)
    cli = run_cli_rung(args.src, args.repeats)
    print(json.dumps(cli), flush=True)

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {"schema": SCHEMA, "rows": []}
    row = {
        "label": args.label,
        "python": platform.python_version(),
        "repeats": args.repeats,
        "rungs": rungs,
        "cli": cli,
    }
    data["rows"] = [r for r in data["rows"] if r["label"] != args.label] + [row]
    out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
