"""Seeded closed-loop benchmark of wassertree.

One process, one thread, one caller per workload: the next operation
starts when the previous one and its correctness check have finished.

    python3 bench/run.py --workload decide-wide --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a
fixed set of operations twice, untraced and then with every layer
wrapped (see ``tracer.py``), and reports per-layer self times, counts
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from anywhere; the library is imported from ``src/``
next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_SAMPLES = 150  # p90 needs 10 samples beyond it, and 150 keep it steady
MAX_MEASURE_SECONDS = 120.0
POOL_BLOCKS = {"decide-wide": 4, "family-spine": 10, "cli-deep": 3}
TRACE_BLOCKS = {"decide-wide": 1, "family-spine": 2, "cli-deep": 2}

END_TO_END = {
    "ops_per_s": "1/s",
    "p50_s": "s",
    "p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Functions whose self time is reported on its own: metric -> span key.
FUNCTION_METRICS = {
    "transport.cost_matrix_s": "transport.cost_matrix",
    "transport.solve_s": "transport.solve_optimal_coupling",
    "transport.monotone_s": "transport.is_cyclically_monotone",
    "dynamics.lift_s": "dynamics.lift",
    "dynamics.verify_s": "dynamics.verify_geodesic",
    "dynamics.snapshot_s": "dynamics.snapshot",
}
COUNT_METRICS = (
    "tree.gromov_calls",
    "lp.calls",
    "lp.cells",
    "dynamics.speed_checks",
    "rationals.max_den_bits",
)


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    times = [f"{layer}.self_s" for layer in tracer.LAYERS] + ["bench.self_s"]
    times += list(FUNCTION_METRICS) + ["serialize.parse_s", "serialize.emit_s"]
    names = []
    for name in times:
        names.append((name, "s"))
        names.append((name[: -len("_s")] + "_share", "ratio"))
    names += [(name, "count") for name in COUNT_METRICS]
    names.append(("trace.overhead", "ratio"))
    return names


def import_library():
    """Import wassertree from src/ afresh; refuse any other copy."""
    for name in [n for n in sys.modules if n == "wassertree" or n.startswith("wassertree.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wt = importlib.import_module("wassertree")
    importlib.import_module("wassertree.cli")
    if Path(wt.__file__).resolve().parent != SRC / "wassertree":
        raise ImportError(f"wassertree imported from {wt.__file__}, not from {SRC}")
    return wt


def set_up(workload, seed: int, workdir: Path):
    """Import, generate the seeded items and write their files; timed."""
    start = perf_counter()
    wt = import_library()
    items = workload.items(random.Random(seed), POOL_BLOCKS[workload.name])
    if workload.files is not None:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload.files(items, str(workdir))
    return perf_counter() - start, wt, items


def remove_workdir(workdir: Path) -> None:
    """Remove a run's files, and .bench_tmp too once no run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run still has files there
        pass


def _error() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def check(workload, item, result):
    """The workload's check; a result it cannot even read fails it."""
    try:
        return workload.check(item, result)
    except Exception:
        return f"malformed result: {_error()}"


def run_op(wt, workload, item):
    """One timed operation and its untimed check: (seconds, error or None)."""
    start = perf_counter()
    try:
        result = workload.run(wt, item)
    except Exception:  # an operation that raises counts as failed
        return perf_counter() - start, _error()
    elapsed = perf_counter() - start
    return elapsed, check(workload, item, result)


class Outcome:
    def __init__(self):
        self.latencies = []
        self.errors = []

    def add(self, elapsed, error):
        self.latencies.append(elapsed)
        if error is not None:
            self.errors.append(error)


def measure(wt, workload, items, seconds: float, ref: Reference) -> Outcome:
    """Closed loop over whole blocks of items.

    It stops at the first block boundary after ``seconds`` of scaled
    operation time, once MIN_SAMPLES operations have run, so every run
    measures the same mix of size classes and about the same number of
    operations whatever the machine's speed.
    """
    outcome = Outcome()
    started = perf_counter()
    ref.sample()
    index = 0
    while perf_counter() - started < MAX_MEASURE_SECONDS:
        outcome.add(*run_op(wt, workload, items[index % len(items)]))
        ref.sample()
        index += 1
        if index % workload.block == 0 and index >= MIN_SAMPLES:
            if sum(ref.scaled(outcome.latencies)) >= seconds:
                break
    return outcome


def end_to_end_metrics(outcome: Outcome, setup_s: float, ref: Reference) -> dict:
    lat = sorted(ref.scaled(outcome.latencies))
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "p50_s": statistics.median(lat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rank = math.ceil(0.9 * len(lat))  # nearest rank
    if len(lat) - rank >= 10:
        metrics["p90_s"] = lat[rank - 1]
    return metrics


def traced_metrics(wt, workload, ops) -> tuple:
    """Untraced then traced pass over the same fixed operations."""
    plain, traced = Outcome(), Outcome()
    plain_ref, traced_ref = Reference(), Reference()
    plain_ref.sample()
    for item in ops:
        plain.add(*run_op(wt, workload, item))
        plain_ref.sample()
    t = tracer.Tracer()
    tracer.install(t)
    bookkeeping = 0.0
    traced_ref.sample()
    for item in ops:
        before = t.bookkeeping
        traced.add(*run_op(wt, workload, item))
        bookkeeping += t.bookkeeping - before
        traced_ref.sample()
    wall = sum(traced.latencies)
    attributed = wall - bookkeeping  # the tracer's own work is not the program's
    scaled_wall = sum(traced_ref.scaled(traced.latencies))
    scale = scaled_wall / wall

    self_time = {f"{layer}.self_s": 0.0 for layer in tracer.LAYERS}
    for key, value in t.self_time.items():
        self_time[key.split(".")[0] + ".self_s"] += value
    self_time["bench.self_s"] = attributed - sum(self_time.values())
    for name, key in FUNCTION_METRICS.items():
        self_time[name] = t.self_time.get(key, 0.0)
    serialize = {k: v for k, v in t.self_time.items() if k.startswith("serialize.")}
    self_time["serialize.parse_s"] = sum(
        v for k, v in serialize.items() if k.split(".")[1].startswith(("parse_", "load_"))
    )
    self_time["serialize.emit_s"] = sum(
        v for k, v in serialize.items() if k.endswith(("_to_json", ".dumps"))
    )

    metrics = {}
    for name, value in self_time.items():
        metrics[name] = value * scale / len(ops)
        metrics[name[: -len("_s")] + "_share"] = value / attributed
    counts = {
        "tree.gromov_calls": t.calls["tree.gromov_product"],
        "lp.calls": sum(n for k, n in t.calls.items() if k.startswith("lp.")),
        "lp.cells": t.counts["lp.cells"],
        "dynamics.speed_checks": t.counts["dynamics.speed_checks"],
        "rationals.max_den_bits": t.max_den_bits,
    }
    metrics.update(counts)
    metrics["trace.overhead"] = scaled_wall / sum(plain_ref.scaled(plain.latencies))
    return metrics, plain, traced


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    setup_ref = Reference()
    setup_ref.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, wt, items = set_up(workload, seed, workdir)
        setups.append(elapsed)
        setup_ref.sample()
    setup_s = statistics.median(setup_ref.scaled(setups))
    if trace:
        ops = items[: workload.block * TRACE_BLOCKS[workload.name]]
        metrics, *outcomes = traced_metrics(wt, workload, ops)
        units = dict(per_layer_names())
    else:
        ref = Reference()
        outcome = measure(wt, workload, items, seconds, ref)
        metrics, outcomes = end_to_end_metrics(outcome, setup_s, ref), [outcome]
        print(f"{workload.name}: wall times scaled by {ref.scale():.4f} on average (reference.py)")
        units = END_TO_END
    attempted = sum(len(o.latencies) for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    for error in errors[:5]:
        print(f"{workload.name}: check failed: {error}", file=sys.stderr)
    table = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics}
    return attempted, len(errors), table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wassertree" / "__init__.py").is_file():
        print(f"wassertree sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workroot = ROOT / ".bench_tmp" / f"{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workroot / name
            )
    except ImportError as exc:
        print(f"cannot import wassertree: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_workdir(workroot)

    for name, (attempted, failed, table) in results.items():
        print(f"{name}: attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.4f}")
        for metric, entry in table.items():
            print(f"  {metric:28s} {entry['value']:>14.6g} {entry['unit']}")
    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]][2]
    else:
        metrics = {f"{n}/{m}": e for n, r in results.items() for m, e in r[2].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
