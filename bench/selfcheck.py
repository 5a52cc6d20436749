"""Tiny-size self-check of the benchmark; exits 0 when every check holds.

    python3 bench/selfcheck.py

It checks that BENCHMARK.json follows its schema and names every metric
the benchmark prints, with the same unit; that each workload's
operation passes its correctness check on tiny inputs; that each check
rejects a deliberately corrupted result; and that a traced run reports
every per-layer metric, with counts that repeat exactly.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import sys
from fractions import Fraction

import run
import workloads as w

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)


def check_schema():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(spec)}",
    )
    expect(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for path in spec["paths"]:
        expect(PATH.match(path) and ".." not in path.split("/"), f"bad path {path!r}")
        expect((run.ROOT / path).is_dir(), f"path {path!r} is not a directory")
    expect(len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"]), "command size")
    expect(not any(a.startswith("/") or ".." in a for a in spec["command"]), "command leaves the repo")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    expect([x["name"] for x in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    for entry in spec["workloads"]:
        expect(set(entry) == {"name", "why"}, f"workload keys {sorted(entry)}")
        expect(len(entry["why"]) <= 200 and "\n" not in entry["why"], f"why of {entry['name']}")
    names = []
    for entry in spec["end_to_end"]:
        expect(set(entry) == {"name", "unit", "better", "bound"}, f"end_to_end keys {sorted(entry)}")
        expect(0 < entry["bound"] <= 0.25, f"bound of {entry['name']}")
    for entry in spec["per_layer"]:
        expect(set(entry) == {"name", "unit", "better"}, f"per_layer keys {sorted(entry)}")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        names.append(entry["name"])
        expect(NAME.match(entry["name"]) is not None, f"metric name {entry['name']!r}")
        expect(UNIT.match(entry["unit"]) is not None, f"unit of {entry['name']}")
        expect(entry["better"] in ("lower", "higher"), f"better of {entry['name']}")
    expect(len(names) == len(set(names)), "metric names repeat")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    expect(
        setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"]),
        "setup_s must be in s, lower is better, with the largest bound",
    )
    expect({e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END, "end_to_end names and units")
    expect({e["name"]: e["unit"] for e in spec["per_layer"]} == dict(run.per_layer_names()), "per_layer names and units")
    expect(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json size")
    for name, spec_json in w.SPINE_SPECS.items():
        sample = run.ROOT / "samples" / f"spine_{name}.json"
        if sample.exists():
            expect(json.loads(sample.read_text()) == spec_json, f"{sample.name} differs from SPINE_SPECS")


def tiny_items(rng, workdir):
    decide = {**w.random_tree(rng, 7)}
    ids = [e for e, _ in decide["ends"]]
    decide.update(minus=w.weights(rng, ids[:3]), plus=w.weights(rng, ids[3:6]))
    family = [{"spec": "constant", "level": 5}, {"spec": "geometric", "level": 5}]
    deep = []
    for command in ("validate", "flows", "d0"):
        deep.append({**w.spine_instance(rng, 6), "command": command})
    for monotone in (True, False):
        deep.append({**w.matching_instance(rng, monotone), "command": "check-monotone"})
    w.write_deep_files(deep, str(workdir))
    return {"decide-wide": [decide], "family-spine": family, "cli-deep": deep}


def corrupt(name, item, result):
    """Yield (what, corrupted result) pairs a correct check must reject."""
    if name == "decide-wide":
        yield "off-by-one LP value", dataclasses.replace(result, lp_value=result.lp_value + 1)
    elif name == "family-spine":
        lps = list(result.lp_values)
        lps[-1] += 1
        yield "off-by-one LP value", dataclasses.replace(result, lp_values=tuple(lps))
        sums = list(result.moment_sums)
        sums[-1] += 1
        yield "moment off the closed form", dataclasses.replace(
            result, moment_sums=tuple(sums), lp_values=tuple(-s for s in sums)
        )
    else:
        code, out = result
        yield "non-zero exit", (4, out)
        out = json.loads(json.dumps(out))
        if item["command"] == "flows":
            edge = next(e for e in out["edges"] if Fraction(e["phi"]) != 0)
            edge["phi"] = str(-Fraction(edge["phi"]))
            yield "flipped flow sign", (code, out)
        elif item["command"] == "d0":
            out["pairs"] = [{**p, "d0": str(Fraction(p["d0"]) + 1)} for p in out["pairs"]]
            yield "d0 off by one", (code, out)
        elif item["command"] == "check-monotone":
            out["monotone"] = not out["monotone"]
            out.pop("witness", None)
            yield "wrong monotone verdict", (code, out)
        elif item["command"] == "validate":
            out["valid"] = False
            yield "invalid verdict", (code, out)


def check_workloads(workdir):
    wt = run.import_library()
    items = tiny_items(random.Random(7), workdir)
    for name, workload in run.WORKLOADS.items():
        for item in items[name]:
            result = workload.run(wt, item)
            error = run.check(workload, item, result)
            expect(error is None, f"{name}: correct result rejected: {error}")
            for what, bad in corrupt(name, item, result):
                expect(run.check(workload, item, bad) is not None, f"{name}: {what} accepted")
    return items


def check_trace(items):
    expected = {name for name, _ in run.per_layer_names()}
    for name, workload in run.WORKLOADS.items():
        counts = []
        for _ in range(2):
            wt = run.import_library()  # fresh, unwrapped modules for each traced run
            metrics, plain, traced = run.traced_metrics(wt, workload, items[name])
            expect(not plain.errors and not traced.errors, f"{name}: traced run failed its checks")
            expect(set(metrics) == expected, f"{name}: per-layer metrics {sorted(set(metrics) ^ expected)}")
            shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
            expect(abs(shares - 1) < 1e-9, f"{name}: layer shares add up to {shares}")
            counts.append({k: metrics[k] for k in run.COUNT_METRICS})
        expect(counts[0] == counts[1], f"{name}: counts differ between runs {counts}")


def main() -> int:
    workdir = run.ROOT / ".bench_tmp" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_schema()
        check_trace(check_workloads(workdir))
    finally:
        run.remove_workdir(workdir)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
