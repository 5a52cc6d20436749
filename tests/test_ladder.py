"""Smoke test of the ladder (``tools/ladder.py``): shape and digests only.

The smallest rung and the CLI rung run once and the row is checked for
shape, for a passing witness and for the CLI outputs' digests; no time
is asserted.
"""

import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path

from wassertree.cli import main as cli_main

ROOT = Path(__file__).parent.parent
TOOL = ROOT / "tools" / "ladder.py"
SPINE = ROOT / "tests" / "golden" / "inputs" / "deep_spine_200.json"
STAGES = {"parse_s", "validate_root_s", "flows_s", "solve_s", "lift_s", "verify_s"}
COMMANDS = ("d0", "flows", "validate")


def test_smallest_rung_writes_a_row(tmp_path):
    out = tmp_path / "ladder.json"
    for label in ("first", "second", "first"):
        done = subprocess.run(
            [sys.executable, str(TOOL), "--rungs", "50/10", "--repeats", "1", "--label", label, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
    digests = {c: hashlib.sha256(_stdout(c).encode()).hexdigest() for c in COMMANDS}
    data = json.loads(out.read_text())
    assert data["schema"] == "wassertree-ladder/1"
    # A second run with a label already in the file replaces its row.
    assert [row["label"] for row in data["rows"]] == ["second", "first"]
    for row in data["rows"]:
        assert set(row) == {"label", "python", "repeats", "rungs", "cli"}
        (rung,) = row["rungs"]
        assert set(rung) == {
            "vertices", "atoms", "seed", "ends", "plan_atoms", "stages",
            "stages_total_s", "decide_s", "max_den_bits", "passed",
        }
        assert (rung["vertices"], rung["atoms"]) == (50, 10)
        assert rung["ends"] >= 20 and 10 <= rung["plan_atoms"] <= 19
        assert set(rung["stages"]) == STAGES
        assert all(isinstance(x, float) and x >= 0 for x in rung["stages"].values())
        assert isinstance(rung["decide_s"], float) and rung["decide_s"] >= 0
        assert isinstance(rung["max_den_bits"], int) and rung["max_den_bits"] > 0
        assert rung["passed"] is True
        cli = row["cli"]
        times = {f"{c}{suffix}" for c in COMMANDS for suffix in ("_s", "_cached_s")}
        runs = {f"{k[:-2]}_runs_s" for k in times}
        assert set(cli) == {
            "input", "dont_write_bytecode", *times, *runs, *(f"{c}_sha256" for c in COMMANDS)
        }
        assert isinstance(cli["dont_write_bytecode"], bool)
        assert cli["input"] == "tests/golden/inputs/deep_spine_200.json"
        assert all(isinstance(cli[k], float) and cli[k] > 0 for k in times)
        for k in times:
            # One time per run, and the median is theirs.
            each = cli[f"{k[:-2]}_runs_s"]
            assert len(each) == row["repeats"] and cli[k] == statistics.median(each)
        assert {c: cli[f"{c}_sha256"] for c in COMMANDS} == digests


def _stdout(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main([command, "--input", str(SPINE)]) == 0
    return out.getvalue()
