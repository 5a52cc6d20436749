"""Smoke test of the decide ladder (``tools/ladder.py``): schema only.

The smallest rung runs once and its row is checked for shape and for a
passing witness; no time is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "ladder.py"
STAGES = {"validate_root_s", "flows_s", "solve_s", "lift_s", "verify_s"}


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
    data = json.loads(out.read_text())
    assert data["schema"] == "wassertree-ladder/1"
    # A second run with a label already in the file replaces its row.
    assert [row["label"] for row in data["rows"]] == ["second", "first"]
    for row in data["rows"]:
        assert set(row) == {"label", "python", "repeats", "rungs"}
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
