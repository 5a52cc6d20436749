"""The benchmark's self-check runs green against the library.

``bench/selfcheck.py`` runs every workload's operation at tiny sizes and
checks its output with the benchmark's own arithmetic (for instance that
a monotonicity witness is a strictly violating cycle of the coupling's
support), so a library change that breaks what the benchmark reads
fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_exits_0():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
