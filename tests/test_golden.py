"""Byte-exact CLI goldens: every subcommand on samples/ and a seeded corpus.

The expected stdout and exit codes were captured with
``tests/golden/capture.py``; this test replays each case in-process and
compares the bytes.  A mismatch is either a regression or a deliberate
golden update, which must be re-captured and recorded in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from golden.capture import ROOT, run

EXPECTED = sorted((Path(__file__).parent / "golden" / "expected").glob("*.json"))


def test_golden_corpus_present():
    # samples/ plus 50 generated instances, 3 explicit families and the
    # five deep records.
    assert len(EXPECTED) >= 63
    assert len([p for p in EXPECTED if p.stem.startswith("deep_")]) == 5


@pytest.mark.parametrize("record_path", EXPECTED, ids=lambda p: p.stem)
def test_golden_replay(record_path):
    record = json.loads(record_path.read_text())
    path = ROOT / record["input"]
    for case in record["cases"]:
        args = case["args"]
        code, stdout = run(args[0], path, args[1:])
        assert code == case["exit"], f"{args}: exit {code} != {case['exit']}"
        assert stdout == case["stdout"], f"{args}: stdout differs"
