"""The package's boundary, checked in a fresh interpreter and on its source.

The package holds only what the system runs: the decision path
(``decide``, ``realize``, ``family_analyze`` and every CLI subcommand)
loads every one of its modules and runs every public function and
method they define, and the references the tests check it against live
under ``tests/oracles/``.  Every module also imports only names it uses
or re-exports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import wassertree

PACKAGE = Path(wassertree.__file__).parent
ROOT = Path(__file__).parent.parent
MODULES = sorted(PACKAGE.glob("*.py"))

# Runs every CLI subcommand on each sample it accepts, then decide,
# realize and family_analyze, and reports the exit codes, the loaded
# modules and every function of the package that ran.
_DECISION_PATH = r"""
import argparse, contextlib, io, json, sys
from fractions import Fraction
from pathlib import Path

from wassertree import FamilySpec, cli, decide, family_analyze, lift, realize, serialize, snapshots

samples, tmp = Path(sys.argv[1]), Path(sys.argv[2])
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.setprofile(profile)
codes = {}
for sample in sorted(samples.glob("*.json")):
    data = json.loads(sample.read_text())
    if data.get("kind") == "spine":
        runs = [["family", "--input", str(sample)]]
        spec = FamilySpec.from_json(data)
        family_analyze(spec, 12, Fraction(1, 1000))
    else:
        runs = [[command, "--input", str(sample)] for command in ("validate", "flows", "d0", "solve")]
        runs.append(["realize", "--input", str(sample), "--times=-1,0,1/2", "--decimal", "6",
                     "--dot", str(tmp / (sample.stem + ".dot"))])
        tree, (minus, plus), coupling = serialize.load_instance(str(sample))
        assert decide(tree, minus, plus).geodesic.passed
        realize(tree, minus, plus, [0])
        if coupling is not None:
            runs.append(["check-monotone", "--input", str(sample)])
            snapshots(lift(coupling, tree), [1], tree)  # a crossing atom midway along an edge
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[f"{argv[0]} {sample.name}"] = cli.main(argv)
sys.setprofile(None)
subparsers = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
subcommands = sorted(subparsers[0].choices)
ran = sorted(f"{Path(name).name}:{qualname}" for name, qualname in called if Path(name).parent.name == "wassertree")
print(json.dumps({"codes": codes, "subcommands": subcommands, "modules": sorted(sys.modules), "ran": ran}))
"""


def _public_functions(path: Path) -> list[str]:
    """``file:qualname`` of every public function and method ``path`` defines."""
    names = []
    for node in ast.parse(path.read_text()).body:
        scope, prefix = [node], ""
        if isinstance(node, ast.ClassDef):
            scope, prefix = node.body, node.name + "."
        for item in scope:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                names.append(f"{path.name}:{prefix}{item.name}")
    return names


def test_decision_path_reaches_every_module_and_public_function(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _DECISION_PATH, str(ROOT / "samples"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert all(code == 0 for code in result["codes"].values()), result["codes"]
    assert {key.split()[0] for key in result["codes"]} == set(result["subcommands"])
    package = {"wassertree" if p.stem == "__init__" else f"wassertree.{p.stem}" for p in MODULES}
    assert package <= set(result["modules"]), sorted(package - set(result["modules"]))
    public = {name for path in MODULES for name in _public_functions(path)}
    assert public <= set(result["ran"]), sorted(public - set(result["ran"]))


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_package_imports_no_unused_name():
    unused = {path.name: names for path in MODULES if (names := _unused_imports(path))}
    assert not unused, unused
