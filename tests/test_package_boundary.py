"""The package's import boundary, checked on its source and in a fresh interpreter.

``wassertree.theory`` holds the statements only the tests check; the
decision path (``decide``, ``family_analyze`` and every CLI subcommand)
must neither import it nor load it.  Every module also imports only
names it uses or re-exports.
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

# Runs every CLI subcommand on each sample it accepts, then decide and
# family_analyze, and reports the exit codes and the loaded modules.
_DECISION_PATH = r"""
import argparse, contextlib, io, json, sys
from fractions import Fraction
from pathlib import Path

from wassertree import FamilySpec, cli, decide, family_analyze, serialize

samples, tmp = Path(sys.argv[1]), Path(sys.argv[2])
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
        if "coupling" in data:
            runs.append(["check-monotone", "--input", str(sample)])
        tree, (minus, plus), _ = serialize.load_instance(str(sample))
        assert decide(tree, minus, plus).geodesic.passed
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[f"{argv[0]} {sample.name}"] = cli.main(argv)
subparsers = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
subcommands = sorted(subparsers[0].choices)
print(json.dumps({"codes": codes, "subcommands": subcommands, "modules": sorted(sys.modules)}))
"""


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the modules ``tree`` imports, and of the names it imports from them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "wassertree" + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_theory():
    for path in MODULES:
        if path.stem == "theory":
            continue
        imported = _imported_modules(ast.parse(path.read_text()))
        assert "wassertree.theory" not in imported, f"{path.name} imports wassertree.theory"


def test_decision_path_never_loads_theory(tmp_path):
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
    assert "wassertree.cli" in result["modules"]
    assert "wassertree.theory" not in result["modules"]


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
