"""Exit-code contract under mutated input files and flag values.

Every subcommand must end with 0 (ok), 2 (invalid instance), 3 (parse
error) or 4 (domain error), whatever the input file holds; an exception
escaping ``cli.main`` is a bug.  The inputs are valid instance and
family files with one to three random mutations each (a node replaced
by a random JSON value, by a value of another JSON type or by a copy of
another node, a key or item deleted, a key or item added).  Numbers stay small so that a mutated
family runs in milliseconds.  A third test keeps the sample files and
draws the values of ``--decimal``, ``--tolerance``, ``--times`` and
``--max-level`` instead, and requires the exact code each combination
of values calls for.  The search is derandomized, so every run replays
the same examples.
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wassertree import ParseError, cli, parse_fraction

HERE = Path(__file__).parent
SAMPLES = HERE.parent / "samples"
INPUTS = HERE / "golden" / "inputs"

INSTANCES = [
    json.loads(path.read_text())
    for path in [
        SAMPLES / "caterpillar.json",
        SAMPLES / "caterpillar_crossed.json",
        SAMPLES / "tripod.json",
        INPUTS / "gen_00.json",
        INPUTS / "gen_03.json",
        INPUTS / "gen_09.json",
    ]
]
FAMILIES = [
    json.loads(path.read_text())
    for path in [
        SAMPLES / "spine_constant.json",
        SAMPLES / "spine_geometric.json",
        INPUTS / "family_0.json",
        INPUTS / "family_2.json",
    ]
]
COMMANDS = ["validate", "flows", "d0", "solve", "check-monotone", "realize", "family"]
CONTRACT = {0, 2, 3, 4}

WORDS = [
    "0", "1", "-1", "1/2", "3/4", "2", "1/0", "", "abc", "v0", "v1", "A", "B", "C", "D",
    "e0", "e1", "u0", "u1", "S1", "T1", "constant", "geometric", "explicit", "spine", "custom",
]
KEYS = [
    "vertices", "base", "edges", "ends", "measures", "coupling", "minus", "plus", "atoms",
    "u", "v", "len", "id", "attach", "from", "to", "mass", "kind", "masses", "lengths",
    "value", "values", "ratio", "scale", "max_level",
]
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-50, 50)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.sampled_from(WORDS)
    | st.text(max_size=4)
)
# One value of each JSON type, to put where another type is expected.
RETYPED = [None, True, 0, 5, -1, 2.5, "abc", "1/2", [], ["1"], {}, {"a": "1"}]
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS + WORDS), inner, max_size=3),
    max_leaves=5,
)


def _get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _paths(doc[key], path + (key,))
    elif isinstance(doc, list):
        for idx, item in enumerate(doc):
            yield from _paths(item, path + (idx,))


def _shape(path):
    """A path with list indices and free-form keys (ids) blurred."""
    return tuple(step if step in KEYS else "*" for step in path)


@st.composite
def node_path(draw, doc):
    """A node of ``doc``: a uniform shape, then a uniform node of that shape.

    Drawing the shape first gives a top-level section the same chance as
    one of the many entries of a long edge list.
    """
    by_shape = {}
    for path in _paths(doc):
        by_shape.setdefault(_shape(path), []).append(path)
    shape = draw(st.sampled_from(sorted(by_shape, key=repr)))
    return draw(st.sampled_from(by_shape[shape]))


@st.composite
def mutated(draw, bases):
    """A copy of one of ``bases`` with one to three mutations."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
        path = draw(node_path(doc))
        op = draw(st.sampled_from(["replace", "retype", "copy", "delete", "add"]))
        if op in ("replace", "retype", "copy"):
            if op == "replace":
                value = draw(json_values)
            elif op == "retype":
                value = copy.deepcopy(draw(st.sampled_from(RETYPED)))
            else:
                value = copy.deepcopy(_get(doc, draw(node_path(doc))))
            if not path:
                doc = value
            else:
                _get(doc, path[:-1])[path[-1]] = value
        elif op == "delete" and path:
            del _get(doc, path[:-1])[path[-1]]
        elif op == "add":
            node = _get(doc, path)
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = draw(json_values)
            elif isinstance(node, list):
                extra = copy.deepcopy(node[0]) if node and draw(st.booleans()) else draw(json_values)
                node.append(extra)
    return doc


def _run_all(directory, doc):
    path = directory / "input.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--input", str(path)])
        assert code in CONTRACT, f"{command} exited {code} on {json.dumps(doc)}"


def fuzz(examples):
    return settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


@fuzz(300)
@given(doc=mutated(INSTANCES))
def test_mutated_instances_keep_the_exit_contract(tmp_path_factory, doc):
    _run_all(tmp_path_factory.getbasetemp(), doc)


@fuzz(150)
@given(doc=mutated(FAMILIES))
def test_mutated_families_keep_the_exit_contract(tmp_path_factory, doc):
    _run_all(tmp_path_factory.getbasetemp(), doc)


FLAG_INPUTS = {
    "instance": [
        str(SAMPLES / name)
        for name in ("caterpillar.json", "caterpillar_crossed.json", "tripod.json")
    ],
    "family": [str(SAMPLES / "spine_constant.json"), str(SAMPLES / "spine_geometric.json")],
}
rationals = st.sampled_from(WORDS + ["1/1000", "-1/2", "7/3", "0.25", "1e3", "2E-1", " 1", "x/y"])
# Words among the --decimal and --max-level values are malformed integers.
decimals = st.integers(-3, 45) | st.sampled_from([4300, 4301, 10**9]) | st.sampled_from(WORDS)
levels = st.integers(-2, 30) | st.sampled_from(["abc", "", "2.5"])
times = st.lists(rationals | st.integers(-5, 5), max_size=4).map(lambda xs: ",".join(map(str, xs)))


@st.composite
def flagged_command(draw):
    command = draw(st.sampled_from(COMMANDS))
    kind = "family" if command == "family" else "instance"
    argv = [command, "--input", draw(st.sampled_from(FLAG_INPUTS[kind]))]
    flags = [("--decimal", decimals)]
    if command == "realize":
        flags.append(("--times", times))
    if command == "family":
        flags += [("--tolerance", rationals), ("--max-level", levels)]
    for name, values in flags:
        if draw(st.booleans()):
            argv.append(f"{name}={draw(values)}")
    return argv


# Sample files with no 'coupling' section: check-monotone refuses them.
NO_COUPLING = {
    ("check-monotone", str(SAMPLES / name)) for name in ("caterpillar.json", "tripod.json")
}


def _integer(text):
    try:
        return int(text)
    except ValueError:
        return None


def _rational(text):
    try:
        return parse_fraction(text)
    except ParseError:
        return None


def _rendered(argv):
    """The exact values a run shows in decimal, read from its ``--decimal=0`` output.

    Each ``<key>_decimal`` field renders the fraction under ``<key>``.
    """
    out = io.StringIO()
    argv = [arg if not arg.startswith("--decimal=") else "--decimal=0" for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    values = []

    def walk(node):
        if isinstance(node, dict):
            for key, item in node.items():
                if key.endswith("_decimal"):
                    values.append(Fraction(node[key[: -len("_decimal")]]))
                else:
                    walk(item)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(json.loads(out.getvalue()))
    return values


def expected_code(argv):
    """The exit code the contract assigns to a sample file and its flag values.

    A malformed integer or rational is a parse error (3), whatever else
    is wrong.  Then a family needs a positive tolerance and a max level
    of at least 3 (4 otherwise).  A decimal rendering needs a
    nonnegative number of places, and the rounded digits of every
    rendered value must fit Python's int-to-str limit (4 otherwise).
    """
    command, path = argv[0], argv[2]
    flags = dict(arg.split("=", 1) for arg in argv[3:])
    decimal = _integer(flags.get("--decimal", "0"))
    level = _integer(flags.get("--max-level", "3"))
    tolerance = _rational(flags.get("--tolerance", "1/1000"))
    times = [_rational(part) for part in flags.get("--times", "").split(",") if part.strip()]
    if decimal is None or level is None or tolerance is None or None in times:
        return 3
    if command == "family" and (tolerance <= 0 or level < 3):
        return 4
    if (command, path) in NO_COUPLING:
        return 4
    if "--decimal" not in flags:
        return 0
    values = _rendered(argv)
    limit = sys.get_int_max_str_digits()
    if values and (
        decimal < 0
        or decimal > limit
        or any(abs(round(v * 10**decimal)) >= 10**limit for v in values)
    ):
        return 4
    return 0


@fuzz(200)
@given(argv=flagged_command())
def test_flag_values_keep_the_exit_contract(tmp_path_factory, argv):
    output = str(tmp_path_factory.getbasetemp() / "flags.out")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([*argv, "--output", output])
        except SystemExit as exc:
            code = exc.code
    assert code == expected_code(argv), f"{argv} exited {code}"
