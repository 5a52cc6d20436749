import copy
import json
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from wassertree import OversizeError, cli, serialize
from wassertree.rationals import decimal_string
from wassertree.serialize import load_instance

SAMPLES = Path(__file__).parent.parent / "samples"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wassertree.cli", *args],
        capture_output=True,
        text=True,
    )


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CATERPILLAR = {
    "vertices": ["v0", "v1"],
    "base": "v0",
    "edges": [{"u": "v0", "v": "v1", "len": "2"}],
    "ends": [
        {"id": "A", "attach": "v0"},
        {"id": "B", "attach": "v0"},
        {"id": "C", "attach": "v1"},
        {"id": "D", "attach": "v1"},
    ],
    "measures": {
        "minus": {"A": "1/2", "C": "1/2"},
        "plus": {"B": "1/2", "D": "1/2"},
    },
}


def test_validate_ok(tmp_path):
    path = write(tmp_path, "ok.json", CATERPILLAR)
    result = run_cli("validate", "--input", path)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["valid"] is True


def test_validate_cycle_exit_2(tmp_path):
    bad = {
        "vertices": ["a", "b", "c"],
        "base": "a",
        "edges": [
            {"u": "a", "v": "b", "len": "1"},
            {"u": "b", "v": "c", "len": "1"},
            {"u": "c", "v": "a", "len": "1"},
        ],
        "ends": [{"id": "X", "attach": "a"}, {"id": "Y", "attach": "b"}],
    }
    path = write(tmp_path, "cycle.json", bad)
    result = run_cli("validate", "--input", path)
    assert result.returncode == 2
    out = json.loads(result.stdout)
    assert any("acyclic" in v for v in out["violations"])


def test_duplicate_vertex_ids_exit_2_everywhere(tmp_path):
    payload = {
        **CATERPILLAR,
        "vertices": ["v0", "v1", "v0"],
        "coupling": {"atoms": [{"from": "A", "to": "B", "mass": "1/2"}, {"from": "C", "to": "D", "mass": "1/2"}]},
    }
    path = write(tmp_path, "dup.json", payload)
    result = run_cli("validate", "--input", path)
    assert result.returncode == 2
    assert json.loads(result.stdout)["violations"] == ["duplicate vertex ids"]
    for command in ("flows", "d0", "solve", "check-monotone", "realize"):
        result = run_cli(command, "--input", path)
        assert result.returncode == 2, command
        assert result.stderr == "invalid instance: duplicate vertex ids\n", command


def test_validate_bad_measure_sum_exit_2(tmp_path):
    payload = dict(CATERPILLAR)
    payload["measures"] = {"minus": {"A": "1/3"}, "plus": {"B": "1"}}
    path = write(tmp_path, "badsum.json", payload)
    result = run_cli("validate", "--input", path)
    assert result.returncode == 2
    out = json.loads(result.stdout)
    assert any("bad measures" in v for v in out["violations"])


def test_bad_measure_total_keeps_its_message_and_exit_codes(tmp_path):
    """A total 1/big short of 1: validate lists it (exit 2), the others refuse it (exit 4)."""
    big = 2**400 + 1
    payload = dict(CATERPILLAR)
    payload["measures"] = {"minus": {"A": "1/3", "C": f"{2 * big - 3}/{3 * big}"}, "plus": {"B": "1"}}
    path = write(tmp_path, "short.json", payload)
    message = f"masses sum to {1 - Fraction(1, big)}, expected 1"
    result = run_cli("validate", "--input", path)
    assert result.returncode == 2
    assert json.loads(result.stdout)["violations"] == [f"bad measures: {message}"]
    for command in ("flows", "solve", "realize"):
        result = run_cli(command, "--input", path)
        assert (result.returncode, result.stdout) == (4, ""), command
        assert result.stderr == f"domain error: {message}\n", command


def test_truncated_file_exit_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": ["v0"], ')
    result = run_cli("validate", "--input", str(path))
    assert result.returncode == 3
    assert "parse error" in result.stderr


@pytest.mark.parametrize(
    "content, fragment",
    [
        (b'{"vertices": ["v\xff"]}', "not UTF-8"),
        (b"[" * 100000 + b"]" * 100000, "recursion limit"),
        (b'{"vertices": ' + b"7" * 5000 + b"}", "4300 digits"),
    ],
    ids=["not-utf8", "nested", "long-integer"],
)
@pytest.mark.parametrize("command", ["validate", "d0", "family"])
def test_undecodable_input_exit_3(tmp_path, command, content, fragment):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    result = run_cli(command, "--input", str(path))
    assert result.returncode == 3
    assert f"parse error: {path}: " in result.stderr and fragment in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("flag", ["--output", "--dot"])
def test_unwritable_output_exit_3(tmp_path, flag):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    target = tmp_path / "missing" / "out"
    result = run_cli("realize", "--input", path, flag, str(target))
    assert result.returncode == 3
    assert result.stderr == f"parse error: cannot write {target}: No such file or directory\n"
    assert not target.exists()


@pytest.mark.parametrize("output", [None, "report.json"])
def test_unwritable_dot_writes_no_report(tmp_path, output):
    argv = ["realize", "--input", str(SAMPLES / "caterpillar.json"), "--dot", "missing/tree.dot"]
    if output:
        argv += ["--output", output]
    # Run from an empty directory, so the relative path is under it.
    src = str(SAMPLES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "wassertree.cli", *argv], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert result.returncode == 3
    assert result.stderr == "parse error: cannot write missing/tree.dot: No such file or directory\n"
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_float_length_exit_3(tmp_path):
    payload = dict(CATERPILLAR)
    payload["edges"] = [{"u": "v0", "v": "v1", "len": 2.5}]
    path = write(tmp_path, "float.json", payload)
    result = run_cli("validate", "--input", path)
    assert result.returncode == 3
    assert "floats are not accepted" in result.stderr


@pytest.mark.parametrize("length, shown", [(None, "None"), ([1], "[1]")], ids=["null", "list"])
def test_non_number_length_exit_3_without_float_hint(tmp_path, length, shown):
    payload = dict(CATERPILLAR)
    payload["edges"] = [{"u": "v0", "v": "v1", "len": length}]
    path = write(tmp_path, "bad_length.json", payload)
    result = run_cli("validate", "--input", path)
    assert result.returncode == 3
    assert f"not a rational: {shown}" in result.stderr
    assert "float" not in result.stderr


def test_solve_output(tmp_path):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    result = run_cli("solve", "--input", path)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["value"] == "-2"
    assert out["coupling"] == [
        {"from": "A", "mass": "1/2", "to": "B"},
        {"from": "C", "mass": "1/2", "to": "D"},
    ]


def test_solve_without_measures_is_domain_error(tmp_path):
    payload = {k: v for k, v in CATERPILLAR.items() if k != "measures"}
    path = write(tmp_path, "nomeas.json", payload)
    result = run_cli("solve", "--input", path)
    assert result.returncode == 4


def test_non_antipodal_is_domain_error(tmp_path):
    payload = dict(CATERPILLAR)
    payload["measures"] = {"minus": {"A": "1"}, "plus": {"A": "1"}}
    path = write(tmp_path, "shared.json", payload)
    result = run_cli("solve", "--input", path)
    assert result.returncode == 4
    assert "antipodal" in result.stderr


def test_d0_tripod_all_zero(tmp_path):
    tripod = {
        "vertices": ["c"],
        "base": "c",
        "edges": [],
        "ends": [
            {"id": "A", "attach": "c"},
            {"id": "B", "attach": "c"},
            {"id": "C", "attach": "c"},
        ],
    }
    path = write(tmp_path, "tripod.json", tripod)
    result = run_cli("d0", "--input", path)
    out = json.loads(result.stdout)
    assert [p["d0"] for p in out["pairs"]] == ["0", "0", "0"]


def test_check_monotone(tmp_path):
    payload = dict(CATERPILLAR)
    payload["coupling"] = {
        "atoms": [
            {"from": "A", "to": "D", "mass": "1/2"},
            {"from": "C", "to": "B", "mass": "1/2"},
        ]
    }
    path = write(tmp_path, "bad.json", payload)
    result = run_cli("check-monotone", "--input", path)
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["monotone"] is False
    assert out["witness"] == [{"from": "A", "to": "D"}, {"from": "C", "to": "B"}]


def test_realize_with_times_and_dot(tmp_path):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    dot_path = tmp_path / "tree.dot"
    result = run_cli(
        "realize", "--input", path, "--times=-1,0,1", "--dot", str(dot_path)
    )
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["verdict"] == "realizable"
    assert out["lp_value"] == "-2"
    assert out["specific_flow_moment"] == "2"
    assert len(out["snapshots"]) == 3
    middle = out["snapshots"][1]
    assert middle["atoms"] == [
        {"point": {"vertex": "v0"}, "mass": "1/2"},
        {"point": {"vertex": "v1"}, "mass": "1/2"},
    ]
    dot = dot_path.read_text()
    assert "graph tree {" in dot and "color=red" in dot and "color=blue" in dot


def test_family_verdicts():
    result = run_cli("family", "--input", str(SAMPLES / "spine_geometric.json"))
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["classification"] == "diverging-trend"
    result2 = run_cli(
        "family",
        "--input",
        str(SAMPLES / "spine_constant.json"),
        "--max-level",
        "16",
        "--tolerance",
        "1/100",
    )
    out2 = json.loads(result2.stdout)
    assert out2["classification"] == "converged-within-tolerance"
    assert out2["max_level"] == 16


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_measure_given_as_list_exit_3(tmp_path, command):
    payload = dict(CATERPILLAR)
    payload["measures"] = {"minus": [1], "plus": {"B": "1"}}
    path = write(tmp_path, "listmeasure.json", payload)
    result = run_cli(command, "--input", path)
    assert result.returncode == 3
    assert "parse error" in result.stderr and "'minus'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("atoms", [None, 5, 2.5, True])
@pytest.mark.parametrize("command", ["flows", "check-monotone"])
def test_coupling_atoms_not_a_list_exit_3(tmp_path, command, atoms):
    payload = {**CATERPILLAR, "coupling": {"atoms": atoms}}
    result = run_cli(command, "--input", write(tmp_path, "atoms.json", payload))
    assert result.returncode == 3
    assert "parse error" in result.stderr and "'atoms'" in result.stderr
    assert "Traceback" not in result.stderr


CONSTANT_RULE = {"kind": "constant", "value": "1"}


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ({"kind": "spine", "lengths": CONSTANT_RULE}, "'masses'"),
        ({"kind": "spine", "masses": CONSTANT_RULE}, "'lengths'"),
        ({"kind": "custom", "masses": ["1", "1"]}, "'lengths'"),
        ({"kind": "spine", "masses": {"kind": "constant"}, "lengths": CONSTANT_RULE}, "'value'"),
        ({"kind": "spine", "masses": ["1"], "lengths": CONSTANT_RULE}, "rule objects"),
        ({"kind": "custom", "masses": {"a": 1}, "lengths": ["1"]}, "must be lists"),
    ],
)
def test_family_spec_malformed_exit_2(tmp_path, spec, fragment):
    path = write(tmp_path, "family.json", spec)
    result = run_cli("family", "--input", path)
    assert result.returncode == 2
    assert "invalid instance" in result.stderr and fragment in result.stderr
    assert "Traceback" not in result.stderr


ONES = ["1"] * 5


@pytest.mark.parametrize(
    "masses, lengths, line",
    [
        (["0", *ONES[1:]], ONES, "level 1: truncation carries no mass; cannot renormalize"),
        (["1", "1"], ONES, "level 3: family masses list has 2 entries, level 3 requested"),
        (ONES, ["1", "1", "1"], "level 4: family lengths list has 3 entries, level 4 requested"),
        (["1", "1", "1"], ["1", "1", "1"], "level 4: family masses list has 3 entries, level 4 requested"),
        (["1", "1", "-1", "1", "1"], ONES, "level 3: family masses must be nonnegative"),
        (["1", "1", "-1", "1", "1"], ["1", "1", "0", "1", "1"], "level 3: family masses must be nonnegative"),
        (ONES, ["1", "1", "1", "1", "0"], "level 5: family lengths must be positive"),
    ],
)
def test_family_level_error_lines(tmp_path, masses, lengths, line):
    # The last case is the level-5 length, which the level-5 tree leaves out.
    spec = {"kind": "custom", "masses": masses, "lengths": lengths}
    result = run_cli("family", "--input", write(tmp_path, "family.json", spec), "--max-level", "5")
    assert result.returncode == 2
    assert result.stderr == f"invalid instance: {line}\n"
    assert result.stdout == ""


def test_family_bad_json_message_unchanged(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "spine",')
    result = run_cli("family", "--input", str(path))
    assert result.returncode == 3
    assert f"parse error: {path}: invalid JSON at line 1 column" in result.stderr
    missing = tmp_path / "absent.json"
    result = run_cli("family", "--input", str(missing))
    assert result.returncode == 3
    assert f"parse error: {missing}: " in result.stderr


def test_output_flag_writes_file(tmp_path):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    out_path = tmp_path / "report.json"
    result = run_cli("solve", "--input", path, "--output", str(out_path))
    assert result.returncode == 0
    assert result.stdout == ""
    assert json.loads(out_path.read_text())["value"] == "-2"


def test_decimal_flag_adds_columns(tmp_path):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    result = run_cli("solve", "--input", path, "--decimal", "3")
    out = json.loads(result.stdout)
    assert out["value"] == "-2"
    assert out["value_decimal"] == "-2.000"


def _exact_decimal(text, places):
    # Independent rendering: a decimal context wide enough for the
    # exact half-even rounding of these small values.
    value = Fraction(text)
    with localcontext() as ctx:
        ctx.prec = 200
        dec = Decimal(value.numerator) / Decimal(value.denominator)
        return str(dec.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))


@pytest.mark.parametrize("places", ["29", "40"])
def test_decimal_beyond_28_digits(tmp_path, places):
    payload = copy.deepcopy(CATERPILLAR)
    payload["edges"][0]["len"] = "1/3"
    result = run_cli("solve", "--input", write(tmp_path, "third.json", payload), "--decimal", places)
    assert result.returncode == 0 and "Traceback" not in result.stderr
    out = json.loads(result.stdout)
    assert out["value"] == "-1/18"
    assert out["value_decimal"] == _exact_decimal("-1/18", int(places))
    assert out["value_decimal"] == "-0.0" + "5" * (int(places) - 2) + "6"


def test_decimal_with_many_integer_digits(tmp_path):
    # A value of 32 integer digits rendered with 6 places needs 38.
    payload = json.loads((SAMPLES / "caterpillar.json").read_text())
    payload["edges"][0]["len"] = "10000000000000000"
    result = run_cli("solve", "--input", write(tmp_path, "long.json", payload), "--decimal", "6")
    assert result.returncode == 0 and "Traceback" not in result.stderr
    out = json.loads(result.stdout)
    assert out["value_decimal"] == _exact_decimal(out["value"], 6)
    assert out["value_decimal"].endswith(".000000") and len(out["value_decimal"]) == 40


@pytest.mark.parametrize(
    "value, places, expected",
    [
        (Fraction(5, 2), 0, "2"),
        (Fraction(7, 2), 0, "4"),
        (Fraction(-5, 2), 0, "-2"),
        (Fraction(1, 8), 2, "0.12"),
        (Fraction(3, 8), 2, "0.38"),
        (Fraction(-1, 8), 2, "-0.12"),
        (Fraction(-1, 10**9), 6, "-0.000000"),
        (Fraction(0), 8, "0E-8"),
        (Fraction(1, 3), 30, "0." + "3" * 30),
    ],
)
def test_decimal_string_rounds_half_even(value, places, expected):
    assert decimal_string(value, places) == expected


def test_decimal_string_up_to_the_int_str_limit():
    limit = sys.get_int_max_str_digits()
    assert decimal_string(Fraction(1, 3), limit) == "0." + "3" * limit
    for value, places in ((Fraction(10, 3), limit), (Fraction(0), limit + 1)):
        with pytest.raises(OversizeError, match="int-to-str limit"):
            decimal_string(value, places)


@pytest.mark.parametrize(
    "places, fragment",
    [("-1", "decimal places must be nonnegative"), ("-3", "nonnegative"), ("5000", "int-to-str limit")],
)
def test_decimal_out_of_range_exit_4(tmp_path, places, fragment):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    result = run_cli("solve", "--input", path, "--decimal", places)
    assert result.returncode == 4
    assert "domain error" in result.stderr and fragment in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["family", "--input", str(SAMPLES / "spine_constant.json"), "--tolerance", "abc"],
        ["family", "--input", str(SAMPLES / "spine_constant.json"), "--tolerance", "1/0"],
        ["realize", "--input", str(SAMPLES / "caterpillar.json"), "--times=1,abc"],
        ["realize", "--input", str(SAMPLES / "caterpillar.json"), "--times=1e3"],
    ],
)
def test_bad_flag_value_exit_3(args):
    result = run_cli(*args)
    assert result.returncode == 3
    assert "parse error" in result.stderr and "not a rational" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--input", str(SAMPLES / "caterpillar.json"), "--decimal=abc"],
        ["validate", "--input", str(SAMPLES / "caterpillar.json"), "--decimal=1.5"],
        ["family", "--input", str(SAMPLES / "spine_constant.json"), "--max-level=2.5"],
    ],
    ids=["decimal-abc", "decimal-unused-by-validate", "max-level-2.5"],
)
def test_malformed_integer_flag_exit_3(args):
    result = run_cli(*args)
    assert result.returncode == 3
    assert "parse error" in result.stderr and "must be an integer" in result.stderr
    assert "Traceback" not in result.stderr


def test_byte_identical_reruns(tmp_path):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    for command, extra in (
        (["solve"], []),
        (["flows"], []),
        (["realize"], ["--times=-2,0,5/2"]),
        (["family"], ["--max-level", "8"]),
    ):
        cmd_input = (
            path if command != ["family"] else str(SAMPLES / "spine_constant.json")
        )
        first = run_cli(*command, "--input", cmd_input, *extra)
        second = run_cli(*command, "--input", cmd_input, *extra)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_emitted_artifacts_reparse(tmp_path):
    tree, measures, _ = load_instance(str(SAMPLES / "caterpillar.json"))
    emitted = serialize.tree_to_json(tree)
    emitted["measures"] = serialize.measures_to_json(*measures)
    path = write(tmp_path, "roundtrip.json", emitted)
    tree2, measures2, _ = load_instance(path)
    assert tree2.vertices == tree.vertices
    assert tree2.edges == tree.edges
    assert tree2.ends == tree.ends
    assert measures2 == measures
    assert serialize.tree_to_json(tree2) == serialize.tree_to_json(tree)


def test_coupling_round_trip():
    pi_json = {
        "atoms": [
            {"from": "A", "to": "B", "mass": "1/2"},
            {"from": "C", "to": "D", "mass": "1/2"},
        ]
    }
    pi = serialize.parse_coupling(pi_json)
    assert serialize.coupling_to_json(pi) == pi_json
    assert serialize.parse_coupling(serialize.coupling_to_json(pi)) == pi


def test_family_spec_round_trip():
    data = {
        "kind": "spine",
        "masses": {"kind": "geometric", "ratio": "1/2"},
        "lengths": {"kind": "constant", "value": "1"},
    }
    spec = serialize.parse_family_spec(data)
    masses, lengths = spec.level_data(3)
    assert masses == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert lengths == [Fraction(1)] * 3


def test_int_ids_are_normalized(tmp_path):
    payload = {
        "vertices": [0, 1],
        "base": 0,
        "edges": [{"u": 0, "v": 1, "len": 2}],
        "ends": [
            {"id": "A", "attach": 0},
            {"id": "B", "attach": 0},
            {"id": "C", "attach": 1},
            {"id": "D", "attach": 1},
        ],
        "measures": {"minus": {"A": "1/2", "C": "1/2"}, "plus": {"B": "1/2", "D": "1/2"}},
    }
    path = write(tmp_path, "ints.json", payload)
    result = run_cli("solve", "--input", path)
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == "-2"


SPINE = {
    "kind": "spine",
    "masses": {"kind": "geometric", "ratio": "1/2"},
    "lengths": CONSTANT_RULE,
}


@pytest.mark.parametrize("max_level", ["abc", None, 3.7, 2.5, True, "12", [5]])
def test_family_max_level_not_an_integer_exit_2(tmp_path, max_level):
    path = write(tmp_path, "family.json", {**SPINE, "max_level": max_level})
    result = run_cli("family", "--input", path)
    assert result.returncode == 2
    assert "invalid instance" in result.stderr and "'max_level'" in result.stderr
    assert "Traceback" not in result.stderr


def test_family_integral_float_max_level_is_an_integer(tmp_path):
    as_float = run_cli("family", "--input", write(tmp_path, "f.json", {**SPINE, "max_level": 6.0}))
    as_int = run_cli("family", "--input", write(tmp_path, "i.json", {**SPINE, "max_level": 6}))
    assert as_float.returncode == as_int.returncode == 0
    assert as_float.stdout == as_int.stdout
    assert json.loads(as_float.stdout)["max_level"] == 6


@pytest.mark.parametrize("source", ["flag", "spec"])
def test_family_level_above_cap_exit_4(tmp_path, source):
    if source == "flag":
        args = ["--input", str(SAMPLES / "spine_constant.json"), "--max-level", "99999999999999999999"]
    else:
        args = ["--input", write(tmp_path, "family.json", {**SPINE, "max_level": 1e300})]
    result = run_cli("family", *args)
    assert result.returncode == 4
    assert "domain error" in result.stderr and "level cap of 10000" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("values", [5, "123", {"a": "1"}, None])
def test_family_explicit_values_not_a_list_exit_2(tmp_path, values):
    spec = {**SPINE, "masses": {"kind": "explicit", "values": values}}
    result = run_cli("family", "--input", write(tmp_path, "family.json", spec))
    assert result.returncode == 2
    assert "invalid instance" in result.stderr and "'values'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("length", ["1e5000", "1e-999999999", "2.5E3", "3/4e2"])
@pytest.mark.parametrize("command", ["validate", "flows", "solve"])
def test_exponent_notation_exit_3(tmp_path, command, length):
    payload = json.loads((SAMPLES / "caterpillar.json").read_text())
    payload["edges"][0]["len"] = length
    result = run_cli(command, "--input", write(tmp_path, "exp.json", payload))
    assert result.returncode == 3
    assert "parse error" in result.stderr and "exponent notation" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["flows", "solve", "realize"])
def test_fraction_beyond_int_str_limit_exit_4(tmp_path, command):
    # Each length parses (3000 digits) but the flows and costs built from
    # them need more digits than Python renders as a string.
    payload = json.loads((SAMPLES / "caterpillar.json").read_text())
    for edge in payload["edges"]:
        edge["len"] = "1/" + "7" * 3000
    result = run_cli(command, "--input", write(tmp_path, "sevens.json", payload))
    assert result.returncode == 4
    assert "domain error" in result.stderr and "int-to-str limit" in result.stderr
    assert "Traceback" not in result.stderr


def test_one_process_reuses_the_parser(tmp_path, capsys):
    path = write(tmp_path, "cat.json", CATERPILLAR)
    assert cli.main(["flows", "--input", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["d0", "--input", path, "--decimal", "3"]) == 0
    assert '"d0_decimal": "2.000"' in capsys.readouterr().out
    with pytest.raises(SystemExit) as caught:
        cli.main(["flows", "--input", path, "--no-such-flag"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert cli.main(["flows", "--input", path]) == 0
    assert capsys.readouterr().out == first
    assert '"phi0"' in first and "decimal" not in first
