"""JSON wire formats.

Instance files hold the tree at top level and may embed the two
boundary measures (key ``"measures"``) and a coupling (key
``"coupling"``) so that every command reads a single input file:

    {
      "vertices": ["v0", "v1"],
      "base": "v0",
      "edges": [{"u": "v0", "v": "v1", "len": "2"}],
      "ends": [{"id": "A", "attach": "v0"}, ...],
      "measures": {"minus": {"A": "1/2", ...}, "plus": {...}},
      "coupling": {"atoms": [{"from": "A", "to": "B", "mass": "1/2"}]}
    }

All rationals are exact "p/q" strings, ids are strings (integers in
input files are accepted and normalized), and every emitter sorts its
keys so identical inputs produce byte-identical files.

:func:`dumps` renders a report with its own one-pass renderer, and its
output is byte for byte that of ``json.dumps(obj, sort_keys=True,
indent=2)`` plus a newline; ``tests/test_serialize.py`` checks this
against the standard library on generated values.  Most of a report's
bytes are lists of flat rows: dicts with the same string keys and only
string values (``d0`` pairs, flow edges and vertices, coupling atoms,
witnesses).  The renderer fills such a list from one ``%``-template
built from the sorted quoted keys, one quoted value per field, and
renders any other list item by item.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Optional

from .dynamics import DynamicalPlan, GeodesicReport, Snapshot
from .errors import ParseError
from .flows import BoundaryMeasure, FlowField, flow_class
from .rationals import decimal_string, format_fraction, parse_fraction
from .realizability import FamilySpec, FamilyVerdict, RealizabilityReport
from .transport import Coupling, MonotonicityResult
from .tree import MetricTree, TreePoint

__all__ = [
    "load_instance",
    "parse_tree",
    "parse_measures",
    "parse_coupling",
    "parse_family_spec",
    "tree_to_json",
    "measures_to_json",
    "coupling_to_json",
    "flow_field_to_json",
    "snapshot_to_json",
    "plan_to_json",
    "realizability_to_json",
    "family_verdict_to_json",
    "monotonicity_to_json",
    "point_to_json",
    "dumps",
]


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, rendered in one pass.

    Takes dicts with ``str`` keys, lists, tuples, ``str``, ``int``,
    ``bool`` and ``None``: every type the emitters below produce.  Any
    other value, such as a float or a non-string key, is a
    :class:`TypeError`.
    """
    return _render(obj, "") + "\n"


def _render(value, indent: str) -> str:
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            # Strings, the most common values, skip the recursive call.
            text = _quote(item) if type(item) is str else _render(item, inner)
            parts.append(_quote(key) + ": " + text)
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        parts = _render_rows(value, inner)
        if parts is None:
            parts = [_render(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_rows(rows, indent: str):
    """The rendered items of a list of flat rows, or ``None`` for any other sequence.

    A flat row is a ``dict`` (not a subclass) whose values are all
    ``str``; a ``list`` (not a tuple) qualifies when every item is one
    with exactly the first item's ``str`` keys.  Then one ``%``-template,
    built once from the sorted quoted keys, renders every row.  Anything
    else (a missing or extra key, a value of another type, an item that
    is no ``dict``) returns ``None``, and :func:`_render` renders the
    items one by one, raising any :class:`TypeError` it should.
    """
    first = rows[0]
    if type(rows) is not list or type(first) is not dict or not first:
        return None
    if any(type(key) is not str for key in first):
        return None
    keys = sorted(first)
    inner = indent + "  "
    fields = (",\n" + inner).join(_quote(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{\n" + inner + fields + "\n" + indent + "}"
    count = len(keys)
    values = itemgetter(*keys) if count > 1 else lambda row: (row[keys[0]],)
    parts = []
    try:
        for row in rows:
            if type(row) is not dict or len(row) != count:
                return None
            # A key the first row lacks is a KeyError, since the row has
            # as many keys; _quote refuses any value that is not a str.
            parts.append(template % tuple(map(_quote, values(row))))
    except (KeyError, TypeError):
        return None
    return parts


def _expect(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


def _id(value) -> str:
    _expect(isinstance(value, (str, int)) and not isinstance(value, bool), f"bad id {value!r}")
    return str(value)


def parse_tree(data: dict) -> MetricTree:
    _expect(isinstance(data, dict), "instance must be a JSON object")
    for key in ("vertices", "base", "edges", "ends"):
        _expect(key in data, f"missing key {key!r}")
    _expect(isinstance(data["vertices"], list), "'vertices' must be a list")
    _expect(isinstance(data["edges"], list), "'edges' must be a list")
    _expect(isinstance(data["ends"], list), "'ends' must be a list")
    vertices = [_id(v) for v in data["vertices"]]
    edges = []
    for item in data["edges"]:
        _expect(isinstance(item, dict) and {"u", "v", "len"} <= set(item), "edge needs u, v, len")
        edges.append((_id(item["u"]), _id(item["v"]), parse_fraction(item["len"])))
    ends = []
    for item in data["ends"]:
        _expect(isinstance(item, dict) and {"id", "attach"} <= set(item), "end needs id, attach")
        ends.append((_id(item["id"]), _id(item["attach"])))
    end_ids = [e for e, _ in ends]
    _expect(len(end_ids) == len(set(end_ids)), "duplicate end ids")
    return MetricTree(vertices=vertices, edges=edges, ends=ends, base=_id(data["base"]))


def parse_measures(data: dict) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    _expect(isinstance(data, dict) and {"minus", "plus"} <= set(data), "measures need minus and plus")
    for side in ("minus", "plus"):
        _expect(isinstance(data[side], dict), f"measure {side!r} must map end ids to masses")
    minus = BoundaryMeasure({_id(k): parse_fraction(v) for k, v in data["minus"].items()})
    plus = BoundaryMeasure({_id(k): parse_fraction(v) for k, v in data["plus"].items()})
    return minus, plus


def parse_coupling(data: dict) -> Coupling:
    _expect(isinstance(data, dict) and "atoms" in data, "coupling needs an atoms list")
    _expect(isinstance(data["atoms"], list), "coupling 'atoms' must be a list")
    atoms = {}
    for item in data["atoms"]:
        _expect(
            isinstance(item, dict) and {"from", "to", "mass"} <= set(item),
            "coupling atom needs from, to, mass",
        )
        key = (_id(item["from"]), _id(item["to"]))
        atoms[key] = atoms.get(key, Fraction(0)) + parse_fraction(item["mass"])
    return Coupling(atoms)


def parse_family_spec(data: dict) -> FamilySpec:
    _expect(isinstance(data, dict), "family spec must be a JSON object")
    return FamilySpec.from_json(data)


def load_raw(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested deeper than the recursion limit") from exc
    except ValueError as exc:  # an integer past Python's int-to-str digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_instance(path: str):
    """Read an instance file: tree plus optional measures and coupling."""
    data = load_raw(path)
    tree = parse_tree(data)
    measures = parse_measures(data["measures"]) if "measures" in data else None
    coupling = parse_coupling(data["coupling"]) if "coupling" in data else None
    return tree, measures, coupling


# -- emitters ----------------------------------------------------------------


def tree_to_json(t: MetricTree) -> dict:
    return {
        "vertices": list(t.vertices),
        "base": t.base,
        "edges": [
            {"u": u, "v": v, "len": format_fraction(length)} for u, v, length in t.edges
        ],
        "ends": [{"id": e, "attach": a} for e, a in sorted(t.ends.items())],
    }


def measures_to_json(minus: BoundaryMeasure, plus: BoundaryMeasure) -> dict:
    return {
        "minus": {e: format_fraction(m) for e, m in sorted(minus.atoms.items())},
        "plus": {e: format_fraction(m) for e, m in sorted(plus.atoms.items())},
    }


def coupling_to_json(pi: Coupling) -> dict:
    return {
        "atoms": [
            {"from": a, "to": b, "mass": format_fraction(m)}
            for (a, b), m in sorted(pi.atoms.items())
        ]
    }


def _edge_id(u: str, v: str) -> str:
    return f"{u}~{v}"


def _flow_entry(edge_id: str, phi: Fraction, decimal: Optional[int]) -> dict:
    entry = {"edge": edge_id, "phi": format_fraction(phi), "class": flow_class(phi)}
    if decimal is not None:
        entry["phi_decimal"] = decimal_string(phi, decimal)
    return entry


def flow_field_to_json(ff: FlowField, decimal: Optional[int] = None) -> dict:
    """Every finite edge, end-edge and vertex of the tree, in id order."""
    t = ff.tree
    edges = [_flow_entry(_edge_id(u, v), phi, decimal) for (u, v), phi in ff.edge_flows()]
    edges += [_flow_entry(f"end:{e}", ff.flow_to_end(e), decimal) for e in t.ends]
    out, specific, zero = ff.out, ff.specific, Fraction(0)
    vertices = []
    for x in t.vertices:
        phi, phi0 = out.get(x, zero), specific.get(x, zero)
        entry = {"vertex": x, "phi": format_fraction(phi), "phi0": format_fraction(phi0)}
        if decimal is not None:
            entry["phi_decimal"] = decimal_string(phi, decimal)
            entry["phi0_decimal"] = decimal_string(phi0, decimal)
        vertices.append(entry)
    return {"edges": edges, "vertices": vertices}


def point_to_json(p: TreePoint, t: MetricTree) -> dict:
    if p.kind == "vertex":
        return {"vertex": p.vertex}
    if p.kind == "edge":
        u, v = p.edge
        return {"edge": _edge_id(u, v), "from": u, "offset": format_fraction(p.offset)}
    return {
        "edge": f"end:{p.end}",
        "from": t.attach(p.end),
        "offset": format_fraction(p.offset),
    }


def snapshot_to_json(s: Snapshot, t: MetricTree, decimal: Optional[int] = None) -> dict:
    atoms = []
    for p in sorted(s.atoms, key=TreePoint.sort_key):
        entry = {"point": point_to_json(p, t), "mass": format_fraction(s.atoms[p])}
        if decimal is not None:
            entry["mass_decimal"] = decimal_string(s.atoms[p], decimal)
        atoms.append(entry)
    return {"time": format_fraction(s.time), "atoms": atoms}


def plan_to_json(plan: DynamicalPlan, t: MetricTree, geodesics=None) -> dict:
    """Each atom's ends, mass, offset and vertex chain, read from ``geodesics``
    (the atoms' :meth:`~wassertree.dynamics.PlanAtom.geodesic` in plan
    order) when given, else from one path walk per atom."""
    if geodesics is None:
        geodesics = [a.geodesic(t) for a in plan.atoms]
    atoms = []
    for a, (vertices, _, k) in zip(plan.atoms, geodesics):
        atoms.append(
            {
                "source": a.source,
                "target": a.target,
                "mass": format_fraction(a.mass),
                "base_vertex": vertices[k],
                "time_offset": format_fraction(a.time_offset),
                "vertices": list(vertices),
            }
        )
    return {"atoms": atoms}


def _geodesic_to_json(report: GeodesicReport) -> dict:
    return {
        "antagonism_free": report.antagonism_free,
        "tau_isometric": report.tau_isometric,
        "speed_ok": report.speed_ok,
        "speed_checks": [
            {
                "r": format_fraction(r),
                "s": format_fraction(s),
                "value": format_fraction(value),
                "expected": format_fraction(expected),
                "ok": ok,
            }
            for (r, s, value, expected, ok) in report.speed_checks
        ],
        "passed": report.passed,
    }


def realizability_to_json(
    report: RealizabilityReport,
    t: MetricTree,
    snapshots: Optional[list[Snapshot]] = None,
    decimal: Optional[int] = None,
    geodesics=None,
) -> dict:
    """The report, its plan rendered from ``geodesics`` as :func:`plan_to_json` does."""
    out: dict = {"antipodal": report.antipodal, "verdict": report.verdict}
    if report.lp_value is not None:
        out["lp_value"] = format_fraction(report.lp_value)
        out["specific_flow_moment"] = format_fraction(report.flow_moment)
        if decimal is not None:
            out["lp_value_decimal"] = decimal_string(report.lp_value, decimal)
            out["specific_flow_moment_decimal"] = decimal_string(report.flow_moment, decimal)
        out["coupling"] = coupling_to_json(report.coupling)["atoms"]
        out["plan"] = plan_to_json(report.plan, t, geodesics)["atoms"]
        out["geodesic"] = _geodesic_to_json(report.geodesic)
    if snapshots is not None:
        out["snapshots"] = [snapshot_to_json(s, t, decimal) for s in snapshots]
    return out


def family_verdict_to_json(verdict: FamilyVerdict, decimal: Optional[int] = None) -> dict:
    levels = []
    for idx, level in enumerate(verdict.levels):
        entry = {
            "level": level,
            "specific_flow_moment": format_fraction(verdict.moment_sums[idx]),
            "lp_value": format_fraction(verdict.lp_values[idx]),
            "increment": format_fraction(verdict.increments[idx]),
        }
        if decimal is not None:
            entry["specific_flow_moment_decimal"] = decimal_string(
                verdict.moment_sums[idx], decimal
            )
            entry["lp_value_decimal"] = decimal_string(verdict.lp_values[idx], decimal)
        levels.append(entry)
    return {
        "levels": levels,
        "classification": verdict.classification,
        "tolerance": format_fraction(verdict.tolerance),
        "max_level": verdict.max_level,
        "converged_at": verdict.converged_at,
    }


def monotonicity_to_json(result: MonotonicityResult) -> dict:
    out = {
        "monotone": result.monotone,
        "exhaustive": result.exhaustive,
        "mode": "exhaustive" if result.exhaustive else "partial",
    }
    if result.witness is not None:
        out["witness"] = [{"from": a, "to": b} for (a, b) in result.witness]
    return out
