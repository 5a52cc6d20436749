"""Command-line front end.

Subcommands: validate | flows | d0 | solve | check-monotone | realize |
family.  Exit codes: 0 ok, 2 invalid instance, 3 parse error, 4 domain
error.  All reports are JSON with sorted keys and exact fractions;
``--decimal N`` adds decimal renderings next to the fractions without
replacing them.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import serialize
from .dot import tree_to_dot
from .dynamics import snapshots
from .errors import DomainError, ParseError, StructureError
from .flows import compute_flow_field, specific_flow_second_moment
from .rationals import decimal_string, format_fraction, parse_fraction
from .realizability import decide, family_analyze
from .transport import is_cyclically_monotone, solve_optimal_coupling
from .tree import validate_tree

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a parse error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_output(text: str, path):
    if path:
        _write_file(path, text)
    else:
        sys.stdout.write(text)


def _require_measures(measures):
    if measures is None:
        raise DomainError("instance file has no 'measures' section")
    return measures


def cmd_validate(args) -> int:
    data = serialize.load_raw(args.input)
    tree = serialize.parse_tree(data)
    report = validate_tree(tree)
    violations = list(report.violations)
    if "measures" in data:
        try:
            minus, plus = serialize.parse_measures(data["measures"])
        except DomainError as exc:
            violations.append(f"bad measures: {exc}")
        else:
            if report.valid:
                known = set(tree.ends)
                for name, measure in (("minus", minus), ("plus", plus)):
                    extra = sorted(measure.support - known)
                    if extra:
                        violations.append(f"measure {name} charges unknown ends: {extra}")
    out = {
        "valid": not violations,
        "violations": violations,
        "warnings": list(report.warnings),
    }
    _write_output(serialize.dumps(out), args.output)
    return EXIT_OK if not violations else EXIT_INVALID


def cmd_flows(args) -> int:
    tree, measures, _ = serialize.load_instance(args.input)
    minus, plus = _require_measures(measures)
    ff = compute_flow_field(tree, minus, plus)
    out = serialize.flow_field_to_json(ff, decimal=args.decimal)
    moment = specific_flow_second_moment(tree, ff)
    out["specific_flow_moment"] = format_fraction(moment)
    if args.decimal is not None:
        out["specific_flow_moment_decimal"] = decimal_string(moment, args.decimal)
    _write_output(serialize.dumps(out), args.output)
    return EXIT_OK


def cmd_d0(args) -> int:
    """The Gromov product (a|b), the depth of the two ends' meet, of every pair."""
    tree, _measures, _ = serialize.load_instance(args.input)
    tree.require_valid()
    _write_output(serialize.d0_to_text(tree, args.decimal), args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    tree, measures, _ = serialize.load_instance(args.input)
    minus, plus = _require_measures(measures)
    coupling, value = solve_optimal_coupling(compute_flow_field(tree, minus, plus))
    out = {
        "value": format_fraction(value),
        "coupling": serialize.coupling_to_json(coupling)["atoms"],
    }
    if args.decimal is not None:
        out["value_decimal"] = decimal_string(value, args.decimal)
    _write_output(serialize.dumps(out), args.output)
    return EXIT_OK


def cmd_check_monotone(args) -> int:
    tree, measures, coupling = serialize.load_instance(args.input)
    minus, plus = _require_measures(measures)
    if coupling is None:
        raise DomainError("instance file has no 'coupling' section")
    left, right = coupling.marginals()
    if left != minus or right != plus:
        raise DomainError("coupling marginals do not match the measures")
    result = is_cyclically_monotone(coupling, tree)
    _write_output(serialize.dumps(serialize.monotonicity_to_json(result)), args.output)
    return EXIT_OK


def cmd_realize(args) -> int:
    times = [parse_fraction(part) for part in args.times.split(",") if part.strip()]
    tree, measures, _ = serialize.load_instance(args.input)
    minus, plus = _require_measures(measures)
    report = decide(tree, minus, plus)
    geodesics = snaps = None
    if report.verdict == "realizable":
        # One walk per atom serves the snapshots and the plan's vertex chains.
        geodesics = [a.geodesic(tree) for a in report.plan.atoms]
        if times:
            snaps = snapshots(report.plan, times, tree, geodesics)
    out = serialize.realizability_to_json(report, tree, snaps, args.decimal, geodesics)
    text = serialize.dumps(out)
    if args.dot:
        # Written before the report, so an unwritable path leaves no report behind.
        _write_file(args.dot, tree_to_dot(tree, ff=report.flow_field, plan=report.plan))
    _write_output(text, args.output)
    return EXIT_OK if report.verdict == "realizable" else EXIT_DOMAIN


def _spec_max_level(data: dict) -> int:
    """The spec's ``max_level``: a JSON integer (an integral number)."""
    value = data.get("max_level", 10)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructureError(f"family spec key 'max_level' must be an integer, got {value!r}")
    return value


def cmd_family(args) -> int:
    data = serialize.load_raw(args.input)
    spec = serialize.parse_family_spec(data)
    max_level = args.max_level if args.max_level is not None else _spec_max_level(data)
    verdict = family_analyze(spec, max_level, args.tolerance)
    out = serialize.family_verdict_to_json(verdict, decimal=args.decimal)
    _write_output(serialize.dumps(out), args.output)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wassertree",
        description="Exact transport between boundary measures of a metric tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_tolerance=False, needs_times=False, needs_level=False, dot=False):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--decimal", default=None, metavar="N",
                       help="add N-digit decimal renderings next to fractions")
        if needs_times:
            p.add_argument("--times", default="",
                           help="comma-separated rational times; use the = form "
                                "for negative values, e.g. --times=-1,0,1/2,3")
        if needs_level:
            p.add_argument("--max-level", default=None, metavar="K")
        if needs_tolerance:
            p.add_argument("--tolerance", default="1/1000", metavar="p/q")
        if dot:
            p.add_argument("--dot", default=None, metavar="PATH",
                           help="write a Graphviz DOT rendering of the tree")

    handlers = {
        "validate": (cmd_validate, {}),
        "flows": (cmd_flows, {}),
        "d0": (cmd_d0, {}),
        "solve": (cmd_solve, {}),
        "check-monotone": (cmd_check_monotone, {}),
        "realize": (cmd_realize, {"needs_times": True, "dot": True}),
        "family": (cmd_family, {"needs_tolerance": True, "needs_level": True}),
    }
    for name, (handler, options) in handlers.items():
        p = sub.add_parser(name)
        common(p, **options)
        p.set_defaults(handler=handler)
    return parser


def _parse_integer_flags(args) -> None:
    """Read ``--decimal`` and ``--max-level`` as integers; a malformed one is a parse error."""
    for name in ("decimal", "max_level"):
        value = getattr(args, name, None)
        if value is None:
            continue
        try:
            setattr(args, name, int(value))
        except ValueError as exc:
            flag = "--" + name.replace("_", "-")
            raise ParseError(f"{flag} must be an integer, got {value!r}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _parse_integer_flags(args)
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StructureError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
