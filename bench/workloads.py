"""Seeded workloads: input generation, the timed operation, and its check.

Each workload turns a seed into a list of raw items during set-up.  The
timed operation builds every library object fresh from one raw item (a
``MetricTree`` caches its validation and rooting on the instance, so a
reused tree would time a warm cache no caller has) and calls the library
through module attributes, so the tracer's wrappers see every call.

Every check is computed by the benchmark itself from the raw item and
never calls the library path it checks.  A check returns ``None`` when
the result is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

TOLERANCE = Fraction(1, 1000)

DECIDE_VERTICES = (100, 200, 300, 400, 500)
DECIDE_ATOMS = tuple(range(4, 13))
FAMILY_LEVELS = {"constant": tuple(range(12, 23)), "geometric": tuple(range(12, 20))}
DEEP_FLOW_LEVELS = tuple(range(150, 301, 50))
DEEP_D0_LEVELS = (40, 50, 60, 70, 80)
MONOTONE_ATOMS = 8
D0_SAMPLES = 64

# The two spine specs of samples/spine_*.json, copied so that the
# workload cannot change when a sample file does.
SPINE_SPECS = {
    "constant": {
        "kind": "spine",
        "masses": {"kind": "geometric", "ratio": "1/2"},
        "lengths": {"kind": "constant", "value": "1"},
        "max_level": 20,
    },
    "geometric": {
        "kind": "spine",
        "masses": {"kind": "geometric", "ratio": "1/2"},
        "lengths": {"kind": "geometric", "ratio": "2"},
        "max_level": 20,
    },
}


# -- raw trees ----------------------------------------------------------------


def random_length(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), rng.randint(1, 4))


def random_tree(rng: random.Random, n: int, min_ends: int = 2) -> dict:
    """Random attachment on ``n`` vertices, every vertex padded to degree 3."""
    vertices = [f"v{i}" for i in range(n)]
    degree = [0] * n
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        edges.append((vertices[parent], vertices[i], random_length(rng)))
        degree[parent] += 1
        degree[i] += 1
    ends = []
    for i in range(n):
        for _ in range(max(0, 3 - degree[i])):
            ends.append((f"e{len(ends)}", vertices[i]))
    while len(ends) < min_ends:
        ends.append((f"e{len(ends)}", rng.choice(vertices)))
    return {"vertices": vertices, "edges": edges, "ends": ends, "base": rng.choice(vertices)}


def weights(rng: random.Random, support) -> dict:
    raw = [rng.randint(1, 9) for _ in support]
    total = sum(raw)
    return {e: Fraction(w, total) for e, w in zip(support, raw)}


class Rooted:
    """The benchmark's own rooted view of a raw tree (base as root)."""

    def __init__(self, tree: dict):
        adjacency = {v: [] for v in tree["vertices"]}
        for u, v, length in tree["edges"]:
            adjacency[u].append((v, Fraction(length)))
            adjacency[v].append((u, Fraction(length)))
        self.attach = dict(tree["ends"])
        self.parent = {tree["base"]: None}
        self.depth = {tree["base"]: Fraction(0)}
        stack = [tree["base"]]
        while stack:
            v = stack.pop()
            for w, length in adjacency[v]:
                if w not in self.parent:
                    self.parent[w] = v
                    self.depth[w] = self.depth[v] + length
                    stack.append(w)

    def _up(self, v):
        chain = []
        while v is not None:
            chain.append(v)
            v = self.parent[v]
        return chain

    def meet(self, u: str, v: str) -> str:
        above_u = set(self._up(u))
        for w in self._up(v):
            if w in above_u:
                return w
        raise ValueError(f"{u!r} and {v!r} are not connected")

    def gromov(self, a: str, b: str) -> Fraction:
        return self.depth[self.meet(self.attach[a], self.attach[b])]

    def cost(self, a: str, b: str) -> Fraction:
        g = self.gromov(a, b)
        return -g * g

    def oriented_path(self, a: str, b: str) -> set:
        """Oriented finite edges on the path from end ``a`` to end ``b``."""
        u, v = self.attach[a], self.attach[b]
        top = self.meet(u, v)
        edges = set()
        while u != top:
            edges.add((u, self.parent[u]))
            u = self.parent[u]
        while v != top:
            edges.add((self.parent[v], v))
            v = self.parent[v]
        return edges


def antagonist_pair(rooted: Rooted, pairs):
    """The first two pairs that cross an edge in opposite orientations."""
    paths = [rooted.oriented_path(a, b) for a, b in pairs]
    for i, path in enumerate(paths):
        reverse = {(y, x) for x, y in path}
        for j in range(i + 1, len(paths)):
            if reverse & paths[j]:
                return i, j
    return None


# -- decide-wide -----------------------------------------------------------------


# (vertices, atoms of minus, atoms of plus): each vertex count meets every
# minus size once, and every plus size once.
DECIDE_CLASSES = [
    (n, m, DECIDE_ATOMS[(m - DECIDE_ATOMS[0] + 2 * k) % len(DECIDE_ATOMS)])
    for k, n in enumerate(DECIDE_VERTICES)
    for m in DECIDE_ATOMS
]


def decide_item(rng: random.Random, size) -> dict:
    n, m, k = size
    tree = random_tree(rng, n)
    ids = [e for e, _ in tree["ends"]]
    rng.shuffle(ids)
    return {**tree, "minus": weights(rng, ids[:m]), "plus": weights(rng, ids[m : m + k])}


def decide_run(wt, item):
    tree = wt.MetricTree(item["vertices"], item["edges"], item["ends"], item["base"])
    return wt.decide(tree, wt.BoundaryMeasure(item["minus"]), wt.BoundaryMeasure(item["plus"]))


def decide_check(item, report):
    if report.verdict != "realizable":
        return f"verdict {report.verdict}"
    if not report.geodesic.passed:
        return "geodesic verification failed"
    left, right = {}, {}
    for (a, b), mass in report.coupling.atoms.items():
        left[a] = left.get(a, 0) + mass
        right[b] = right.get(b, 0) + mass
    if left != item["minus"] or right != item["plus"]:
        return "coupling marginals differ from the measures"
    if len(report.coupling.atoms) > len(item["minus"]) + len(item["plus"]) - 1:
        return f"coupling has {len(report.coupling.atoms)} atoms, more than m+n-1"
    if report.lp_value != -report.flow_moment:
        return f"lp_value {report.lp_value} != -flow_moment {report.flow_moment}"
    return None


# -- family-spine ------------------------------------------------------------


FAMILY_CLASSES = [(name, k) for name, levels in FAMILY_LEVELS.items() for k in levels]


def family_item(rng: random.Random, size) -> dict:
    name, level = size
    return {"spec": name, "level": level}


def family_run(wt, item):
    spec = wt.FamilySpec.from_json(SPINE_SPECS[item["spec"]])
    return wt.family_analyze(spec, item["level"], TOLERANCE)


def _rule(rule: dict, count: int) -> list:
    if rule["kind"] == "constant":
        return [Fraction(rule["value"])] * count
    ratio, scale = Fraction(rule["ratio"]), Fraction(rule.get("scale", 1))
    return [scale * ratio**k for k in range(1, count + 1)]


def closed_form_moments(spec: dict, levels: int) -> list:
    """Moment sum at each level K: (sum_{m<K} p_{m+1} D_m^2) / (p_1+...+p_K)."""
    p = _rule(spec["masses"], levels)
    lengths = _rule(spec["lengths"], levels)
    out, numerator, mass, depth = [], Fraction(0), Fraction(0), Fraction(0)
    for k in range(levels):
        if k:
            depth += lengths[k - 1]
            numerator += p[k] * depth * depth
        mass += p[k]
        out.append(numerator / mass)
    return out


def family_check(item, verdict):
    level = item["level"]
    if tuple(verdict.levels) != tuple(range(1, level + 1)):
        return f"levels {verdict.levels[:3]}... for max level {level}"
    expected = closed_form_moments(SPINE_SPECS[item["spec"]], level)
    for k, (moment, lp, closed) in enumerate(zip(verdict.moment_sums, verdict.lp_values, expected), 1):
        if lp != -moment:
            return f"level {k}: lp {lp} != -moment {moment}"
        if moment != closed:
            return f"level {k}: moment {moment} != closed form {closed}"
    return None


# -- cli-deep ---------------------------------------------------------------


def spine_instance(rng: random.Random, levels: int) -> dict:
    """Canonical spine truncation with harmonic masses 1/k, renormalized."""
    # Vertices u0..u{K-1}: T_K shares u{K-1} with T_{K-1}, as canonicalize
    # would leave it.
    vertices = [f"u{i}" for i in range(levels)]
    edges = [(vertices[i - 1], vertices[i], random_length(rng)) for i in range(1, levels)]
    ends = [(f"S{k}", vertices[k - 1]) for k in range(1, levels + 1)]
    ends += [(f"T{k}", vertices[min(k, levels - 1)]) for k in range(1, levels + 1)]
    total = sum(Fraction(1, k) for k in range(1, levels + 1))
    minus = {f"S{k}": Fraction(1, k) / total for k in range(1, levels + 1)}
    plus = {f"T{k}": Fraction(1, k) / total for k in range(1, levels + 1)}
    return {"vertices": vertices, "edges": edges, "ends": ends, "base": vertices[0], "minus": minus, "plus": plus}


def matching_instance(rng: random.Random, monotone: bool) -> dict:
    """A uniform 8-atom matching on a tree of at most 30 vertices.

    Monotone instances are uncrossed by target swaps until no two pairs
    cross an edge in opposite orientations; crossed instances are drawn
    until some two pairs do.  Antagonism-free couplings are exactly the
    cyclically monotone ones (acceptance criterion 4).
    """
    k = MONOTONE_ATOMS
    while True:
        tree = random_tree(rng, rng.randint(16, 30), min_ends=2 * k)
        rooted = Rooted(tree)
        ids = [e for e, _ in tree["ends"]]
        rng.shuffle(ids)
        sources, targets = ids[:k], ids[k : 2 * k]
        crossed = antagonist_pair(rooted, zip(sources, targets)) is not None
        if monotone:
            targets = uncrossed(rooted, sources, targets)
            if targets is None:
                continue
        elif not crossed:
            continue
        mass = Fraction(1, k)
        return {
            **tree,
            "minus": {a: mass for a in sources},
            "plus": {b: mass for b in targets},
            "coupling": {(a, b): mass for a, b in zip(sources, targets)},
            "monotone": monotone,
        }


def uncrossed(rooted: Rooted, sources, targets, max_swaps: int = 200):
    targets = list(targets)
    for _ in range(max_swaps):
        swap = antagonist_pair(rooted, zip(sources, targets))
        if swap is None:
            return targets
        i, j = swap
        targets[i], targets[j] = targets[j], targets[i]
    return None


def instance_json(item: dict) -> dict:
    out = {
        "vertices": item["vertices"],
        "base": item["base"],
        "edges": [{"u": u, "v": v, "len": str(length)} for u, v, length in item["edges"]],
        "ends": [{"id": e, "attach": a} for e, a in item["ends"]],
        "measures": {
            "minus": {e: str(m) for e, m in item["minus"].items()},
            "plus": {e: str(m) for e, m in item["plus"].items()},
        },
    }
    if "coupling" in item:
        out["coupling"] = {
            "atoms": [{"from": a, "to": b, "mass": str(m)} for (a, b), m in item["coupling"].items()]
        }
    return out


# (command, spine levels, or whether the coupling is monotone)
DEEP_CLASSES = (
    [("validate", k) for k in DEEP_FLOW_LEVELS]
    + [("flows", k) for k in DEEP_FLOW_LEVELS]
    + [("d0", k) for k in DEEP_D0_LEVELS]
    + [("check-monotone", True)] * 2
    + [("check-monotone", False)] * 2
)


def deep_item(rng: random.Random, size) -> dict:
    command, arg = size
    if command == "check-monotone":
        item = matching_instance(rng, monotone=arg)
    else:
        item = spine_instance(rng, arg)
    item["command"] = command
    return item


def write_deep_files(items: list, workdir: str) -> None:
    for index, item in enumerate(items):
        path = os.path.join(workdir, f"in{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(instance_json(item), handle)
        item["input"] = path
        item["output"] = os.path.join(workdir, "out.json")


def deep_run(wt, item):
    if os.path.exists(item["output"]):
        os.remove(item["output"])
    code = wt.cli.main([item["command"], "--input", item["input"], "--output", item["output"]])
    with open(item["output"], encoding="utf-8") as handle:
        return code, json.load(handle)


def deep_check(item, result):
    code, out = result
    if code != 0:
        return f"exit code {code}"
    return DEEP_CHECKS[item["command"]](item, out)


def _check_validate(item, out):
    return None if out.get("valid") is True else f"instance reported invalid: {out.get('violations')}"


def _check_flows(item, out):
    attach = dict(item["ends"])
    outflow = {v: Fraction(0) for v in item["vertices"]}
    for entry in out["edges"]:
        phi = Fraction(entry["phi"])
        name = entry["edge"]
        if name.startswith("end:"):
            end = name[4:]
            net = item["plus"].get(end, 0) - item["minus"].get(end, 0)
            if phi != net:
                return f"end {end}: flow {phi} != plus - minus {net}"
            outflow[attach[end]] += phi
        else:
            u, v = name.split("~")
            outflow[u] += phi
            outflow[v] -= phi
    for v, total in outflow.items():
        if total != 0:
            return f"vertex {v}: flows do not conserve mass (net {total})"
    return None


def _check_d0(item, out):
    pairs = out["pairs"]
    ends = len(item["ends"])
    if len(pairs) != ends * (ends - 1) // 2:
        return f"{len(pairs)} pairs for {ends} ends"
    rooted = Rooted(item)
    sample = random.Random(len(pairs)).sample(pairs, min(D0_SAMPLES, len(pairs)))
    for entry in sample:
        expected = rooted.gromov(entry["a"], entry["b"])
        if Fraction(entry["d0"]) != expected:
            return f"d0({entry['a']},{entry['b']}) = {entry['d0']} != depth of meet {expected}"
    return None


def _check_monotone(item, out):
    if out["monotone"] is not item["monotone"]:
        return f"monotone verdict {out['monotone']}, expected {item['monotone']}"
    if out["monotone"]:
        return None if "witness" not in out else "monotone verdict carries a witness"
    cycle = [(step["from"], step["to"]) for step in out.get("witness", ())]
    if not cycle:
        return "non-monotone verdict without a witness"
    if any(pair not in item["coupling"] for pair in cycle):
        return "witness leaves the coupling's support"
    rooted = Rooted(item)
    kept = sum(rooted.cost(a, b) for a, b in cycle)
    shifted = sum(rooted.cost(a, cycle[(i + 1) % len(cycle)][1]) for i, (a, _) in enumerate(cycle))
    if not kept > shifted:
        return f"witness cycle is not strictly violating ({kept} <= {shifted})"
    return None


DEEP_CHECKS = {
    "validate": _check_validate,
    "flows": _check_flows,
    "d0": _check_d0,
    "check-monotone": _check_monotone,
}


class Workload:
    """Size classes, and how to make, run and check one item of a class.

    Inputs come in blocks that hold every class once, in a seeded order,
    so all seeds load the same mix and differ only in the random
    structure inside each class.
    """

    def __init__(self, name, classes, item, run, check, files=None):
        self.name = name
        self.classes = classes
        self.block = len(classes)
        self.item = item
        self.run = run
        self.check = check
        self.files = files

    def items(self, rng: random.Random, blocks: int) -> list:
        out = []
        for _ in range(blocks):
            order = list(self.classes)
            rng.shuffle(order)
            out.extend(self.item(rng, size) for size in order)
        return out


WORKLOADS = {
    "decide-wide": Workload("decide-wide", DECIDE_CLASSES, decide_item, decide_run, decide_check),
    "family-spine": Workload("family-spine", FAMILY_CLASSES, family_item, family_run, family_check),
    "cli-deep": Workload("cli-deep", DEEP_CLASSES, deep_item, deep_run, deep_check, write_deep_files),
}
