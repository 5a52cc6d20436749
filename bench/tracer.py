"""Per-layer tracing of wassertree from outside the package.

Every public module-level function of a layer module is replaced, at
every name through which the package calls it, by a wrapper that opens a
span.  The constructors of the public non-dataclass classes and the two
lazy caches of ``MetricTree`` (validation and rooting, spanned only when
they are still empty) are wrapped as well, so work done on a caller's
behalf by a constructor or a first lookup is charged to the layer that
owns it.  Methods called on instances are not wrapped: their time is
charged to the caller's span.

A span's self time is its duration minus the time its child spans
cover.  The tracer's own bookkeeping after a span ends (counting, and
walking the returned value for denominator sizes) is measured and
removed from the enclosing span, so the self times of one operation,
plus the time spent outside any span, add up to the operation's wall
time minus that bookkeeping.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import types
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "tree",
    "flows",
    "transport",
    "lp",
    "dynamics",
    "realizability",
    "serialize",
    "cli",
    "rationals",
)

# MetricTree caches its validation report and its rooted index on the
# instance; a span is opened only when the cache is still empty.
LAZY_CACHES = {"validation_report": "_validation", "_root": "_rooted"}

_WALK_DEPTH = 6


def _den_bits(value, depth=_WALK_DEPTH) -> int:
    """Largest denominator bit-length among the Fractions in ``value``."""
    if isinstance(value, Fraction):
        return value.denominator.bit_length()
    if depth == 0:
        return 0
    if isinstance(value, (tuple, list, set, frozenset)):
        items = value
    elif isinstance(value, dict):
        items = value.values()
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:
        return 0
    return max((_den_bits(item, depth - 1) for item in items), default=0)


def _lp_cells(args, kwargs) -> int:
    costs = args[0] if args else kwargs.get("costs", ())
    return len(costs) * (len(costs[0]) if len(costs) else 0)


def _speed_checks(result) -> int:
    return len(getattr(result, "speed_checks", ()))


# Extra counts taken from a call: span key -> (counter, f(args, kwargs)).
CALL_COUNTS = {
    "lp.solve_transportation": ("lp.cells", _lp_cells),
    "lp.min_cost_transport_value": ("lp.cells", _lp_cells),
}
# Extra counts taken from a result: span key -> (counter, f(result)).
RESULT_COUNTS = {"dynamics.verify_geodesic": ("dynamics.speed_checks", _speed_checks)}


class Tracer:
    """Collects span self times, call counts and denominator sizes."""

    def __init__(self):
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_den_bits = 0
        self.bookkeeping = 0.0
        self._child = [0.0]  # time covered by children of each open span

    def span(self, key, fn, when=None):
        call_count = CALL_COUNTS.get(key)
        result_count = RESULT_COUNTS.get(key)
        stack = self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args[0]):
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = stack.pop()
            self.self_time[key] += end - start - child
            self.calls[key] += 1
            if call_count is not None:
                self.counts[call_count[0]] += call_count[1](args, kwargs)
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            bits = _den_bits(result)
            if bits > self.max_den_bits:
                self.max_den_bits = bits
            done = perf_counter()
            self.bookkeeping += done - end
            stack[-1] += done - start
            return result

        return traced


def _package_modules(package: str):
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def install(tracer: Tracer, package: str = "wassertree") -> None:
    """Wrap every layer's public functions, constructors and lazy caches."""
    layer_modules = {}
    for layer in LAYERS:
        try:
            layer_modules[layer] = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            continue
    namespaces = _package_modules(package)
    for layer, module in layer_modules.items():
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                wrapped = tracer.span(f"{layer}.{name}", obj)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, attr, wrapped)
            elif isinstance(obj, type) and not dataclasses.is_dataclass(obj):
                if "__init__" in vars(obj):
                    obj.__init__ = tracer.span(f"{layer}.{name}", obj.__init__)
                for method, cache in LAZY_CACHES.items():
                    if method in vars(obj):
                        empty = functools.partial(_cache_empty, cache)
                        key = f"{layer}.{name}.{method}"
                        setattr(obj, method, tracer.span(key, vars(obj)[method], empty))


def _cache_empty(attr, instance) -> bool:
    return getattr(instance, attr, None) is None
