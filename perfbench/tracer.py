"""Span tracing of ghostline's layers, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records one span (name, start, end, parent) per call.  Every
binding of a wrapped function is replaced: the defining module's own name,
each module that imported it (``weight_space`` and ``verify`` bind their
own ``vp_int``), and values of module-level dicts such as
``verify.SUITES``.  ``Fraction`` constructions are counted, not spanned,
since there are about a million per sweep triple.

Self time is a span's duration minus the time its child spans cover,
accumulated as calls return.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from types import FunctionType
from typing import Dict

LAYERS = ("valuation", "weight_space", "dimensions", "ghost_series",
          "newton", "steinberg", "verify", "cli")

#: ``lru_cache`` functions whose hit ratio is reported, read via cache_info().
CACHED = ("ghost_series.coefficient", "ghost_series.classical_evaluator",
          "steinberg.delta_profile")

#: The hull function, whose wrapper also counts the points it is given.
HULL = "newton.lower_convex_hull"


def _public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, FunctionType) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.hull_points = 0
        self.fractions_created = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._originals: Dict[str, object] = {}

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        is_hull = qualname == HULL
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            if is_hull:
                tracer.hull_points += len(args[0])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        functools.update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module, once."""
        modules = {layer: importlib.import_module(f"ghostline.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                qualname = f"{layer}.{name}"
                self._originals[qualname] = fn
                wrapped[id(fn)] = self._wrap(qualname, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "ghostline" and not modname.startswith("ghostline."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]
        self._count_fractions()

    def _count_fractions(self) -> None:
        original = fractions.Fraction.__new__
        tracer = self

        def counted_new(cls, *args, **kwargs):
            tracer.fractions_created += 1
            return original(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counted_new)

    def stats(self) -> dict:
        """Per-function counts and self times, cache statistics, counters."""
        caches = {}
        for qualname in CACHED:
            info = self._originals[qualname].cache_info()
            caches[qualname] = [info.hits, info.misses]
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "caches": caches,
            "counters": {f"{HULL}.points": self.hull_points,
                         "fractions.Fraction.created": self.fractions_created},
        }

    def write_spans(self, path: Path) -> None:
        """Write spans as a JSON header line followed by four binary arrays:
        name index (int32), parent span (int32, -1 for none), start and end
        (float64 perf_counter seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def merge_stats(parts) -> dict:
    """Sum the stats of several traced processes."""
    total = {"calls": {}, "self_s": {}, "caches": {}, "counters": {}}
    for part in parts:
        for section in ("calls", "self_s", "counters"):
            for key, value in part[section].items():
                total[section][key] = total[section].get(key, 0) + value
        for key, (hits, misses) in part["caches"].items():
            h, m = total["caches"].get(key, (0, 0))
            total["caches"][key] = (h + hits, m + misses)
    return total
