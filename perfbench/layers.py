"""Per-layer metrics derived from trace statistics.

``baseline.json`` records, for each of them, the end-to-end metric and
workload it is expected to move.
"""

from __future__ import annotations

from .tracer import LAYERS
from .workloads import SWEEP_SUITES

_FUNCTIONS = {
    "calls": (
        "valuation.vp_int", "valuation.vp_factorial", "valuation.sum_vp_arith_prog",
        "weight_space.vp_point_to_weight", "ghost_series.eval_vp",
        "ghost_series.coefficient", "ghost_series.degree_fast",
        "ghost_series.increment_at", "newton.lower_convex_hull", "newton.np_of_ghost",
        "newton.slope_at", "steinberg.delta_profile",
    ),
    "self_s": (
        "weight_space.vp_point_to_weight", "ghost_series.eval_vp",
        "ghost_series.coefficient", "ghost_series.increment_at",
        "newton.lower_convex_hull", "newton.np_of_ghost", "newton.slope_at",
        "steinberg.delta_profile", "steinberg.near_steinberg_ranges",
        "steinberg.check_nested", "steinberg.vertex_theorem_check",
        "cli.main", "cli.render",
    ),
}
_RATIOS = {
    "ghost_series.coefficient.hit_ratio": "ghost_series.coefficient",
    "ghost_series.classical_evaluator.hit_ratio": "ghost_series.classical_evaluator",
    "steinberg.delta_profile.hit_ratio": "steinberg.delta_profile",
}

UNITS = {}
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS.update({f"{fn}.calls": "count" for fn in _FUNCTIONS["calls"]})
UNITS.update({f"{fn}.self_s": "s" for fn in _FUNCTIONS["self_s"]})
UNITS.update({name: "ratio" for name in _RATIOS})
UNITS.update({
    "dimensions.calls": "count",
    "newton.lower_convex_hull.points": "count",
    "newton.buffer_doublings": "count",
    "verify.pool.idle_s": "s",
    "fractions.Fraction.created": "count",
    "trace.overhead_s": "s",
})
UNITS.update({f"verify.{suite}.cpu_s": "s" for suite in SWEEP_SUITES})

def per_layer_metrics(stats: dict, suite_cpu: dict, idle_s: float, overhead_s: float):
    """Every per-layer metric by name, plus note lines giving ratio bases."""
    calls, self_s = stats["calls"], stats["self_s"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(f"{layer}."))
    out["dimensions.calls"] = sum(v for k, v in calls.items() if k.startswith("dimensions."))
    for fn in _FUNCTIONS["calls"]:
        out[f"{fn}.calls"] = calls[fn]
    for fn in _FUNCTIONS["self_s"]:
        out[f"{fn}.self_s"] = self_s[fn]
    notes = []
    for name, fn in _RATIOS.items():
        hits, misses = stats["caches"][fn]
        lookups = hits + misses
        out[name] = hits / lookups if lookups else 0.0
        notes.append(f"{name}: {hits} hits of {lookups} lookups")
    out["newton.lower_convex_hull.points"] = stats["counters"]["newton.lower_convex_hull.points"]
    out["newton.buffer_doublings"] = calls["newton.np_of_ghost"] - calls["newton.np_of_ghost_auto"]
    notes.append(f"newton.buffer_doublings: {calls['newton.np_of_ghost']} np_of_ghost calls "
                 f"minus {calls['newton.np_of_ghost_auto']} np_of_ghost_auto calls")
    for suite in SWEEP_SUITES:
        out[f"verify.{suite}.cpu_s"] = suite_cpu.get(suite, 0.0)
    out["verify.pool.idle_s"] = idle_s
    out["fractions.Fraction.created"] = stats["counters"]["fractions.Fraction.created"]
    out["trace.overhead_s"] = overhead_s
    busiest = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    notes.append("busiest functions by self time: " + ", ".join(
        f"{k} {v:.3f} s / {calls[k]} calls" for k, v in busiest))
    return {name: out[name] for name in UNITS}, notes
