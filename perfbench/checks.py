"""Correctness oracles for benchmark outputs, run outside the timed region.

Each check returns None when the output is right and a one-line reason
otherwise.  ``digest`` hashes outputs with the timing field ``elapsed``
removed, so two commits can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Iterable, List, Optional

from ghostline import ghost_series
from ghostline.valuation import INF
from ghostline.weight_space import Boundary, Classical, parse_point

from .workloads import SWEEP_SUITES, Query

#: Vertices per classical polygon recomputed by the factored evaluator,
#: which costs O(n) valuations per vertex.
ORACLE_VERTICES = 8


def _rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _check_np(query: Query, out: dict) -> Optional[str]:
    nmax = int(query.flag("nmax"))
    if out["certified_upto"] < nmax:
        return f"certified_upto {out['certified_upto']} < nmax {nmax}"
    verts = [(x, _rational(y)) for x, y in out["vertices"]]
    slopes = [(_rational(s), w) for s, w in out["slopes"]]
    if verts[0] != (0, 0):
        return f"first vertex {verts[0]} is not (0, 0)"
    if verts[-1][0] != out["certified_upto"] or len(slopes) != len(verts) - 1:
        return "vertices, slopes and certified_upto disagree"
    for (x0, y0), (x1, y1), (s, w) in zip(verts, verts[1:], slopes):
        if w != x1 - x0 or s != (y1 - y0) / (x1 - x0):
            return f"segment {x0}..{x1} does not match its slope {s} width {w}"
    if any(s1 >= s2 for (s1, _), (s2, _) in zip(slopes, slopes[1:])):
        return "slopes are not strictly increasing"
    ctx = query.context()
    point = parse_point(query.flag("point"))
    if isinstance(point, Classical):
        step = max(1, len(verts) // ORACLE_VERTICES)
        for x, y in verts[::step] + verts[-1:]:
            want = ghost_series.eval_vp(ctx, x, point)
            if want is INF or want != y:
                return f"vertex {x}: polygon {y}, factored evaluation {want}"
    elif isinstance(point, Boundary):
        i = 0
        for s, w in slopes:
            for _ in range(w):
                i += 1
                if i > nmax:
                    return None
                want = point.t * ghost_series.degree_increment_closed_form(ctx, i - 1)
                if s != want:
                    return f"slope {i}: polygon {s}, t * degree increment {want}"
    return None


def _nested(ranges: List[dict]) -> bool:
    for i, r1 in enumerate(ranges):
        for r2 in ranges[i + 1:]:
            disjoint = r1["hi"] <= r2["lo"] or r2["hi"] <= r1["lo"]
            inside = (r1["lo"] <= r2["lo"] and r2["hi"] <= r1["hi"]) or (
                r2["lo"] <= r1["lo"] and r1["hi"] <= r2["hi"])
            if not (disjoint or inside):
                return False
    return True


def _check_ns(query: Query, out: dict) -> Optional[str]:
    nmax = int(query.flag("nmax"))
    ranges = out["ranges"]
    if not out["nested"] or not _nested(ranges):
        return "near-Steinberg ranges are not nested"
    for r in ranges:
        if not (r["lo"] < r["hi"] and r["lo"] < nmax and r["hi"] > 1):
            return f"range {r} is empty or misses [1, {nmax}]"
    return None


def _check_delta(query: Query, out: dict) -> Optional[str]:
    raw = {ell: _rational(v) for ell, v in out["raw"]}
    hull = {ell: _rational(v) for ell, v in out["hull"]}
    if raw.keys() != hull.keys() or not raw:
        return "raw and hull offsets differ"
    for ell, value in raw.items():
        if raw.get(-ell) != value:
            return f"raw profile not symmetric at ell = {ell}"
        if hull[ell] > value:
            return f"raw profile below its hull at ell = {ell}"
    return None


_QUERY_CHECKS = {"np": _check_np, "ns": _check_ns, "delta": _check_delta}


def check_query(query: Query, returncode: Optional[int], stdout: str) -> Optional[str]:
    """Reason the query failed, or None when its output is correct."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return _QUERY_CHECKS[query.argv[0]](query, json.loads(stdout))
    except Exception as exc:  # any malformed output counts as a failed query
        return f"{type(exc).__name__}: {exc}"


def check_triple(triple, reports: List[dict]) -> Optional[str]:
    """Reason a sweep triple failed: a suite report missing or not passing."""
    names = sorted(r["name"] for r in reports)
    if names != sorted(SWEEP_SUITES):
        return f"{triple}: reports {names} instead of the {len(SWEEP_SUITES)} suites"
    bad = [r["name"] for r in reports if r["status"] != "pass"]
    if bad:
        return f"{triple}: suites {bad} did not pass"
    return None


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def digest(outputs: Iterable) -> str:
    """SHA-256 of the outputs in order, ``elapsed`` removed."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(_strip_elapsed(out), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
