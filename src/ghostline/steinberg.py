"""Duality profiles, near-Steinberg ranges, and the vertex characterisations.

For a classical weight k on the disk, the profile value at offset l is the
k-omitted coefficient valuation at w_k, renormalised by the Steinberg
slope:

    delta_prime(k, l) = v_p(g_{d_iw/2 + l, hat k}(w_k)) - (k-2)/2 * l,

defined for |l| <= d_new/2 and symmetric in l (ghost duality).  Its lower
convex hull is the shape that governs how the Newton polygon at a nearby
point w degenerates into straight lines: the half-width L of the forced
straight stretch around d_iw/2 is the largest L with

    vp(w - w_k) >= hull gap at L,

and the open interval (d_iw/2 - L, d_iw/2 + L) is the near-Steinberg range
of (w, k).  Profile values lie in (1/2)Z, and ``doubled_profile`` is their
one statement: the integers 2 * delta_prime(k, l), read off the classical
evaluator.  The estimate suite in ``verify`` reads those integers and
takes their hull itself.  ``delta_profile`` halves them into the cached
``DeltaProfile`` that the range scans, the checkers below and the
``delta`` query read: its raw values as Fractions and their hull, a
``newton.NewtonPolygon`` over the offsets, and every hull question goes to
``newton``'s readers.  A hull gap is constant along a hull segment, so
``l_max`` scans segments rather than offsets.

The checkers below verify that these ranges are nested, that they are
exactly the non-vertices of the Newton polygon, and that non-vertices of
the profile hull are detected by near-Steinberg ranges of neighbouring
weights; the last reads one list of ranges per weight, those at w_k0
itself, for all its offsets.  Each returns the witnesses ``verify`` reports, in their final
JSON form (rationals as "num/den", ranges as dicts), and none when the
statement holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from . import dimensions as dims
from . import ghost_series as ghost
from . import newton
from .valuation import INF
from .weight_space import (
    Classical,
    GhostContext,
    WeightPoint,
    _Record,
    context_cache,
    format_point,
    format_rational,
    vp_point_to_weight,
)

#: Every profile gap is at least min(a+2, p-1-a)/2 >= 3/2 (verified by the
#: estimate suite); points farther than that from every w_k have no range.
MIN_GAP = Fraction(3, 2)


def delta_prime(ctx: GhostContext, k: int, ell: int) -> Fraction:
    """Profile value at offset ell, |ell| <= d_new(k)/2."""
    prof = delta_profile(ctx, k)
    if abs(ell) > prof.top:
        raise ValueError(f"|ell| = {abs(ell)} exceeds d_new/2 = {prof.top}")
    return prof.raw_value(ell)


class DeltaProfile(_Record):
    """The duality profile of one weight k and its lower convex hull.

    ``raw`` holds the profile values at the offsets -top..top in order (so
    offset ell sits at position ell + top), and ``hull`` is their lower
    hull, whose vertices are offsets with their raw values (the two ends
    always among them).  Hull values, vertices and segments are read off
    ``hull`` by ``newton``'s readers, which alone know its layout.
    """

    __slots__ = ("k", "raw", "hull")
    k: int
    raw: Tuple[Fraction, ...]
    hull: newton.NewtonPolygon

    @property
    def top(self) -> int:
        return len(self.raw) // 2

    def raw_value(self, ell: int) -> Fraction:
        top = self.top
        if not -top <= ell <= top:
            raise KeyError(ell)
        return self.raw[ell + top]

    def to_json_dict(self) -> dict:
        offsets = range(-self.top, self.top + 1)
        return {
            "k": self.k,
            "raw": [[l, format_rational(v)] for l, v in zip(offsets, self.raw)],
            "hull": [[l, format_rational(newton.value_at(self.hull, l))] for l in offsets],
        }


def doubled_profile(ctx: GhostContext, k: int) -> List[int]:
    """Twice the profile values, 2 * omitted(d_iw/2 + l) - (k - 2) * l for
    l = -d_new/2 .. d_new/2 in order, as a new list of ints: the one
    statement of the profile values, read off the classical evaluator.

    Profile values lie in (1/2)Z, so their doubles are integers.  The list
    is not cached; ``delta_profile`` halves it into its cached record.
    """
    half_new = dims.d_new(ctx, k) // 2
    half_iw = dims.d_iw(ctx, k) // 2
    ev = ghost.classical_evaluator(ctx, k)
    ev.grow(half_iw + half_new)
    omitted = ev.omitted
    return [2 * omitted(half_iw + l) - (k - 2) * l for l in range(-half_new, half_new + 1)]


@context_cache(maxsize=4096)
def delta_profile(ctx: GhostContext, k: int) -> DeltaProfile:
    """Raw profile values and their lower hull, offsets in [-d_new/2, d_new/2]:
    the halves of ``doubled_profile`` as Fractions, and their hull."""
    raw = tuple(Fraction(v, 2) for v in doubled_profile(ctx, k))
    half_new = len(raw) // 2
    offsets = range(-half_new, half_new + 1)
    return DeltaProfile(k, raw, newton.lower_convex_hull(list(zip(offsets, raw))))


def l_max(ctx: GhostContext, w: WeightPoint, k: int) -> Optional[int]:
    """Largest L in [1, d_new/2] with vp(w - w_k) >= hull gap at L, if any.

    The gap hull(L) - hull(L - 1) is the slope of the hull segment over
    [L - 1, L], so the scan runs over the segments right of offset 0 and
    stops at the first slope above vp(w - w_k) (hull slopes increase).
    """
    v = vp_point_to_weight(ctx, w, k)
    if v < MIN_GAP or dims.d_new(ctx, k) == 0:
        return None  # below every profile gap, or no profile at all
    end = 0
    for gap, width in newton.segments_from(delta_profile(ctx, k).hull, 0):
        if v < gap:
            break
        end += width
    return end or None


class NearSteinbergRange(_Record):
    __slots__ = ("k", "L", "lo", "hi")
    k: int
    L: int
    lo: int  # open interval (lo, hi), centred at d_iw(k)/2
    hi: int

    def contains(self, n: int) -> bool:
        return self.lo < n < self.hi

    def to_json_dict(self) -> dict:
        return {"k": self.k, "L": self.L, "lo": self.lo, "hi": self.hi}


def near_steinberg_range(ctx: GhostContext, w: WeightPoint, k: int) -> Optional[NearSteinbergRange]:
    L = l_max(ctx, w, k)
    if L is None:
        return None
    half_iw = dims.d_iw(ctx, k) // 2
    return NearSteinbergRange(k, L, half_iw - L, half_iw + L)


def near_steinberg_ranges(
    ctx: GhostContext, w: WeightPoint, n_max: int
) -> List[NearSteinbergRange]:
    """All ranges whose open interval meets [1, n_max].

    A range containing n has its centre weight among the zeros of g_n, so
    one scan of the span of the zeros of g_1, ..., g_n_max
    (``dims.zero_window``) is complete; a weight inside it that is a zero
    of none of them has d_new <= 1, so it has no range.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    found = []
    for kb in dims.zero_window(ctx, 1, n_max):
        rng = near_steinberg_range(ctx, w, ctx.weight_of_bullet(kb))
        if rng is not None and rng.lo < n_max and rng.hi > 1:
            found.append(rng)
    return sorted(found, key=lambda r: (r.lo, r.hi, r.k))


def check_nested(
    ranges: Sequence[NearSteinbergRange],
) -> Optional[Tuple[NearSteinbergRange, NearSteinbergRange]]:
    """Disjoint-or-contained test on the open intervals (touching closures
    ok): the first pair that overlaps otherwise, or None."""
    for i, r1 in enumerate(ranges):
        for r2 in ranges[i + 1 :]:
            disjoint = r1.hi <= r2.lo or r2.hi <= r1.lo
            nested = (r1.lo <= r2.lo and r2.hi <= r1.hi) or (
                r2.lo <= r1.lo and r1.hi <= r2.hi
            )
            if not (disjoint or nested):
                return r1, r2
    return None


def maximal_ranges(ranges: Sequence[NearSteinbergRange]) -> List[NearSteinbergRange]:
    out = []
    for r in ranges:
        if not any(
            (o.lo <= r.lo and r.hi <= o.hi) and (o.lo, o.hi) != (r.lo, r.hi)
            for o in ranges
        ):
            out.append(r)
    return out


def _in_lattice(x: Fraction, gamma: Optional[Fraction]) -> bool:
    """Membership of x in Z + Z*gamma (gamma absent means plain Z)."""
    if gamma is None:
        return x.denominator == 1
    d = gamma.denominator
    scaled = x * d
    if scaled.denominator != 1:
        return False
    return scaled.numerator % gcd(gamma.numerator, d) == 0


def vertex_theorem_check(ctx: GhostContext, w: WeightPoint, n_max: int) -> List[dict]:
    """Vertices of the Newton polygon versus near-Steinberg membership.

    For every n <= n_max the point (n, v_p(g_n(w))) must be a vertex
    exactly when n lies in no near-Steinberg range.  Over each maximal
    range the polygon must be one straight segment whose slope lies in
    a/2 + Z + Z*gamma, where gamma is the largest finite distance from w
    to a ghost zero appearing in the range (for a classical point the
    omitted-coefficient profile is checked to be a straight line instead).
    The ranges must be nested as well.  Returns no witness when all of
    that holds at w, and otherwise one: the point, the mismatched indices,
    the slope violations and whether the ranges are nested.
    """
    np_, _ = newton.np_of_ghost_auto(ctx, w, n_max)
    ranges = near_steinberg_ranges(ctx, w, n_max)
    nested = check_nested(ranges) is None
    mismatches = []
    for n in range(1, n_max + 1):
        in_range = any(r.contains(n) for r in ranges)
        vertex = newton.is_vertex(np_, n)
        if in_range == vertex:
            mismatches.append(
                {"n": n, "near_steinberg": in_range, "vertex": vertex}
            )
    slope_violations = []
    for r in maximal_ranges(ranges):
        if r.hi > n_max:
            continue  # straight-line check needs both endpoints in view
        slope_violations.extend(_check_range_slope(ctx, w, r, np_))
    if not mismatches and not slope_violations and nested:
        return []
    return [{"point": format_point(w), "mismatches": mismatches,
             "slope_violations": slope_violations, "nested": nested}]


def _range_gamma(
    ctx: GhostContext, w: WeightPoint, r: NearSteinbergRange
) -> Optional[Fraction]:
    """Largest finite vp(w - w_k) over the ghost zeros w_k of the
    coefficients g_n with n inside the range.

    Each weight of the span of the zeros of g_lo+1, ..., g_hi-1 is visited
    once, and kept when its zero indices (``dims.zero_indices``) meet
    (lo, hi).
    """
    best: Optional[Fraction] = None
    for kb in dims.zero_window(ctx, r.lo + 1, r.hi - 1):
        zeros = dims.zero_indices(ctx, kb)
        if max(r.lo + 1, zeros.start) >= min(r.hi, zeros.stop):
            continue
        v = vp_point_to_weight(ctx, w, ctx.weight_of_bullet(kb))
        if v is not INF and (best is None or v > best):
            best = Fraction(v)
    return best


def _check_range_slope(
    ctx: GhostContext, w: WeightPoint, r: NearSteinbergRange, np_: newton.NewtonPolygon
) -> List[dict]:
    a = Fraction(ctx.a, 2)
    ev = ghost.evaluator(ctx, w)
    rng = r.to_json_dict()
    if w.r is INF and w.k0 != r.k and (r.lo + r.hi) // 2 in ev.zeros:
        # the point is a zero inside another weight's range: the straight
        # line lives on the omitted profile, with slope in a/2 + Z.  (For
        # the point's own range the plain polygon below already skips the
        # infinite coordinates and carries the straight line itself.)
        pts = [(n, ev.omitted(n)) for n in range(r.lo, r.hi + 1)]
        slopes = newton.lower_convex_hull(pts).slopes
        if len(slopes) != 1:
            return [{"range": rng, "reason": "omitted hull is not straight"}]
        slope = slopes[0][0]
        if not _in_lattice(slope - a, None):
            return [{"range": rng, "reason": "omitted slope class",
                     "slope": format_rational(slope)}]
        return []
    # the polygon covers [lo, hi], so it is one segment there exactly when
    # the segment that starts at lo reaches hi
    slope, width = next(newton.segments_from(np_, r.lo))
    if width < r.hi - r.lo:
        return [{"range": rng, "reason": "polygon not straight over range"}]
    gamma = None if w.r is INF else _range_gamma(ctx, w, r)
    if not _in_lattice(slope - a, gamma):
        return [{"range": rng, "reason": "slope class", "slope": format_rational(slope),
                 "gamma": None if gamma is None else format_rational(gamma)}]
    return []


def delta_vertex_check(ctx: GhostContext, k0: int) -> List[dict]:
    """Three-way equivalence at the profile offsets 0 <= ell < d_new/2 of k0.

    (ell, delta_prime(k0, ell)) fails to be a hull vertex exactly when the
    index d_iw/2 + ell is near-Steinberg for some larger weight, exactly
    when d_iw/2 - ell is near-Steinberg for some smaller weight.  All those
    indices lie in [1, d_iw/2 + d_new/2 - 1], so one list of the ranges at
    w_k0 (``near_steinberg_ranges``) serves every offset.  The witness on
    each side is the least weight whose range contains the index: a range
    containing n belongs to a weight of ``dims.zero_window(n)``, which
    ascends in k, so this is that window's first hit on the side.  Returns
    one witness per offset where the equivalence fails, with the vertex
    test and the witness weight found on each side (None for none).
    """
    half_new = dims.d_new(ctx, k0) // 2
    if half_new == 0:
        return []
    half_iw = dims.d_iw(ctx, k0) // 2
    hull = delta_profile(ctx, k0).hull
    ranges = near_steinberg_ranges(ctx, Classical(k0), half_iw + half_new - 1)
    witnesses = []
    for ell in range(half_new):
        non_vertex = not newton.is_vertex(hull, ell)
        above = min((r.k for r in ranges if r.k > k0 and r.contains(half_iw + ell)),
                    default=None)
        below = min((r.k for r in ranges if r.k < k0 and r.contains(half_iw - ell)),
                    default=None)
        if not non_vertex == (above is not None) == (below is not None):
            witnesses.append({"k0": k0, "ell": ell, "non_vertex": non_vertex,
                              "witness_above": above, "witness_below": below})
    return witnesses


def slope_class_ok(ctx: GhostContext, slope: Fraction, width: int) -> bool:
    """Slope class of a segment at a classical point: width-1 slopes are
    integers, wider slopes have even width and lie in a/2 + Z."""
    if width == 1:
        return slope.denominator == 1
    return width % 2 == 0 and (slope - Fraction(ctx.a, 2)).denominator == 1


def delta_hull_slope_classes(ctx: GhostContext, k0: int) -> List[dict]:
    """Violations of the profile hull slope classes.

    Stated in the un-normalised coordinates (profile slope plus the
    Steinberg slope (k0-2)/2, i.e. the hull of the omitted valuations
    themselves) by ``slope_class_ok``, the same classes as the polygon
    slopes at w_k0.
    """
    shift = Fraction(k0 - 2, 2)
    bad = []
    for norm_slope, width in delta_profile(ctx, k0).hull.slopes:
        slope = norm_slope + shift
        if not slope_class_ok(ctx, slope, width):
            bad.append({"k0": k0, "lhs": format_rational(slope),
                        "rhs": f"width {width} slope class", "reason": "hull slope class"})
    return bad
