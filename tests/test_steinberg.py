import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import islice

import pytest

from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline import newton, steinberg
from ghostline.valuation import INF
from ghostline.weight_space import (
    Boundary,
    Classical,
    Perturbed,
    format_rational,
    new_context,
    vp_point_to_weight,
)
from test_newton import random_hull

C0 = new_context(7, 2, 0)
C4 = new_context(7, 2, 4)


class TestDeltaPrime:
    def test_worked_example(self):
        assert steinberg.delta_prime(C4, 18, 0) == 8
        for ell in (1, -1):
            assert steinberg.delta_prime(C4, 18, ell) == 11
        for ell in (2, -2):
            assert steinberg.delta_prime(C4, 18, ell) == 17

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            steinberg.delta_prime(C4, 18, 3)

    def test_duality_random(self):
        rng = random.Random(31)
        for _ in range(60):
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            k = ctx.weight_of_bullet(rng.randint(0, 30))
            half = dims.d_new(ctx, k) // 2
            for ell in range(0, half + 1):
                assert steinberg.delta_prime(ctx, k, ell) == steinberg.delta_prime(ctx, k, -ell)


def interpolated_hull(raw, vertices):
    """Hull values at every offset of ``raw`` (a dict keyed by offset), by
    linear interpolation between the given vertex offsets, walked left to
    right as the profile once stored them."""
    hull, vi = {}, 0
    for ell in sorted(raw):
        while vi + 1 < len(vertices) and vertices[vi + 1] <= ell:
            vi += 1
        x0 = vertices[vi]
        if ell == x0:
            hull[ell] = raw[x0]
        else:
            x1 = vertices[vi + 1]
            hull[ell] = raw[x0] + Fraction(raw[x1] - raw[x0], x1 - x0) * (ell - x0)
    return hull


def per_offset_profile(ctx, k):
    """The profile as it was once built: raw values by the omitted-valuation
    formula, one hull, and hull values interpolated at every offset."""
    half_new = dims.d_new(ctx, k) // 2
    half_iw = dims.d_iw(ctx, k) // 2
    ev = ghost.classical_evaluator(ctx, k)
    raw = {l: ev.omitted(half_iw + l) - Fraction(k - 2, 2) * l
           for l in range(-half_new, half_new + 1)}
    hull = newton.lower_convex_hull(sorted(raw.items()))
    return raw, interpolated_hull(raw, [x for x, _ in hull.vertices]), hull


def per_offset_l_max(ctx, w, k):
    """l_max by a scan over the gaps at every offset."""
    _, hull, _ = per_offset_profile(ctx, k)
    v = vp_point_to_weight(ctx, w, k)
    best = None
    for L in range(1, max(hull) + 1):
        if v < hull[L] - hull[L - 1]:
            break
        best = L
    return best


class OffsetProfile:
    """A profile as its raw values and the offsets of its hull vertices,
    read as the profile once read itself, the oracle of ``newton``'s readers
    on ``DeltaProfile.hull``: hull values interpolate ``raw`` between the
    neighbouring vertex offsets, and segments walk ``raw`` at the offsets."""

    def __init__(self, prof, offsets):
        self.raw, self.top, self.vertices = prof.raw, prof.top, list(offsets)

    def raw_value(self, ell):
        if not -self.top <= ell <= self.top:
            raise KeyError(ell)
        return self.raw[ell + self.top]

    def hull_value(self, ell):
        y = self.raw_value(ell)
        i = bisect_left(self.vertices, ell)
        if self.vertices[i] == ell:
            return y
        x0, x1 = self.vertices[i - 1 : i + 1]
        y0, y1 = self.raw_value(x0), self.raw_value(x1)
        return y0 + Fraction(y1 - y0, x1 - x0) * (ell - x0)

    def is_vertex(self, ell):
        i = bisect_left(self.vertices, ell)
        return i < len(self.vertices) and self.vertices[i] == ell

    def segments(self, start=None):
        vs = self.vertices
        i = 0 if start is None else max(bisect_right(vs, start) - 1, 0)
        return newton.segments(((x, self.raw[x + self.top]) for x in vs[i:]), start)


def hull_offsets(prof):
    """The vertex offsets of the profile's raw values, by a hull of its own."""
    pts = list(zip(range(-prof.top, prof.top + 1), prof.raw))
    return [x for x, _ in newton._hull_vertices(pts)]


class TestDeltaProfile:
    def test_hull_equals_raw_when_convex(self):
        prof = steinberg.delta_profile(C4, 18)
        assert list(prof.raw) == [17, 11, 8, 11, 17]
        assert [newton.value_at(prof.hull, l) for l in range(-2, 3)] == list(prof.raw)
        assert prof.hull.xs.tolist() == [-2, -1, 0, 1, 2]
        assert list(newton.segments_from(prof.hull, 0)) == [(3, 1), (6, 1)]
        assert newton.is_vertex(prof.hull, 0) and newton.is_vertex(prof.hull, 1)

    def test_profile_is_k_raw_and_hull(self):
        # the hull is a plain polygon, so the record needs no layout of its own
        assert steinberg.DeltaProfile._fields == ("k", "raw", "hull")
        assert "__init__" not in vars(steinberg.DeltaProfile)
        assert "__hash__" not in vars(steinberg.DeltaProfile)
        prof = steinberg.delta_profile(C4, 66)
        assert type(prof.hull) is newton.NewtonPolygon
        assert all(y is prof.raw_value(x) for x, y in zip(prof.hull.xs, prof.hull.ys))
        assert not hasattr(steinberg, "array") and not hasattr(steinberg, "bisect_left")

    def test_symmetric(self):
        for kb in range(0, 25):
            k = C0.weight_of_bullet(kb)
            prof = steinberg.delta_profile(C0, k)
            assert prof.raw == prof.raw[::-1]
            assert prof.hull.xs.tolist() == [-x for x in reversed(prof.hull.xs)]

    def test_hull_matches_raw_below_2p(self):
        # equality regime: offsets below 2p other than p itself
        ctx = new_context(5, 1, 0)
        for kb in range(0, 40):
            k = ctx.weight_of_bullet(kb)
            prof = steinberg.delta_profile(ctx, k)
            for ell in range(-prof.top, prof.top + 1):
                raw, hull = prof.raw_value(ell), newton.value_at(prof.hull, ell)
                if abs(ell) < 2 * ctx.p and abs(ell) != ctx.p:
                    assert raw == hull, (k, ell)
                elif abs(ell) == ctx.p:
                    assert raw - hull <= 1

    def test_positional_lookups_match_dicts(self):
        # against the per-offset construction: values, vertices, segments, JSON
        rng = random.Random(41)
        for _ in range(40):
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            k = ctx.weight_of_bullet(rng.randint(0, 80))
            prof = steinberg.delta_profile(ctx, k)
            raw, hull, hull_np = per_offset_profile(ctx, k)
            top = max(raw)
            assert prof.top == top
            for ell in range(-top, top + 1):
                assert prof.raw_value(ell) == raw[ell]
                assert newton.value_at(prof.hull, ell) == hull[ell]
                strict = raw[ell] == hull[ell] and (
                    abs(ell) == top
                    or hull[ell] - hull[ell - 1] < hull[ell + 1] - hull[ell])
                assert newton.is_vertex(prof.hull, ell) == strict
            assert prof.hull.slopes == hull_np.slopes
            gaps = [g for g, width in newton.segments_from(prof.hull, 0) for _ in range(width)]
            assert gaps == [hull[L] - hull[L - 1] for L in range(1, top + 1)]
            assert prof.to_json_dict() == {
                "k": k,
                "raw": [[l, format_rational(raw[l])] for l in range(-top, top + 1)],
                "hull": [[l, format_rational(hull[l])] for l in range(-top, top + 1)],
            }
            for ell in (-top - 1, top + 1):
                with pytest.raises(KeyError):
                    prof.raw_value(ell)
                with pytest.raises(ValueError):
                    newton.value_at(prof.hull, ell)

    def test_segments_cut_at_a_non_vertex(self):
        # on (5,1,0) the hull of weight 35 ends in a segment of gap 12 and
        # width 2 over [4, 6]; from offset 5 on it is cut to width 1
        ctx = new_context(5, 1, 0)
        prof = steinberg.delta_profile(ctx, 35)
        assert prof.top == 6 and not newton.is_vertex(prof.hull, 5)
        assert list(newton.segments_from(prof.hull, 5)) == [(12, 1)]
        assert list(newton.segments_from(prof.hull, 4)) == [(12, 2)]

    def test_trivial_profile(self):
        prof = steinberg.delta_profile(C0, 4)  # d_new = 0
        assert len(prof.raw) == 1
        assert prof.hull.xs.tolist() == [0] and list(prof.hull.slopes) == []

    def test_json(self):
        d = steinberg.delta_profile(C4, 18).to_json_dict()
        assert d["k"] == 18
        assert d["raw"][2] == [0, "8/1"]
        assert d["hull"] == d["raw"]


#: Triples whose profiles to k_bullet 120 are compared reader by reader;
#: on those with p = 5 and 7 some offsets are not vertices (on (7,2,4)
#: from k = 66 on).
PROFILE_TRIPLES = [(5, 1, 0), (5, 1, 2), (7, 2, 4), (7, 3, 2), (11, 5, 4), (13, 5, 7)]


def assert_readers_match_offsets(prof, whole_walks):
    """``newton``'s readers on ``prof.hull`` against ``OffsetProfile``, at
    every offset and from every start, one past each end included; returns
    the number of offsets that are not vertices.  Each walk is compared
    whole, or (``whole_walks`` false, for profiles of thousands of offsets)
    by its first two segments, the cut one and the one after it; the whole
    walk is then compared once, from the left end."""
    old = OffsetProfile(prof, hull_offsets(prof))
    hull, top = prof.hull, prof.top
    assert hull.xs.tolist() == old.vertices
    assert hull.slopes == tuple(old.segments())
    for ell in range(-top - 1, top + 2):
        if abs(ell) > top:
            with pytest.raises(ValueError):
                newton.value_at(hull, ell)
        else:
            assert newton.value_at(hull, ell) == old.hull_value(ell), (prof.k, ell)
            assert newton.is_vertex(hull, ell) == old.is_vertex(ell), (prof.k, ell)
        new, want = newton.segments_from(hull, ell), old.segments(ell)
        if not whole_walks:
            new, want = islice(new, 2), islice(want, 2)
        assert list(new) == list(want), (prof.k, ell)
    return 2 * top + 1 - len(old.vertices)


class TestProfileReadersAgainstOffsets:
    @pytest.mark.parametrize("triple", PROFILE_TRIPLES)
    def test_every_profile_to_k_bullet_120(self, triple):
        ctx = new_context(*triple)
        non_vertices = 0
        for kb in range(121):
            prof = steinberg.delta_profile(ctx, ctx.weight_of_bullet(kb))
            non_vertices += assert_readers_match_offsets(prof, whole_walks=kb <= 30)
        assert non_vertices > 0 or ctx.p > 7

    @pytest.mark.parametrize("triple, kb", [((5, 1, 0), 4000), ((7, 2, 4), 4500),
                                            ((11, 5, 4), 4200), ((13, 5, 7), 5000)])
    def test_large_weights(self, triple, kb):
        ctx = new_context(*triple)
        prof = steinberg.delta_profile(ctx, ctx.weight_of_bullet(kb))
        assert prof.top > 2500
        assert_readers_match_offsets(prof, whole_walks=False)


def integer_hull(doubled):
    """The lower hull of a doubled profile, on its integers."""
    top = len(doubled) // 2
    return newton.lower_convex_hull(list(zip(range(-top, top + 1), doubled)))


class TestDoubledProfile:
    """``doubled_profile``, which the estimate suite reads, against the
    Fraction profile and hull of ``delta_profile``."""

    @staticmethod
    def assert_doubles(ctx, k):
        doubled = steinberg.doubled_profile(ctx, k)
        prof = steinberg.delta_profile(ctx, k)
        assert doubled == [2 * v for v in prof.raw], (ctx, k)
        assert all(type(v) is int for v in doubled)
        hull = integer_hull(doubled)
        assert hull.xs.tolist() == prof.hull.xs.tolist(), (ctx, k)
        assert list(hull.ys) == [2 * y for y in prof.hull.ys], (ctx, k)
        return prof

    def test_seeded_weights(self):
        rng = random.Random(53)
        for _ in range(60):
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            self.assert_doubles(ctx, ctx.weight_of_bullet(rng.randint(0, 200)))

    @pytest.mark.parametrize("triple, kb", [((5, 1, 0), 4000), ((7, 2, 4), 4500),
                                            ((11, 5, 4), 4200), ((13, 5, 7), 5000)])
    def test_large_weights(self, triple, kb):
        ctx = new_context(*triple)
        assert self.assert_doubles(ctx, ctx.weight_of_bullet(kb)).top > 2500

    def test_a_profile_with_non_vertex_offsets(self):
        prof = self.assert_doubles(C4, 66)
        assert len(prof.hull.xs) < len(prof.raw)

    def test_each_call_builds_a_new_list(self):
        first = steinberg.doubled_profile(C4, 18)
        assert first == [34, 22, 16, 22, 34]
        first[0] = 0
        assert steinberg.doubled_profile(C4, 18) == [34, 22, 16, 22, 34]


class TestLMax:
    def test_examples(self):
        assert steinberg.l_max(C4, Perturbed(18, Fraction(7)), 18) == 2
        assert steinberg.l_max(C4, Perturbed(18, Fraction(4)), 18) == 1
        assert steinberg.l_max(C4, Perturbed(18, Fraction(5, 2)), 18) is None

    def test_distance_equal_to_a_gap(self):
        # the gaps of weight 18 on (7,2,4) are 3 and 6; v >= gap is closed
        assert steinberg.l_max(C4, Perturbed(18, Fraction(3)), 18) == 1
        assert steinberg.l_max(C4, Perturbed(18, Fraction(6)), 18) == 2
        assert steinberg.l_max(C4, Perturbed(18, Fraction(11, 2)), 18) == 1

    def test_distance_on_a_wide_segment(self):
        # weight 66 on (7,2,4): the last hull segment has gap 23 and width
        # 2, ending at d_new/2 = 8, so no distance gives L = 7
        prof = steinberg.delta_profile(C4, 66)
        assert prof.top == 8
        assert list(newton.segments_from(prof.hull, 0))[-2:] == [(19, 1), (23, 2)]
        for r, want in ((Fraction(19), 6), (Fraction(45, 2), 6), (Fraction(23), 8)):
            assert steinberg.l_max(C4, Perturbed(66, r), 66) == want

    def test_matches_per_offset_scan(self):
        rng = random.Random(43)
        for _ in range(60):
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            k = ctx.weight_of_bullet(rng.randint(0, 60))
            gaps = [g for g, _ in newton.segments_from(steinberg.delta_profile(ctx, k).hull, 0)]
            # every gap exactly, just below and just above, and the classical point
            radii = {g + d for g in gaps for d in (Fraction(-1, 7), 0, Fraction(1, 7))}
            for w in [Perturbed(k, r) for r in radii] + [Classical(k)]:
                want = per_offset_l_max(ctx, w, k)
                if vp_point_to_weight(ctx, w, k) < steinberg.MIN_GAP:
                    want = None
                assert steinberg.l_max(ctx, w, k) == want, (ctx, k, w)

    def test_classical_point_gets_full_width(self):
        assert steinberg.l_max(C4, Classical(18), 18) == dims.d_new(C4, 18) // 2

    def test_no_range_when_d_new_zero(self):
        assert steinberg.l_max(C0, Classical(4), 4) is None

    def test_far_point_skips_the_profile(self):
        # vp(w - w_k) = 1 < MIN_GAP: no range, and no profile is built
        k = C4.weight_of_bullet(40)
        w = Perturbed(k + 6, Fraction(7))
        assert vp_point_to_weight(C4, w, k) < steinberg.MIN_GAP
        assert dims.d_new(C4, k) > 0
        steinberg.delta_profile.cache_clear()
        assert steinberg.l_max(C4, w, k) is None
        assert steinberg.delta_profile.cache_info().currsize == 0


def per_n_ranges(ctx, w, n_max):
    """near_steinberg_ranges by a separate walk of the zero window of every
    n <= n_max, each weight visited once."""
    found, seen = {}, set()
    for n in range(1, n_max + 1):
        for kb in dims.zero_window(ctx, n):
            k = ctx.weight_of_bullet(kb)
            if k in seen:
                continue
            seen.add(k)
            rng = steinberg.near_steinberg_range(ctx, w, k)
            if rng is not None and rng.lo < n_max and rng.hi > 1:
                found[k] = rng
    return sorted(found.values(), key=lambda r: (r.lo, r.hi, r.k))


class TestRanges:
    def test_examples(self):
        got = steinberg.near_steinberg_ranges(C4, Perturbed(18, Fraction(7)), 6)
        assert steinberg.NearSteinbergRange(18, 2, 1, 5) in got
        got = steinberg.near_steinberg_ranges(C4, Perturbed(18, Fraction(4)), 6)
        assert steinberg.NearSteinbergRange(18, 1, 2, 4) in got
        assert steinberg.near_steinberg_ranges(C4, Boundary(Fraction(1, 2)), 10) == []

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_per_n_enumeration(self, p):
        rng = random.Random(100 + p)
        found = 0
        for _ in range(30):
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            kind = rng.random()
            if kind < 0.6:
                w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 15)),
                              Fraction(rng.randint(1, 30), rng.choice((1, 2, 3))))
            elif kind < 0.8:
                w = Classical(ctx.weight_of_bullet(rng.randint(0, 15)))
            else:
                w = Boundary(Fraction(rng.randint(1, 4), 5))
            n_max = rng.randint(1, 40)
            got = steinberg.near_steinberg_ranges(ctx, w, n_max)
            assert got == per_n_ranges(ctx, w, n_max), (ctx, w, n_max)
            found += len(got)
        assert found >= 20

    def test_interval_inside_new_window(self):
        for r in steinberg.near_steinberg_ranges(C4, Perturbed(18, Fraction(7)), 10):
            du, di = dims.d_ur(C4, r.k), dims.d_iw(C4, r.k)
            assert 1 <= r.L <= (di - 2 * du) // 2
            assert du <= r.lo and r.hi <= di - du


def _gamma_by_coefficients(ctx, w, r):
    """Largest finite distance to a factor of the coefficients inside r,
    by walking every factored coefficient."""
    best = None
    for n in range(r.lo + 1, r.hi):
        for k, _ in ghost.coefficient(ctx, n).factors:
            v = vp_point_to_weight(ctx, w, k)
            if v is not INF and (best is None or v > best):
                best = Fraction(v)
    return best


class TestRangeGamma:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_coefficient_walk(self, p):
        rng = random.Random(p)
        compared = 0
        for _ in range(40):
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 12)),
                          Fraction(rng.randint(1, 24), rng.choice((1, 2, 3))))
            for r in steinberg.near_steinberg_ranges(ctx, w, 30):
                assert steinberg._range_gamma(ctx, w, r) == _gamma_by_coefficients(ctx, w, r)
                compared += 1
        assert compared >= 25

    def test_classical_point_skips_its_own_zero(self):
        w = Classical(18)
        for r in steinberg.near_steinberg_ranges(C4, w, 10):
            assert steinberg._range_gamma(C4, w, r) == _gamma_by_coefficients(C4, w, r)


class TestNested:
    def test_synthetic_overlap_fails_with_witness(self):
        rs = [steinberg.NearSteinbergRange(0, 2, 1, 5), steinberg.NearSteinbergRange(0, 3, 3, 9)]
        pair = steinberg.check_nested(rs)
        assert pair is not None and set(pair) == set(rs)

    def test_touching_closures_allowed(self):
        rs = [steinberg.NearSteinbergRange(0, 2, 1, 5), steinberg.NearSteinbergRange(0, 2, 5, 9)]
        assert steinberg.check_nested(rs) is None

    def test_empty_and_computed(self):
        assert steinberg.check_nested([]) is None
        rng = random.Random(3)
        for _ in range(25):
            p = rng.choice((5, 7, 11))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 10)),
                          Fraction(rng.randint(1, 18), rng.choice((1, 2))))
            assert steinberg.check_nested(steinberg.near_steinberg_ranges(ctx, w, 16)) is None


def slope_set_check(ctx, w, r, np_):
    """The polygon half of ``_check_range_slope`` by the set of slopes of
    the segments that meet (lo, hi), as it once read, kept as the oracle;
    its witnesses are in their JSON form."""
    seg_slopes = {
        s for (s, _), (x0, _), (x1, _) in zip(np_.slopes, np_.vertices, np_.vertices[1:])
        if x0 < r.hi and x1 > r.lo
    }
    if len(seg_slopes) != 1:
        return [{"range": r.to_json_dict(), "reason": "polygon not straight over range"}]
    slope = next(iter(seg_slopes))
    gamma = steinberg._range_gamma(ctx, w, r)
    if not steinberg._in_lattice(slope - Fraction(ctx.a, 2), gamma):
        return [{"range": r.to_json_dict(), "reason": "slope class",
                 "slope": format_rational(slope),
                 "gamma": None if gamma is None else format_rational(gamma)}]
    return []


class TestRangeStraightness:
    def test_no_inner_vertex_matches_slope_set(self):
        # a range over which the polygon has no vertex strictly inside is
        # straight, with the slope of the segment ending at hi
        rng = random.Random(53)
        reasons = []
        while len(reasons) < 600:
            hull = random_hull(rng)
            x_first, last = hull.vertices[0][0], hull.certified_upto
            if last - x_first < 2:
                continue
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 12)),
                          Fraction(rng.randint(1, 20), rng.choice((1, 2, 3))))
            lo = rng.randint(x_first, last - 2)
            hi = rng.randint(lo + 2, last)
            r = steinberg.NearSteinbergRange(ctx.weight_of_bullet(0), (hi - lo) // 2, lo, hi)
            got = steinberg._check_range_slope(ctx, w, r, hull)
            assert got == slope_set_check(ctx, w, r, hull), (hull, r)
            reasons.append(got[0]["reason"] if got else "ok")
        assert min(reasons.count(x) for x in
                   ("ok", "slope class", "polygon not straight over range")) >= 25


    def test_segment_width_matches_bisect_pair(self):
        # straight over [lo, hi] when the segment from lo reaches hi, exactly
        # when as many vertices lie below hi as at or below lo
        rng = random.Random(59)
        polygons = [random_hull(rng) for _ in range(200)] + [
            newton.np_of_ghost_auto(ctx, w, 40)[0]
            for ctx, w in ((C4, Classical(18)), (C4, Perturbed(66, Fraction(7, 2))),
                           (new_context(5, 1, 0), Perturbed(18, Fraction(5, 2))),
                           (new_context(13, 5, 7), Boundary(Fraction(1, 3))))]
        outcomes = set()
        for hull in polygons:
            xs, last = hull.xs, hull.certified_upto
            for lo in range(xs[0], last):
                for hi in range(lo + 1, last + 1):
                    _, width = next(newton.segments_from(hull, lo))
                    straight = bisect_left(xs, hi) == bisect_right(xs, lo)
                    assert (width >= hi - lo) == straight, (hull, lo, hi)
                    outcomes.add(straight)
        assert outcomes == {True, False}


class TestVertexTheorem:
    @pytest.mark.parametrize(
        "r,vertices",
        [(Fraction(7), [1, 5]), (Fraction(4), [1, 2, 4, 5]), (Fraction(5, 2), [1, 2, 3, 4, 5])],
    )
    def test_three_regimes(self, r, vertices):
        w = Perturbed(18, r)
        assert steinberg.vertex_theorem_check(C4, w, 5) == []
        np_, _ = newton.np_of_ghost_auto(C4, w, 5)
        assert [x for x, _ in np_.vertices if 1 <= x <= 5] == vertices

    def test_classical_zero_point(self):
        assert steinberg.vertex_theorem_check(C4, Classical(18), 6) == []
        # the whole p-new stretch of weight 18 is one forced straight line
        ranges = steinberg.near_steinberg_ranges(C4, Classical(18), 6)
        assert any(rng.k == 18 and (rng.lo, rng.hi) == (1, 5) for rng in ranges)

    def test_random_points(self):
        rng = random.Random(11)
        for _ in range(20):
            p = rng.choice((5, 7, 11))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 9)),
                          Fraction(rng.randint(1, 20), rng.choice((1, 2, 3))))
            assert steinberg.vertex_theorem_check(ctx, w, 12) == [], (ctx, w)

    def test_failing_point_gives_one_witness_in_json_form(self, monkeypatch):
        # a classical point has no gamma, which the witness renders as None
        monkeypatch.setattr(steinberg, "_in_lattice", lambda x, gamma: False)
        slope = newton.slope_at(newton.np_of_ghost_auto(C4, Classical(18), 6)[0], 5)
        assert steinberg.vertex_theorem_check(C4, Classical(18), 6) == [{
            "point": "classical:18",
            "mismatches": [],
            "slope_violations": [{"range": {"k": 18, "L": 2, "lo": 1, "hi": 5},
                                  "reason": "slope class",
                                  "slope": format_rational(slope), "gamma": None}],
            "nested": True,
        }]


def oracle_delta_witnesses(ctx, k0, ell):
    """The (above, below) witnesses of offset ell of k0 by the per-offset
    scan: the weights of ``dims.zero_window(n)`` in order, on the side, and
    the first whose own range contains n."""
    half_iw = dims.d_iw(ctx, k0) // 2

    def first_hit(n, side):
        for kb in dims.zero_window(ctx, n):
            k1 = ctx.weight_of_bullet(kb)
            if side * (k1 - k0) > 0:
                rng = steinberg.near_steinberg_range(ctx, Classical(k0), k1)
                if rng is not None and rng.contains(n):
                    return k1
        return None

    return first_hit(half_iw + ell, +1), first_hit(half_iw - ell, -1)


def nonconvex_offsets(ctx, kb_max):
    """The (k, ell) with 0 <= ell < d_new/2 that are not profile hull vertices."""
    return [(k, ell) for k in map(ctx.weight_of_bullet, range(kb_max + 1))
            for ell in range(dims.d_new(ctx, k) // 2)
            if not newton.is_vertex(steinberg.delta_profile(ctx, k).hull, ell)]


class TestDeltaVertices:
    def test_convex_profile_has_no_witnesses(self):
        # the check passes at a vertex only when neither side has a witness
        assert newton.is_vertex(steinberg.delta_profile(C4, 18).hull, 1)
        assert steinberg.delta_vertex_check(C4, 18) == []

    def test_equivalence_and_nonconvex_witness_found(self):
        # sweep one disk until a genuinely non-convex profile shows up; at
        # such offsets both neighbouring-weight witnesses must exist
        ctx = new_context(5, 1, 0)
        for kb in range(0, 60):
            k = ctx.weight_of_bullet(kb)
            assert steinberg.delta_vertex_check(ctx, k) == [], k
        assert nonconvex_offsets(ctx, 59)

    def test_missing_witnesses_are_reported(self, monkeypatch):
        # with no ranges at all, every non-vertex has neither witness
        ctx = new_context(5, 1, 0)
        k = nonconvex_offsets(ctx, 59)[0][0]
        ells = [ell for k1, ell in nonconvex_offsets(ctx, 59) if k1 == k]
        monkeypatch.setattr(steinberg, "near_steinberg_range", lambda ctx, w, k: None)
        assert steinberg.delta_vertex_check(ctx, k) == [
            {"k0": k, "ell": ell, "non_vertex": True,
             "witness_above": None, "witness_below": None} for ell in ells]

    @pytest.mark.parametrize("p,a,s_eps", [(5, 1, 0), (7, 2, 4), (11, 3, 0), (13, 9, 0)])
    def test_witnesses_match_the_per_offset_scan(self, monkeypatch, p, a, s_eps):
        # an inverted vertex test makes every offset report its witnesses,
        # which must be the per-offset scan's first hits on each side
        ctx = new_context(p, a, s_eps)
        is_vertex = newton.is_vertex
        monkeypatch.setattr(newton, "is_vertex", lambda poly, x: not is_vertex(poly, x))
        for k in map(ctx.weight_of_bullet, range(26)):
            got = steinberg.delta_vertex_check(ctx, k)
            assert [w["ell"] for w in got] == list(range(dims.d_new(ctx, k) // 2)), k
            for w in got:
                assert (w["witness_above"], w["witness_below"]) == \
                    oracle_delta_witnesses(ctx, k, w["ell"]), (k, w["ell"])

    @pytest.mark.parametrize("p,a,s_eps", [(5, 1, 0), (7, 2, 4), (13, 9, 0)])
    def test_least_witness_among_overlapping_ranges(self, monkeypatch, p, a, s_eps):
        # real ranges give each index at most one witness per side, so give
        # every weight its widest range, L = d_new/2: then the ranges of
        # several weights hold one index, and the check must still pick the
        # per-offset scan's first hit.  With every offset a vertex, an
        # offset is reported exactly when it has a witness.
        def widest_range(ctx, w, k):
            half_iw, top = dims.d_iw(ctx, k) // 2, dims.d_new(ctx, k) // 2
            return steinberg.NearSteinbergRange(k, top, half_iw - top, half_iw + top) \
                if top else None

        ctx = new_context(p, a, s_eps)
        monkeypatch.setattr(steinberg, "near_steinberg_range", widest_range)
        monkeypatch.setattr(newton, "is_vertex", lambda poly, x: True)
        several = 0  # offsets whose index lies in two ranges above k
        for k in map(ctx.weight_of_bullet, range(26)):
            got = {w["ell"]: (w["witness_above"], w["witness_below"])
                   for w in steinberg.delta_vertex_check(ctx, k)}
            half_iw = dims.d_iw(ctx, k) // 2
            for ell in range(dims.d_new(ctx, k) // 2):
                assert got.get(ell, (None, None)) == oracle_delta_witnesses(ctx, k, ell)
                n = half_iw + ell
                holders = [k1 for k1 in map(ctx.weight_of_bullet, dims.zero_window(ctx, n))
                           if k1 > k and widest_range(ctx, None, k1).contains(n)]
                several += len(holders) > 1
        assert several

    def test_check_reads_the_range_list(self, monkeypatch):
        # drop the least range above k0 from the list: the non-convex
        # offsets of (5, 1, 0) whose index it held lose their witness above,
        # and every other offset still passes
        ctx = new_context(5, 1, 0)
        ranges = steinberg.near_steinberg_ranges
        dropped = {}

        def without_least_above(ctx, w, n_max):
            found = ranges(ctx, w, n_max)
            above = [r for r in found if r.k > w.k0]
            if above:
                dropped[w.k0] = min(above, key=lambda r: r.k)
                found.remove(dropped[w.k0])
            return found

        monkeypatch.setattr(steinberg, "near_steinberg_ranges", without_least_above)
        reported = [w for k in map(ctx.weight_of_bullet, range(60))
                    for w in steinberg.delta_vertex_check(ctx, k)]
        lost = [(k, ell) for k, ell in nonconvex_offsets(ctx, 59)
                if dropped[k].contains(dims.d_iw(ctx, k) // 2 + ell)]
        assert lost
        assert [(w["k0"], w["ell"]) for w in reported] == lost
        assert all(w["non_vertex"] and w["witness_above"] is None
                   and w["witness_below"] is not None for w in reported)

    def test_hull_slope_classes(self):
        for ctx in (C0, C4, new_context(7, 3, 2)):
            for kb in range(0, 40):
                assert steinberg.delta_hull_slope_classes(ctx, ctx.weight_of_bullet(kb)) == []
