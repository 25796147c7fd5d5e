import ast
import copy
import pickle
import random
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline import newton, verify
from ghostline.valuation import INF
from ghostline.weight_space import (
    Boundary,
    Classical,
    Perturbed,
    clear_context_caches,
    format_rational,
    new_context,
)

C0 = new_context(7, 2, 0)
C4 = new_context(7, 2, 4)


def column(points):
    """(ys, start) of the column form of (x, y) pairs with distinct x in
    any order: INF where no pair has that x."""
    start = min(x for x, _ in points)
    ys = [INF] * (max(x for x, _ in points) - start + 1)
    for x, y in points:
        ys[x - start] = y
    return ys, start


def brute_vertices(points):
    """The strict lower-hull vertices of (x, y) pairs with distinct x, INF
    skipped, by their definition, the oracle of the monotone chain: the ends
    are vertices, and an inner point is one when every chord over it passes
    strictly above it, that is, when the steepest slope into it from the
    left is below the shallowest slope out of it to the right."""
    pts = sorted((x, y) for x, y in points if y is not INF)
    out = []
    for i, (x, y) in enumerate(pts):
        into = [Fraction(y - y0) / (x - x0) for x0, y0 in pts[:i]]
        onward = [Fraction(y1 - y) / (x1 - x) for x1, y1 in pts[i + 1:]]
        if not into or not onward or max(into) < min(onward):
            out.append((x, y))
    return out


class TestLowerConvexHull:
    def test_three_point_examples(self):
        np_ = newton.lower_convex_hull([0, 1, 3])
        assert [v for v in np_.vertices] == [(0, 0), (1, 1), (2, 3)]
        assert np_.slopes == ((Fraction(1), 1), (Fraction(2), 1))

        np_ = newton.lower_convex_hull([0, 5, 3])
        assert np_.vertices == ((0, 0), (2, 3))
        assert np_.slopes == ((Fraction(3, 2), 2),)

        np_ = newton.lower_convex_hull([0, INF, 4])
        assert np_.vertices == ((0, 0), (2, 4))

    def test_integer_values_stay_int(self):
        np_ = newton.lower_convex_hull([0, 5, 3, INF, 9])
        assert all(type(y) is int for _, y in np_.vertices)
        assert all(type(s) is Fraction for s, _ in np_.slopes)
        np_, _ = newton.np_of_ghost_auto(C4, Classical(30), 8)
        assert all(type(y) is int for _, y in np_.vertices)

    def test_collinear_points_are_not_vertices(self):
        np_ = newton.lower_convex_hull([0, 1, 2, 5])
        assert np_.vertices == ((0, 0), (2, 2), (3, 5))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            newton.lower_convex_hull([])
        with pytest.raises(ValueError):
            newton.lower_convex_hull([INF, INF], start=-3)

    def test_matches_brute_force_hull(self):
        # seeded int and Fraction columns with INF gaps, negative starts and
        # collinear runs, against the strict hull by its definition
        rng = random.Random(2026)
        seen = {"int": 0, "fraction": 0, "gap": 0, "negative": 0, "collinear": 0}
        for case in range(600):
            kind = ("int", "fraction")[case % 2]
            start = rng.randint(-40, 10)
            y = Fraction(rng.randint(-30, 30)) if kind == "fraction" else rng.randint(-30, 30)
            slope = rng.randint(-9, 3)
            ys = []
            for _ in range(rng.randint(1, 28)):
                if rng.random() < 0.25:  # a bend; otherwise the run stays collinear
                    slope += rng.randint(0, 4)
                    if kind == "fraction":
                        slope += Fraction(rng.randint(1, 5), rng.randint(2, 4))
                roll = rng.random()
                ys.append(INF if roll < 0.1 else y + (rng.randint(1, 6) if roll < 0.3 else 0))
                y += slope
            if all(v is INF for v in ys):
                ys[rng.randrange(len(ys))] = y
            want = brute_vertices(list(enumerate(ys, start)))
            hull = newton.lower_convex_hull(ys, start)
            assert hull.vertices == tuple(want), (ys, start)
            assert all(type(v) is type(w) for (_, v), (_, w) in zip(hull.vertices, want))
            seen[kind] += 1
            seen["gap"] += INF in ys
            seen["negative"] += start < 0
            seen["collinear"] += any(w > 1 for _, w in hull.slopes)
        assert min(seen.values()) >= 100, seen

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.fractions(min_value=-20, max_value=20)),
            min_size=1,
            max_size=25,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=200)
    def test_idempotent_and_supporting(self, pts):
        np_ = newton.lower_convex_hull(*column(pts))
        again = newton.lower_convex_hull(*column(np_.vertices))
        assert again.vertices == np_.vertices
        # every input point lies on or above the hull
        for x, y in pts:
            for (x0, y0), (x1, y1) in zip(np_.vertices, np_.vertices[1:]):
                if x0 <= x <= x1:
                    assert (y - y0) * (x1 - x0) >= (y1 - y0) * (x - x0)
        # slopes strictly increase and widths add up
        slopes = [s for s, _ in np_.slopes]
        assert slopes == sorted(set(slopes))
        assert sum(w for _, w in np_.slopes) == np_.vertices[-1][0] - np_.vertices[0][0]


def hull_value(np_, x):
    for (x0, y0), (x1, y1) in zip(np_.vertices, np_.vertices[1:]):
        if x0 <= x <= x1:
            return y0 + Fraction(y1 - y0, x1 - x0) * (x - x0)
    raise AssertionError(f"x = {x} outside hull")


def random_hull(rng):
    """The hull of random points: the first x is often not 0, and runs of
    collinear points (which are not vertices) are common."""
    x0 = rng.choice((0, 0, rng.randint(1, 6)))
    pts, y = [], Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
    slope = Fraction(rng.randint(-12, 0), rng.choice((1, 2)))
    for x in range(x0, x0 + rng.randint(1, 30)):
        if rng.random() < 0.3:
            slope += Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
        if x > x0 and rng.random() < 0.1:
            pts.append((x, INF))
        else:
            pts.append((x, y + rng.choice((0, 0, 0, Fraction(rng.randint(1, 5), 2)))))
        y += slope
    return newton.lower_convex_hull([y for _, y in pts], x0)


def is_vertex_walk(np_, n):
    """``newton.is_vertex`` as a linear walk over the vertices, the oracle."""
    if n > np_.certified_upto:
        raise ValueError(n)
    return any(x == n for x, _ in np_.vertices)


def slope_at_walk(np_, i):
    """``newton.slope_at`` as a linear walk over the segments, the oracle."""
    if i < 1 or i > np_.certified_upto or i <= np_.vertices[0][0]:
        raise ValueError(i)
    pos = np_.vertices[0][0]
    for s, width in np_.slopes:
        pos += width
        if i <= pos:
            return s
    raise ValueError(i)


class TestVertexStorage:
    def test_hull_stores_vertices_only(self):
        # slopes are never stored: each read walks the vertices afresh, and
        # a polygon has no room for anything but its two vertex columns
        rng = random.Random(3)
        for _ in range(50):
            hull = random_hull(rng)
            assert hull.certified_upto == hull.vertices[-1][0]
            assert hull.slopes == tuple(newton.segments(hull.vertices))
            assert not hasattr(hull, "__dict__")
        assert list(newton.NewtonPolygon.__annotations__) == ["xs", "ys"]
        assert newton.NewtonPolygon.__slots__ == ("xs", "ys")

    def test_certified_polygon_is_a_vertex_prefix(self):
        np_ = newton.np_of_ghost(C4, Perturbed(18, Fraction(4)), 8, buffer=22)
        assert not hasattr(np_, "__dict__")
        assert np_.certified_upto == np_.vertices[-1][0] >= 8
        w = Perturbed(18, Fraction(4))
        ys = ghost.evaluator(C4, w).scaled(0, 8 + 22 + 1)
        assert ys == [ghost.eval_vp(C4, n, w) for n in range(8 + 22 + 1)]  # D = 1
        window = newton.lower_convex_hull(ys)
        assert window.vertices[: len(np_.vertices)] == np_.vertices
        assert window.slopes[: len(np_.slopes)] == np_.slopes

    def test_queries_match_linear_walk(self):
        rng = random.Random(17)
        seen_offset_start = seen_collinear = 0
        for _ in range(400):
            hull = random_hull(rng)
            x_first, last = hull.vertices[0][0], hull.certified_upto
            seen_offset_start += x_first != 0
            seen_collinear += any(w > 1 for _, w in hull.slopes)
            for n in range(x_first - 2, last + 2):
                for query, walk in ((newton.is_vertex, is_vertex_walk),
                                    (newton.slope_at, slope_at_walk)):
                    try:
                        want = walk(hull, n)
                    except ValueError:
                        with pytest.raises(ValueError):
                            query(hull, n)
                    else:
                        assert query(hull, n) == want, (hull, n)
        assert seen_offset_start >= 50 and seen_collinear >= 100

    def test_segments_from_a_start(self):
        rng = random.Random(29)
        for _ in range(200):
            hull = random_hull(rng)
            x_first, last = hull.vertices[0][0], hull.certified_upto
            per_unit = {i: slope_at_walk(hull, i) for i in range(x_first + 1, last + 1)}
            for start in range(x_first - 2, last + 2):
                segs = list(newton.segments(hull.vertices, start))
                assert all(width > 0 for _, width in segs)
                got = [s for s, width in segs for _ in range(width)]
                assert got == [per_unit[i] for i in sorted(per_unit) if i > start]
            assert tuple(newton.segments(hull.vertices)) == hull.slopes


class TestGhostPolygon:
    def test_regime_straight_line(self):
        np_, _ = newton.np_of_ghost_auto(C4, Perturbed(18, Fraction(7)), 5)
        assert [hull_value(np_, x) for x in range(1, 6)] == [1, 9, 17, 25, 33]
        assert [x for x, _ in np_.vertices if 1 <= x <= 5] == [1, 5]
        assert newton.slope_at(np_, 3) == 8 and not newton.is_vertex(np_, 3)

    def test_regime_three_segments(self):
        r = Fraction(4)
        np_, _ = newton.np_of_ghost_auto(C4, Perturbed(18, r), 5)
        assert [hull_value(np_, x) for x in range(1, 6)] == [1, 3 + r, 11 + r, 19 + r, 33]
        assert [x for x, _ in np_.vertices if 1 <= x <= 5] == [1, 2, 4, 5]
        assert [newton.slope_at(np_, i) for i in range(2, 6)] == [2 + r, 8, 8, 14 - r]
        assert not newton.is_vertex(np_, 3)
        assert newton.is_vertex(np_, 2) and newton.is_vertex(np_, 4)

    def test_regime_fully_broken(self):
        r = Fraction(5, 2)
        np_, _ = newton.np_of_ghost_auto(C4, Perturbed(18, r), 5)
        assert [hull_value(np_, x) for x in range(1, 6)] == [1, 3 + r, 8 + 2 * r, 19 + r, 33]
        assert [x for x, _ in np_.vertices if 1 <= x <= 5] == [1, 2, 3, 4, 5]
        assert [newton.slope_at(np_, i) for i in range(2, 6)] == [2 + r, 5 + r, 11 - r, 14 - r]

    def test_boundary_slopes(self):
        t = Fraction(1, 2)
        np_, _ = newton.np_of_ghost_auto(C0, Boundary(t), 6)
        want = [t * d for d in (0, 3, 5, 8, 10, 13)]
        assert [newton.slope_at(np_, i) for i in range(1, 7)] == want
        assert want == sorted(want)
        for n in range(0, 7):
            assert newton.slope_at(np_, n + 1) == t * (
                ghost.degree(C0, n + 1) - ghost.degree(C0, n)
            )

    def test_classical_inner_slope_is_integral(self):
        np_, _ = newton.np_of_ghost_auto(C0, Classical(4), 2)
        assert newton.slope_at(np_, 1).denominator == 1

    def test_buffer_stability(self):
        for w in (Perturbed(18, Fraction(4)), Boundary(Fraction(2, 5)), Classical(30)):
            base, _ = newton.np_of_ghost_auto(C4, w, 8)
            bigger = newton.np_of_ghost(C4, w, 8, buffer=2 * (2 * 7 + 8))
            n = base.certified_upto
            assert [v for v in bigger.vertices if v[0] <= n] == list(base.vertices)
            prefix = [s for s, wd in base.slopes]
            assert [s for s, wd in bigger.slopes][: len(prefix)] == prefix

    def test_certification_failure_returns_none(self):
        # a long forced straight line cannot be certified from a tiny window
        k = C4.weight_of_bullet(400)
        n_mid = (2 * 400 + 2) // 2
        assert newton.np_of_ghost(C4, Classical(k), n_mid, buffer=2) is None

    def test_the_buffers_double_until_one_certifies(self, monkeypatch):
        # the INF stretch of g_n at w_k runs to about n = 3500 (see
        # test_cli's test_a_long_inf_stretch_certifies), so the windows of
        # the first seven buffers fail to certify and the eighth certifies
        buffers = []
        real = newton.np_of_ghost

        def spy(ctx, w, n_max, buffer):
            buffers.append(buffer)
            return real(ctx, w, n_max, buffer)

        monkeypatch.setattr(newton, "np_of_ghost", spy)
        w = Classical(6 + 6 * 2000)
        assert newton.np_of_ghost_auto(C4, w, 2001)[1] == 22 << 7
        assert buffers == [22 << i for i in range(8)]
        buffers.clear()
        assert newton.np_of_ghost_auto(C4, Classical(18), 5)[1] == 22
        assert buffers == [22]
        # the window table's limit, not a retry cap, ends a loop that has
        # not certified
        clear_context_caches()
        buffers.clear()
        monkeypatch.setattr(dims, "MAX_WEIGHTS", dims.k_max_bullet(C4, 3000))
        with pytest.raises(ValueError, match="limit"):
            newton.np_of_ghost_auto(C4, w, 2001)
        assert buffers == [22 << i for i in range(len(buffers))] and 0 < len(buffers) < 8
        clear_context_caches()

    def test_queries_beyond_certification_rejected(self):
        np_, _ = newton.np_of_ghost_auto(C4, Classical(18), 5)
        with pytest.raises(ValueError):
            newton.is_vertex(np_, np_.certified_upto + 1)
        with pytest.raises(ValueError):
            newton.slope_at(np_, np_.certified_upto + 1)
        with pytest.raises(ValueError):
            newton.slope_at(np_, 0)

    def test_json_schema(self):
        np_, _ = newton.np_of_ghost_auto(C4, Perturbed(18, Fraction(5, 2)), 3)
        d = np_.to_json_dict()
        assert set(d) == {"vertices", "slopes", "certified_upto"}
        assert d["vertices"][0] == [0, "0/1"]
        assert all(isinstance(s, str) and "/" in s for s, _ in d["slopes"])


class _FactoredEvaluator:
    """Values by the factored oracle, in the evaluator interface: ``scaled``
    and the certificate's single-index read ``at`` are D * ``eval_vp``, and
    ``base`` is D * min(r, 1), for D the denominator of the radius r."""

    def __init__(self, ctx, w):
        self.ctx, self.w = ctx, w
        self.den = 1 if w.r is INF else w.r.denominator
        self.base = int(min(w.r, 1) * self.den)
        self.known = []

    def grow(self, n):
        self.known += [ghost.eval_vp(self.ctx, m, self.w) for m in range(len(self.known), n + 1)]

    def scaled(self, start, stop):
        self.grow(stop - 1)
        return [v if v is INF else int(v * self.den) for v in self.known[start:stop]]

    def at(self, n):
        return self.scaled(n, n + 1)[0]


class TestPolygonAgainstFactoredOracle:
    CASES = [
        (new_context(5, 1, 2), Perturbed(20, Fraction(7, 2)), 30),
        (new_context(7, 2, 4), Perturbed(18, Fraction(4)), 30),
        (new_context(7, 3, 1), Perturbed(5, Fraction(2, 3)), 25),
        (new_context(11, 5, 7), Perturbed(new_context(11, 5, 7).weight_of_bullet(12),
                                          Fraction(19, 2)), 40),
        (new_context(13, 4, 3), Perturbed(100, Fraction(5)), 30),
        (new_context(7, 2, 0), Boundary(Fraction(1, 2)), 30),
        (new_context(11, 2, 9), Boundary(Fraction(2, 3)), 30),
        (new_context(13, 9, 0), Boundary(Fraction(1, 5)), 25),
        (new_context(7, 2, 4), Classical(18), 30),
        (new_context(5, 1, 0), Classical(new_context(5, 1, 0).weight_of_bullet(9)), 30),
        # D = 10^19: the scaled values pass 2^63, so they must stay in a list
        (new_context(7, 2, 4), Perturbed(18, Fraction(10**19 - 1, 10**19)), 30),
    ]

    @pytest.mark.parametrize("ctx, w, n_max", CASES)
    def test_matches_factored_route(self, monkeypatch, ctx, w, n_max):
        fast, fast_buffer = newton.np_of_ghost_auto(ctx, w, n_max)
        if w.r is not INF and w.r.denominator == 10**19:
            assert max(ghost.evaluator(ctx, w).scaled(0, n_max + 1)) >= 2**63
        monkeypatch.setattr(newton.ghost, "evaluator", _FactoredEvaluator)
        slow, slow_buffer = newton.np_of_ghost_auto(ctx, w, n_max)
        assert fast.vertices == slow.vertices
        assert fast.slopes == slow.slopes
        assert fast.certified_upto == slow.certified_upto
        assert fast_buffer == slow_buffer


def _future_safe_fraction(ctx, w, vx, vy, slope_in, window_end, exact=True):
    """The certification loop in plain Fraction arithmetic, as the oracle:
    until the floor c * deg overtakes the line for good, each point is
    compared by its exact value from the factored ``eval_vp`` (INF at a
    zero, above every line), or with exact=False by the floor alone."""
    c = Fraction(min(w.r, 1))
    m = window_end + 1
    while True:
        line = vy + slope_in * (m - vx)
        floor = c * ghost.degree_fast(ctx, m)
        if floor > line:
            inc = ghost.degree_fast(ctx, m + 1) - ghost.degree_fast(ctx, m)
            if c * inc >= slope_in:
                return True
        elif not exact or ghost.eval_vp(ctx, m, w) <= line:
            return False
        m += 1


def _future_safe_floor_only(ctx, w, *args, **kwargs):
    """The older rule, kept as an oracle: exact values at classical points
    only, and the floor alone at every finite radius."""
    return _future_safe_fraction(ctx, w, *args, exact=isinstance(w, Classical), **kwargs)


def _random_certification_case(rng, kind):
    p = rng.choice((5, 7, 11, 13))
    ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
    if kind == "classical":
        w = Classical(rng.choice((ctx.weight_of_bullet(rng.randint(0, 30)), rng.randint(2, 300))))
    elif kind == "perturbed":
        w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 30)),
                      Fraction(rng.randint(1, 30), rng.choice((1, 2, 3))))
    else:
        den = rng.randint(2, 6)
        w = Boundary(Fraction(rng.randint(1, den - 1), den))
    c = Fraction(min(w.r, 1))
    window_end = rng.randint(4, 40)
    vx = rng.randint(max(0, window_end - 12), window_end)
    m = window_end + 1
    inc = ghost.degree_fast(ctx, m + 1) - ghost.degree_fast(ctx, m)
    slope_in = c * inc + Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    # the line passes near the true value at vx or near the floor just past
    # the window, so that both outcomes occur
    y = ghost.eval_vp(ctx, vx, w)
    ev = ghost.evaluator(ctx, w)
    assert ev.scaled(vx, vx + 1) == [ev.den * y]  # the read the polygon's hull takes
    if y is INF or rng.random() < 0.5:
        y = c * ghost.degree_fast(ctx, m) - slope_in * (m - vx)
    vy = y + Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3, 4)))
    if vy.denominator == 1 and rng.random() < 0.5:
        vy = int(vy)  # hull vertices of integer profiles stay int
    return ctx, w, vx, vy, slope_in, window_end


def _future_safe_scaled(ctx, w, vx, vy, slope_in, window_end):
    """``newton._future_safe`` on an oracle case: vy and slope_in go into
    the units 1/D of the point's evaluator, the slope as (dy, dx).  A seeded
    vy off the grid (1/D)Z stays a ``Fraction``, which the loop's exact
    arithmetic accepts as it is."""
    ev = ghost.evaluator(ctx, w)
    slope = slope_in * ev.den
    return newton._future_safe(ev, vx, vy * ev.den, slope.numerator, slope.denominator,
                               window_end)


class TestIntegerCertification:
    @pytest.mark.parametrize("kind", ["classical", "perturbed", "boundary"])
    def test_matches_fraction_reference(self, kind):
        rng = random.Random(f"future-safe-{kind}")
        outcomes, gained = [], 0
        for _ in range(300):
            args = _random_certification_case(rng, kind)
            got = _future_safe_scaled(*args)
            assert got == _future_safe_fraction(*args), args
            old = _future_safe_floor_only(*args)
            assert got or not old, args  # exact values never lose a certificate
            gained += got and not old
            outcomes.append(got)
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20
        # only a finite radius above 1 leaves room between floor and exact value
        assert (gained > 0) == (kind == "perturbed"), gained


class TestExactCertificate:
    """The certificate compares exact values past the window at every radius."""

    @pytest.mark.parametrize("p", [5, 7])
    def test_polygon_is_final_on_a_longer_window(self, p):
        # the certified prefix equals the hull of a window 3000 indices longer
        rng = random.Random(f"longer-window-{p}")
        for _ in range(3):
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            k0 = ctx.weight_of_bullet(rng.randint(0, 40))
            for w in (Classical(k0), Perturbed(k0, Fraction(rng.randint(3, 24), 2)),
                      Perturbed(k0, Fraction(1, rng.randint(1, 4))),
                      Boundary(Fraction(1, rng.randint(2, 6)))):
                for n_max in (60, 400, 700):
                    np_, buffer = newton.np_of_ghost_auto(ctx, w, n_max)
                    ev = ghost.evaluator(ctx, w)
                    ys = ev.scaled(0, n_max + buffer + 3000 + 1)
                    window = newton.lower_convex_hull(ys).vertices
                    n = np_.certified_upto
                    assert [(x, y * ev.den) for x, y in np_.vertices] == [
                        v for v in window if v[0] <= n], (ctx, w, n_max)

    def test_floor_only_rule_agrees_on_its_range(self, monkeypatch):
        # the np-perturbed golden query of test_cli, under the older rule
        ctx, w = new_context(13, 5, 7), Perturbed(369, Fraction(7, 2))
        np_, buffer = newton.np_of_ghost_auto(ctx, w, 100)

        def floor_only(ev, vx, vy, dy, dx, window_end):
            return _future_safe_floor_only(ctx, w, vx, Fraction(vy, ev.den),
                                           Fraction(dy, dx * ev.den), window_end)

        monkeypatch.setattr(newton, "_future_safe", floor_only)
        old, old_buffer = newton.np_of_ghost_auto(ctx, w, 100)
        assert (buffer, np_.certified_upto) == (34, 134)
        assert (old_buffer, old.certified_upto) == (68, 122)
        assert [v for v in np_.vertices if v[0] <= 122] == list(old.vertices)

    def test_a_scan_past_100000_steps_certifies(self):
        # past a window W the scan reads about 0.81 * W indices at p = 5,
        # here more than 100,000
        ctx, w = new_context(5, 1, 0), Perturbed(18, Fraction(7, 2))
        np_, buffer = newton.np_of_ghost_auto(ctx, w, 130_000)
        assert (buffer, np_.certified_upto) == (18, 130_018)
        window_end = 130_000 + buffer
        # the store grows in steps of GROW_STEP past the last index read
        read = len(ghost.evaluator(ctx, w)._scaled) - ghost.GROW_STEP
        assert read - window_end > 100_000


class TestIntegerHull:
    """The hull and the certificate of a ghost polygon see only integers."""

    C13 = new_context(13, 5, 7)
    POINTS = [
        (C4, Perturbed(18, Fraction(5, 2))),
        (C4, Boundary(Fraction(1, 3))),
        (C4, Classical(18)),
        (C13, Perturbed(C13.weight_of_bullet(4), Fraction(7, 3))),
    ]

    @pytest.mark.parametrize("ctx, w", POINTS)
    def test_hull_receives_ints(self, monkeypatch, ctx, w):
        seen = []
        real = newton.lower_convex_hull

        def spy(ys, start=0):
            seen.extend(y for y in ys if y is not INF)
            return real(ys, start)

        monkeypatch.setattr(newton, "lower_convex_hull", spy)
        np_, _ = newton.np_of_ghost_auto(ctx, w, 6)
        assert seen and all(type(y) is int for y in seen), w
        den = ghost.evaluator(ctx, w).den
        assert all(type(y) is (int if den == 1 else Fraction) for _, y in np_.vertices)


class TuplePolygon:
    """A polygon in the tuple layout that the two vertex columns replaced,
    the oracle: one tuple of (x, y) pairs, read by bisecting on (n,) keys."""

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        self.certified_upto = self.vertices[-1][0]

    def is_vertex(self, n):
        if n > self.certified_upto:
            raise ValueError(n)
        return self.vertices[bisect_left(self.vertices, (n,))][0] == n

    def slope_at(self, i):
        if i < 1 or i > self.certified_upto or i <= self.vertices[0][0]:
            raise ValueError(i)
        j = bisect_left(self.vertices, (i,))
        (x0, y0), (x1, y1) = self.vertices[j - 1], self.vertices[j]
        return Fraction(y1 - y0, x1 - x0)

    def segments(self, start=None):
        return list(newton.segments(self.vertices, start))

    def value_at(self, x):
        if not self.vertices[0][0] <= x <= self.certified_upto:
            raise ValueError(x)
        ys = dict(self.vertices)
        return ys[x] if x in ys else hull_value(self, x)

    def to_json_dict(self):
        return {
            "vertices": [[x, format_rational(y)] for x, y in self.vertices],
            "slopes": [[format_rational(s), w] for s, w in self.segments()],
            "certified_upto": self.certified_upto,
        }


def tuple_np_of_ghost(ctx, w, n_max, buffer):
    """``np_of_ghost`` as it read the tuple layout, the oracle: the windowed
    hull as pairs, the largest certified vertex, the prefix divided by D."""
    ev = ghost.evaluator(ctx, w)
    window_end = n_max + buffer
    verts = newton.lower_convex_hull(ev.scaled(0, window_end + 1)).vertices
    for i in range(len(verts) - 1, -1, -1):
        (vx, vy) = verts[i]
        if vx < n_max:
            break
        if i == 0 or newton._future_safe(ev, vx, vy, vy - verts[i - 1][1],
                                         vx - verts[i - 1][0], window_end):
            return TuplePolygon((x, Fraction(y, ev.den) if ev.den != 1 else y)
                                for x, y in verts[: i + 1])
    return None  # no vertex at or past n_max certifies


def _same_answer(fast, slow, *args):
    try:
        want = slow(*args)
    except ValueError:
        with pytest.raises(ValueError):
            fast(*args)
        return
    assert fast(*args) == want, args


def assert_same_polygon(np_, old):
    """Every reader of the column layout against the tuple oracle."""
    assert np_.vertices == old.vertices
    assert np_.certified_upto == old.certified_upto
    assert np_.to_json_dict() == old.to_json_dict()
    assert list(np_.slopes) == old.segments()
    x_first, last = old.vertices[0][0], old.certified_upto
    for n in range(x_first - 2, last + 2):
        _same_answer(lambda m: newton.is_vertex(np_, m), old.is_vertex, n)
        _same_answer(lambda m: newton.slope_at(np_, m), old.slope_at, n)
        assert list(newton.segments(np_.vertices, n)) == old.segments(n)
        assert list(newton.segments_from(np_, n)) == old.segments(n)
        _same_answer(lambda m: newton.value_at(np_, m), old.value_at, n)


def is_machine_column(column):
    """A column of 64-bit machine integers, behind a read-only view."""
    return type(column) is memoryview and column.format == "q" and column.readonly


class TestColumnLayout:
    """Polygons keep their vertices as two columns (a read-only view of an
    ``array('q')`` where the values fit); every reader answers as the tuple
    layout did."""

    @staticmethod
    def random_points(rng, kind):
        x0 = rng.choice((0, 0, rng.randint(1, 6)))
        scale = {"int": 1, "fraction": 1, "wide": 2**66}[kind]
        pts, y, slope = [], rng.randint(-9, 9) * scale, rng.randint(-12, 0) * scale
        for x in range(x0, x0 + rng.randint(1, 30)):
            if rng.random() < 0.3:
                slope += rng.randint(1, 4) * scale
            if x > x0 and rng.random() < 0.1:
                pts.append((x, INF))
                y += slope
                continue
            bump = rng.choice((0, 0, 0, rng.randint(1, 5) * scale))
            if kind == "fraction":
                bump += Fraction(rng.randint(0, 2), rng.choice((2, 3)))
            pts.append((x, y + bump))
            y += slope
        rng.shuffle(pts)
        return pts

    @pytest.mark.parametrize("kind", ["int", "fraction", "wide"])
    def test_random_hulls(self, kind):
        rng = random.Random(f"columns-{kind}")
        layouts = set()
        for _ in range(150):
            pts = self.random_points(rng, kind)
            hull = newton.lower_convex_hull(*column(pts))
            old = TuplePolygon(brute_vertices(pts))
            assert is_machine_column(hull.xs)
            machine = all(type(y) is int and -2**63 <= y < 2**63 for _, y in old.vertices)
            assert (is_machine_column(hull.ys) if machine else type(hull.ys) is tuple), old.vertices
            layouts.add(type(hull.ys))
            assert_same_polygon(hull, old)
        assert layouts == {memoryview} if kind == "int" else tuple in layouts

    POINTS = [
        (new_context(5, 1, 0), Perturbed(18, Fraction(7, 2)), 150),
        (C4, Classical(18), 60),
        (C4, Classical(66), 90),
        (C4, Perturbed(18, Fraction(4)), 60),
        (C4, Perturbed(18, Fraction(5, 2)), 60),
        (C4, Perturbed(18, Fraction(1, 3)), 40),
        (C4, Boundary(Fraction(1, 3)), 40),
        (C4, Perturbed(18, Fraction(10**19 - 1, 10**19)), 40),
        (C4, Perturbed(18, Fraction(10**20 + 1, 10**20)), 40),
        (new_context(13, 5, 7), Perturbed(369, Fraction(7, 2)), 100),
    ]

    @pytest.mark.parametrize("ctx, w, n_max", POINTS)
    def test_ghost_polygons(self, ctx, w, n_max):
        np_, buffer = newton.np_of_ghost_auto(ctx, w, n_max)
        assert_same_polygon(np_, tuple_np_of_ghost(ctx, w, n_max, buffer))
        den = ghost.evaluator(ctx, w).den
        assert is_machine_column(np_.ys) if den == 1 else type(np_.ys) is tuple
        assert pickle.loads(pickle.dumps(np_)) == np_ and hash(copy.deepcopy(np_)) == hash(np_)

    def test_none_exactly_where_the_oracle_fails_to_certify(self):
        # two windows too short to certify n_max, and two that certify it
        k = C4.weight_of_bullet(400)
        failed = 0
        for w, n_max, buffer in ((Classical(k), 401, 2), (Classical(k), 380, 0),
                                 (Perturbed(k, Fraction(7, 2)), 401, 1), (Classical(18), 1, 0)):
            want = tuple_np_of_ghost(C4, w, n_max, buffer)
            got = newton.np_of_ghost(C4, w, n_max, buffer)
            if want is None:
                assert got is None, (w, n_max, buffer)
                failed += 1
            else:
                assert_same_polygon(got, want)
        assert failed == 2

    @pytest.mark.parametrize("ys", [
        (0, 2, 5, 11),
        (Fraction(1, 2), Fraction(5, 2), Fraction(11, 2), Fraction(23, 2)),
        (2**70, 2**70 + 2, 2**70 + 5, 2**70 + 11),
    ], ids=["int", "fraction", "wide"])
    def test_value_and_segments_from_a_start(self, ys):
        # vertices at x = 1, 3, 4, 7 with slopes 1, 3, 2 on each y column
        np_ = newton.NewtonPolygon((1, 3, 4, 7), ys)
        y0 = ys[0]
        assert [newton.value_at(np_, x) - y0 for x in range(1, 8)] == [0, 1, 2, 5, 7, 9, 11]
        assert newton.value_at(np_, 3) is ys[1]  # a vertex answers with its own y
        for x in (0, 8):
            with pytest.raises(ValueError, match="outside the polygon's span"):
                newton.value_at(np_, x)
        walks = {
            -5: [(1, 2), (3, 1), (2, 3)],  # before the first vertex: the whole walk
            1: [(1, 2), (3, 1), (2, 3)],
            2: [(1, 1), (3, 1), (2, 3)],  # between vertices: the segment is cut
            3: [(3, 1), (2, 3)],  # at a vertex: the walk from it
            5: [(2, 2)],
            7: [],
            9: [],
        }
        for start, want in walks.items():
            assert list(newton.segments_from(np_, start)) == want, start

    def test_cached_columns_are_read_only(self):
        # a polygon is shared through the per-context caches, so a write into
        # its columns must fail rather than reach every later reader
        cached = verify._np_at_classical(new_context(7, 2, 4), 18)
        before = cached.to_json_dict()
        with pytest.raises(TypeError):
            verify._np_at_classical(new_context(7, 2, 4), 18).ys[2] += 7
        with pytest.raises(TypeError):
            cached.xs[0] = 1
        assert verify._np_at_classical(new_context(7, 2, 4), 18) is cached
        assert cached.to_json_dict() == before and newton.slope_at(cached, 2) == 8

    def test_huge_denominator_keeps_its_integers(self):
        # D = 10**19: the scaled values pass 64 bits, so the hull keeps a tuple
        w = Perturbed(18, Fraction(10**19 - 1, 10**19))
        np_, _ = newton.np_of_ghost_auto(C4, w, 5)
        hull = newton.lower_convex_hull(ghost.evaluator(C4, w).scaled(0, 30))
        assert type(hull.ys) is tuple and max(hull.ys) > 2**63
        assert np_.vertices[1] == (1, Fraction(10**19 - 1, 10**19))


def test_only_newton_reads_the_vertex_columns():
    # the layout of a polygon's columns is newton's alone; every other
    # module asks newton's readers
    src = Path(newton.__file__).parent
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py") if path.name != "newton.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("xs", "ys"))
    assert readers == []
