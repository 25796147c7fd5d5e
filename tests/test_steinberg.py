import random
from fractions import Fraction

import pytest

from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline import steinberg
from ghostline.valuation import INF
from ghostline.weight_space import (
    Boundary,
    Classical,
    Perturbed,
    new_context,
    vp_point_to_weight,
)

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


class TestDeltaProfile:
    def test_hull_equals_raw_when_convex(self):
        prof = steinberg.delta_profile(C4, 18)
        assert [v for _, v in prof.raw] == [17, 11, 8, 11, 17]
        assert prof.raw == prof.hull
        assert prof.hull_gaps() == [3, 6]
        assert prof.is_vertex(0) and prof.is_vertex(1)

    def test_symmetric(self):
        for kb in range(0, 25):
            k = C0.weight_of_bullet(kb)
            prof = steinberg.delta_profile(C0, k)
            vals = dict(prof.raw)
            assert all(vals[l] == vals[-l] for l, _ in prof.raw)

    def test_hull_matches_raw_below_2p(self):
        # equality regime: offsets below 2p other than p itself
        ctx = new_context(5, 1, 0)
        for kb in range(0, 40):
            k = ctx.weight_of_bullet(kb)
            prof = steinberg.delta_profile(ctx, k)
            raw, hull = dict(prof.raw), dict(prof.hull)
            for ell in raw:
                if abs(ell) < 2 * ctx.p and abs(ell) != ctx.p:
                    assert raw[ell] == hull[ell], (k, ell)
                elif abs(ell) == ctx.p:
                    assert raw[ell] - hull[ell] <= 1

    def test_positional_lookups_match_dicts(self):
        rng = random.Random(41)
        for _ in range(40):
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            prof = steinberg.delta_profile(ctx, ctx.weight_of_bullet(rng.randint(0, 80)))
            raw, hull = dict(prof.raw), dict(prof.hull)
            top = max(raw)
            for ell in range(-top, top + 1):
                assert prof.raw_value(ell) == raw[ell]
                assert prof.hull_value(ell) == hull[ell]
            assert prof.hull_gaps() == [hull[L] - hull[L - 1] for L in range(1, top + 1)]
            for ell in (-top - 1, top + 1):
                with pytest.raises(KeyError):
                    prof.raw_value(ell)
                with pytest.raises(KeyError):
                    prof.hull_value(ell)

    def test_trivial_profile(self):
        prof = steinberg.delta_profile(C0, 4)  # d_new = 0
        assert len(prof.raw) == 1

    def test_json(self):
        d = steinberg.delta_profile(C4, 18).to_json_dict()
        assert d["k"] == 18
        assert d["raw"][2] == [0, "8/1"]
        assert d["hull"] == d["raw"]


class TestLMax:
    def test_examples(self):
        assert steinberg.l_max(C4, Perturbed(18, Fraction(7)), 18) == 2
        assert steinberg.l_max(C4, Perturbed(18, Fraction(4)), 18) == 1
        assert steinberg.l_max(C4, Perturbed(18, Fraction(5, 2)), 18) is None

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
        steinberg._hull_gaps.cache_clear()
        misses = steinberg.delta_profile.cache_info().misses
        assert steinberg.l_max(C4, w, k) is None
        assert steinberg.delta_profile.cache_info().misses == misses


class TestRanges:
    def test_examples(self):
        got = steinberg.near_steinberg_ranges(C4, Perturbed(18, Fraction(7)), 6)
        assert steinberg.NearSteinbergRange(18, 2, 1, 5) in got
        got = steinberg.near_steinberg_ranges(C4, Perturbed(18, Fraction(4)), 6)
        assert steinberg.NearSteinbergRange(18, 1, 2, 4) in got
        assert steinberg.near_steinberg_ranges(C4, Boundary(Fraction(1, 2)), 10) == []

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
        ok, witness = steinberg.check_nested(rs)
        assert not ok and set(witness) == set(rs)

    def test_touching_closures_allowed(self):
        rs = [steinberg.NearSteinbergRange(0, 2, 1, 5), steinberg.NearSteinbergRange(0, 2, 5, 9)]
        ok, _ = steinberg.check_nested(rs)
        assert ok

    def test_empty_and_computed(self):
        assert steinberg.check_nested([])[0]
        rng = random.Random(3)
        for _ in range(25):
            p = rng.choice((5, 7, 11))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 10)),
                          Fraction(rng.randint(1, 18), rng.choice((1, 2))))
            ok, _ = steinberg.check_nested(steinberg.near_steinberg_ranges(ctx, w, 16))
            assert ok


class TestVertexTheorem:
    @pytest.mark.parametrize(
        "r,vertices",
        [(Fraction(7), [1, 5]), (Fraction(4), [1, 2, 4, 5]), (Fraction(5, 2), [1, 2, 3, 4, 5])],
    )
    def test_three_regimes(self, r, vertices):
        rep = steinberg.vertex_theorem_check(C4, Perturbed(18, r), 5)
        assert rep["ok"], rep
        np_ = rep["polygon"]
        assert [x for x, _ in np_.vertices if 1 <= x <= 5] == vertices

    def test_classical_zero_point(self):
        rep = steinberg.vertex_theorem_check(C4, Classical(18), 6)
        assert rep["ok"], rep
        # the whole p-new stretch of weight 18 is one forced straight line
        assert any(rng.k == 18 and (rng.lo, rng.hi) == (1, 5) for rng in rep["ranges"])

    def test_random_points(self):
        rng = random.Random(11)
        for _ in range(20):
            p = rng.choice((5, 7, 11))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            w = Perturbed(ctx.weight_of_bullet(rng.randint(0, 9)),
                          Fraction(rng.randint(1, 20), rng.choice((1, 2, 3))))
            rep = steinberg.vertex_theorem_check(ctx, w, 12)
            assert rep["ok"], (ctx, w, rep["mismatches"], rep["slope_violations"])


class TestDeltaVertices:
    def test_convex_profile_has_no_witnesses(self):
        rep = steinberg.delta_vertex_check(C4, 18, 1)
        assert rep["ok"] and not rep["non_vertex"]
        assert rep["witness_above"] is None and rep["witness_below"] is None

    def test_equivalence_and_nonconvex_witness_found(self):
        # sweep one disk until a genuinely non-convex profile shows up; at
        # such offsets both neighbouring-weight witnesses must exist
        ctx = new_context(5, 1, 0)
        found_nonconvex = 0
        for kb in range(0, 60):
            k = ctx.weight_of_bullet(kb)
            for ell in range(0, dims.d_new(ctx, k) // 2):
                rep = steinberg.delta_vertex_check(ctx, k, ell)
                assert rep["ok"], rep
                if rep["non_vertex"]:
                    found_nonconvex += 1
        assert found_nonconvex >= 1

    def test_hull_slope_classes(self):
        for ctx in (C0, C4, new_context(7, 3, 2)):
            for kb in range(0, 40):
                assert steinberg.delta_hull_slope_classes(ctx, ctx.weight_of_bullet(kb)) == []
