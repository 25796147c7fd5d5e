import hashlib
import importlib
import inspect
import json
import pkgutil
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

import ghostline
from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline import newton, steinberg, verify
from ghostline import weight_space as ws
from ghostline.valuation import INF, ilog, max_vp_interval, vp_int
from ghostline.weight_space import format_rational
from ghostline.weight_space import new_context
from test_acceptance import SWEEP_SUITES
from test_steinberg import interpolated_hull

C0 = new_context(7, 2, 0)
C4 = new_context(7, 2, 4)


class TestDuality:
    def test_worked_example_value(self):
        ev = ghost.classical_evaluator(C4, 18)
        assert ev.omitted(5) - ev.omitted(1) == 33 - 1 == (18 - 2) * 2

    def test_suite(self):
        assert verify.check_ghost_duality(C4, 40) == []
        assert verify.check_ghost_duality(C0, 40) == []


class TestMidSlopes:
    def test_examples(self):
        assert verify.check_mid_slopes(C4, 18) == []
        assert verify.check_mid_slopes(C0, 22) == []
        assert verify.check_mid_slopes(C0, 4) == []  # d_new = 0: vacuous

    def test_slopes_value(self):
        from ghostline import newton

        np_ = verify._np_at_classical(C0, 22)
        assert all(newton.slope_at(np_, i) == 10 for i in range(2, 8))


class TestTheta:
    def test_small_sweeps(self):
        for k0 in range(2, 32):
            assert verify.check_theta(C0, k0, 5) == []
        ctx = new_context(5, 1, 3)
        for k0 in range(2, 40):
            assert verify.check_theta(ctx, k0, 4) == []


class TestAtkinLehner:
    def test_off_class_pairing(self):
        assert verify.check_atkin_lehner(C0, 5) == []

    def test_on_class_window(self):
        assert verify.check_atkin_lehner(C0, 10) == []

    def test_sweeps(self):
        for p, a in ((5, 1), (7, 2)):
            for s in range(p - 1):
                ctx = new_context(p, a, s)
                for k0 in range(2, 30):
                    assert verify.check_atkin_lehner(ctx, k0) == [], (p, a, s, k0)


class TestPStabilization:
    def test_examples(self):
        assert verify.check_p_stabilization(C0, 28) == []
        assert verify.check_p_stabilization(C0, 4) == []  # pairs exist, d_ur = 1
        ctx = new_context(7, 2, 2)
        assert verify.check_p_stabilization(ctx, 2) == []  # d_ur = 0: vacuous


class TestGouvea:
    def test_bound_example(self):
        # k0 = 28 on the s=0 disk: explicit bound under floor(24/8) = 3
        ctx = C0
        du = 2
        bound = (7 - 1) // 2 * (du - 1) - ctx.delta_eps + ctx.beta(du - 1)
        assert bound <= (28 - 1 - min(3, 3)) // 8 == 3
        assert verify.check_gouvea(ctx, 28) == []
        assert verify.check_gouvea(ctx, 10) == []


def _unit_slopes(np_):
    """Every slope of a polygon that starts at x = 0, once per unit of width."""
    return [s for s, width in newton.segments(np_.vertices) for _ in range(width)]


def _per_index_witnesses(ctx, name, k):
    """The witnesses of ``mid_slopes``, ``p_stabilization`` or ``gouvea`` at
    the weight k, from a walk over every slope index of the polygon that
    ``verify._np_at_classical`` gives (the route without end tests)."""
    du, di = dims.d_ur(ctx, k), dims.d_iw(ctx, k)
    out = []
    if name == "mid_slopes":
        if di - 2 * du >= 2:
            slopes = _unit_slopes(verify._np_at_classical(ctx, k))
            want = Fraction(k - 2, 2)
            for i in range(du + 1, di - du + 1):
                if slopes[i - 1] != want:
                    out.append({"k": k, "slope_index": i, "lhs": format_rational(slopes[i - 1]),
                                "rhs": format_rational(want)})
    elif name == "p_stabilization":
        if di >= 1:
            slopes = _unit_slopes(verify._np_at_classical(ctx, k))
            for ell in range(1, du + 1):
                s = slopes[ell - 1] + slopes[di - ell]
                if s != k - 1:
                    out.append({"k0": k, "ell": ell, "lhs": format_rational(s), "rhs": k - 1})
            for i in range(1, di + 1):
                if slopes[i - 1] > k - 1:
                    out.append({"k0": k, "slope_index": i,
                                "lhs": format_rational(slopes[i - 1]), "rhs": k - 1,
                                "reason": "slope above k0-1"})
    elif du >= 1:
        p = ctx.p
        bound = (p - 1) // 2 * (du - 1) - ctx.delta_eps + ctx.beta(du - 1)
        coarse = (k - 1 - min(ctx.a + 1, p - 2 - ctx.a)) // (p + 1)
        if bound > coarse:
            out.append({"k0": k, "lhs": bound, "rhs": coarse,
                        "reason": "sharp bound above floor bound"})
        slopes = _unit_slopes(verify._np_at_classical(ctx, k))
        for i in range(1, du + 1):
            if slopes[i - 1] > bound:
                out.append({"k0": k, "slope_index": i, "lhs": format_rational(slopes[i - 1]),
                            "rhs": bound})
    return out


def _bent(np_, x_bend, c):
    """The polygon with c added to every slope right of x = x_bend (made a
    vertex first if it is not one); still convex for c > 0."""
    verts = list(np_.vertices)
    if x_bend not in [x for x, _ in verts]:
        i = next(i for i, (x, _) in enumerate(verts) if x > x_bend)
        (x0, y0), (x1, y1) = verts[i - 1], verts[i]
        verts.insert(i, (x_bend, y0 + Fraction(y1 - y0, x1 - x0) * (x_bend - x0)))
    return newton.NewtonPolygon(*zip(*((x, y + c * max(x - x_bend, 0)) for x, y in verts)))


class TestSlopeSuitesOracle:
    """``mid_slopes``, ``p_stabilization`` and ``gouvea`` test the slopes at
    the ends of their index ranges and walk every index only when that test
    fails; on doctored polygons their witnesses must be exactly those of
    the walk over every index."""

    SUITES = {"mid_slopes": verify.check_mid_slopes,
              "p_stabilization": verify.check_p_stabilization,
              "gouvea": verify.check_gouvea}
    CASES = ((new_context(7, 2, 4), 20), (new_context(11, 5, 7), 33), (new_context(13, 3, 2), 41))

    def check(self, ctx, k):
        seen = {}
        for name, check in self.SUITES.items():
            got = check(ctx, k)
            assert got == _per_index_witnesses(ctx, name, k), (name, ctx, k)
            seen[name] = got
        return seen

    def test_real_polygons(self):
        rng = random.Random(31)
        for _ in range(20):
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            k = ctx.weight_of_bullet(rng.randint(0, 80))
            assert all(not wits for wits in self.check(ctx, k).values())

    def doctor(self, monkeypatch, bend):
        real = verify._np_at_classical
        monkeypatch.setattr(verify, "_np_at_classical", lambda c, kk: bend(c, kk, real(c, kk)))

    def test_kink_inside_the_mid_range(self, monkeypatch):
        def bend(ctx, k, np_):
            du, di = dims.d_ur(ctx, k), dims.d_iw(ctx, k)
            return _bent(np_, (du + di - du) // 2, 1)

        self.doctor(monkeypatch, bend)
        for ctx, kb in self.CASES:
            k = ctx.weight_of_bullet(kb)
            du, di = dims.d_ur(ctx, k), dims.d_iw(ctx, k)
            wits = self.check(ctx, k)["mid_slopes"]
            # the slopes right of the kink, up to d_iw - d_ur
            assert [w["slope_index"] for w in wits] == list(range(di // 2 + 1, di - du + 1))

    def test_last_slope_above_k0_minus_1(self, monkeypatch):
        def bend(ctx, k, np_):
            di = dims.d_iw(ctx, k)
            return _bent(np_, di - 1, k)

        self.doctor(monkeypatch, bend)
        for ctx, kb in self.CASES:
            k = ctx.weight_of_bullet(kb)
            di = dims.d_iw(ctx, k)
            wits = self.check(ctx, k)["p_stabilization"]
            above = [w for w in wits if w.get("reason") == "slope above k0-1"]
            assert [w["slope_index"] for w in above] == [di]
            assert len(wits) == 2  # and the pair (1, d_iw) no longer sums to k0 - 1

    def test_old_form_slope_above_the_gouvea_bound(self, monkeypatch):
        def bend(ctx, k, np_):
            du = dims.d_ur(ctx, k)
            return _bent(np_, du - 1, k)

        self.doctor(monkeypatch, bend)
        for ctx, kb in self.CASES:
            k = ctx.weight_of_bullet(kb)
            du = dims.d_ur(ctx, k)
            assert du >= 2
            wits = self.check(ctx, k)["gouvea"]
            assert [w["slope_index"] for w in wits] == [du]


class TestHalo:
    def test_suite(self):
        assert verify.check_halo(C0, Fraction(1, 2), 15) == []
        assert verify.check_halo(new_context(7, 2, 3), Fraction(1, 3), 12) == []


class TestIntegrality:
    def test_example(self):
        assert verify.check_integrality(C4, 18) == []
        ctx = new_context(7, 3, 0)  # odd a: repeated slopes in 3/2 + Z
        for kb in range(0, 25):
            assert verify.check_integrality(ctx, ctx.weight_of_bullet(kb)) == []


class TestDeltaEstimates:
    def test_worked_example_gaps(self):
        assert verify.check_delta_estimates(C4, 18, with_k_prime=True) == []

    def test_sweep_with_k_prime(self):
        ctx = new_context(11, 5, 4)
        for kb in range(0, 25):
            assert verify.check_delta_estimates(ctx, ctx.weight_of_bullet(kb), True) == []

    def test_builds_no_fraction_profile(self):
        ws.clear_context_caches()
        rep = verify.run_suite("delta_estimates", C4, k_bullet_max=40)
        assert rep["status"] == "pass"
        assert steinberg.delta_profile.cache_info().currsize == 0


def k_prime_brute(ctx, k, ell):
    """The weights k' != k with d_ur(k') or d_iw(k') - d_ur(k') strictly
    within ell of h = d_iw(k)/2, or with |d_iw(k')/2 - h| <= ell, found by
    testing every k_bullet up to a bound."""
    kb = ctx.bullet(k)
    h = dims.d_iw_of_bullet(ctx, kb) // 2
    # past the bound each floor term of d_ur is at least ceil((h + ell)/2),
    # so d_ur > h + ell and d_iw - d_ur >= d_ur; and |kb2 - kb| > ell
    bound = max(ctx.t1, ctx.t2) + (ctx.p + 1) * ((h + ell + 1) // 2) + kb + ell
    out = []
    for kb2 in range(0, bound + 1):
        du = dims.d_ur_of_bullet(ctx, kb2)
        di = dims.d_iw_of_bullet(ctx, kb2)
        if kb2 != kb and (h - ell < du < h + ell or h - ell < di - du < h + ell
                          or abs(di // 2 - h) <= ell):
            out.append(ctx.weight_of_bullet(kb2))
    return out


class TestKPrimeCandidates:
    def test_matches_brute_force(self):
        rng = random.Random(71)
        cases = split = 0
        for p in (5, 7, 11, 13):
            for _ in range(3):
                ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
                for kb in sorted(rng.sample(range(0, 61), 8)):
                    k = ctx.weight_of_bullet(kb)
                    for ell in range(1, dims.d_new(ctx, k) // 2 + 1):
                        got = verify._k_prime_candidates(ctx, k, ell)
                        assert got == k_prime_brute(ctx, k, ell), (ctx, k, ell)
                        cases += 1
                        bullets = [ctx.bullet(k2) for k2 in got]
                        split += any(b2 - b1 > 1 + (b1 < kb < b2)
                                     for b1, b2 in zip(bullets, bullets[1:]))
        assert cases >= 500 and split >= 50  # unions of windows with gaps


def _theta_eta(ctx, k, ell):
    """The paper's theta = beta(n - 1) - beta(n) + (p + 1)/2 and eta =
    (p - 1)/2 * k_bullet - (p + 1)/2 * delta_eps + beta(n) - 1 at n =
    d_iw/2 - ell, stated here apart from the suite's own loop."""
    p, n = ctx.p, dims.d_iw(ctx, k) // 2 - ell
    theta = ctx.beta(n - 1) - ctx.beta(n) + (p + 1) // 2
    eta = (p - 1) // 2 * ctx.bullet(k) - (p + 1) // 2 * ctx.delta_eps + ctx.beta(n) - 1
    return theta, eta


def _fraction_delta_estimates(ctx, k, with_k_prime=False):
    """The estimate checks in plain Fraction arithmetic on dict lookups, as
    the oracle for the doubled-integer checks; returns the witnesses.  The
    profile is the Fraction one that ``steinberg.delta_profile`` builds from
    ``steinberg.doubled_profile``, built uncached, so that a doctored
    doubled profile reaches the oracle and the check alike."""
    p = ctx.p
    half_new = dims.d_new(ctx, k) // 2
    prof = steinberg.delta_profile.__wrapped__(ctx, k)
    raw = {l: prof.raw_value(l) for l in range(-half_new, half_new + 1)}
    hull = interpolated_hull(raw, prof.hull.xs)
    witnesses = []
    min_step = Fraction(min(ctx.a + 2, p - 1 - ctx.a), 2)
    for ell in range(1, half_new + 1):
        gap = raw[ell] - raw[ell - 1]
        low = min_step + Fraction(p - 1, 2) * (ell - 1)
        if gap < low:
            witnesses.append({"k": k, "ell": ell, "lhs": format_rational(gap),
                              "rhs": format_rational(low), "reason": "gap lower bound"})
        theta, eta = _theta_eta(ctx, k, ell)
        lo_i = eta - (p + 1) // 2 * (ell - 1)
        hi_i = eta + theta + (p + 1) // 2 * (ell - 1)
        beta_max = max_vp_interval(lo_i, hi_i, p) if lo_i <= hi_i else 0
        if beta_max is not INF:
            up = Fraction(p - 1, 2) * ell + Fraction(3, 2) + beta_max + ilog(p, ell)
            if gap > up:
                witnesses.append({"k": k, "ell": ell, "lhs": format_rational(gap),
                                  "rhs": format_rational(up), "reason": "gap upper bound"})
        diff = raw[ell] - hull[ell]
        if ell < 2 * p and ell != p:
            if diff != 0:
                witnesses.append({"k": k, "ell": ell, "lhs": format_rational(diff),
                                  "rhs": "0", "reason": "hull equality small ell"})
        elif ell == p:
            if diff > 1:
                witnesses.append({"k": k, "ell": ell, "lhs": format_rational(diff),
                                  "rhs": "1", "reason": "hull distance at ell = p"})
        if p >= 7 and not verify._leq_3_log_ratio_sq(Fraction(diff), ell, p):
            witnesses.append({"k": k, "ell": ell, "lhs": format_rational(diff),
                              "rhs": f"3*(log_{p}({ell}))^2",
                              "reason": "hull distance log bound"})
        if with_k_prime:
            witnesses.extend(_fraction_k_prime_bounds(ctx, k, ell, gap))
    for ell in range(1, half_new):
        defect = raw[ell + 1] - 2 * raw[ell] + raw[ell - 1]
        theta, _ = _theta_eta(ctx, k, ell)
        vl = vp_int(ell, p)
        for rhs in (p - 1 - theta - 2 * vl, 1 - 2 * vl):
            if defect < rhs:
                witnesses.append({"k": k, "ell": ell, "lhs": format_rational(defect),
                                  "rhs": rhs, "reason": "convexity defect"})
    return witnesses


def _fraction_k_prime_bounds(ctx, k, ell, gap):
    p = ctx.p
    witnesses = []
    fine = Fraction(1, 2) + Fraction(p - 1, 2) * (ell - 1) - ilog(p, (p + 1) * ell)
    checks = [(fine, "strengthened gap bound")]
    if ell == 1:
        checks.append((Fraction(1, 2), "strengthened gap bound ell=1"))
    else:
        checks.append((Fraction(2 * ell - 1, 2), "strengthened gap bound floor"))
        if p >= 7:
            checks.append((Fraction(2 * ell + 1, 2), "strengthened gap bound p>=7"))
    for k2 in verify._k_prime_candidates(ctx, k, ell):
        margin = gap - (1 + vp_int(k - k2, p))
        for rhs, reason in checks:
            if margin < rhs:
                witnesses.append({"k": k, "k_prime": k2, "ell": ell,
                                  "lhs": format_rational(margin),
                                  "rhs": format_rational(rhs), "reason": reason})
    return witnesses


def _assert_matches_oracle(ctx, k, with_k_prime):
    witnesses = verify.check_delta_estimates(ctx, k, with_k_prime)
    assert witnesses == _fraction_delta_estimates(ctx, k, with_k_prime)
    return witnesses


def _doctored(doubled, raw_shift=lambda ell: 0, flat=False):
    """A doubled profile whose values are those of doubled (or 0), each
    moved by raw_shift(|offset|), so its raw values move in (1/2)Z."""
    top = len(doubled) // 2
    return [(0 if flat else v) + raw_shift(abs(l))
            for l, v in zip(range(-top, top + 1), doubled)]


class TestDeltaEstimatesOracle:
    ALL_REASONS = {
        "gap lower bound", "gap upper bound", "hull equality small ell",
        "hull distance at ell = p", "hull distance log bound", "convexity defect",
        "strengthened gap bound", "strengthened gap bound ell=1",
        "strengthened gap bound floor", "strengthened gap bound p>=7",
    }

    def test_real_profiles(self):
        rng = random.Random(77)
        for _ in range(30):
            p = rng.choice((5, 7, 11, 13))
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            k = ctx.weight_of_bullet(rng.randint(0, 120))
            assert _assert_matches_oracle(ctx, k, rng.random() < 0.3) == []

    def test_doctored_profiles_hit_every_witness(self, monkeypatch):
        real = steinberg.doubled_profile
        doctors = [
            dict(flat=True),  # every gap 0: lower bound and all k' bounds
            dict(raw_shift=lambda l: 60 * (l == 4)),  # spike: upper bound, defect
            dict(raw_shift=lambda l: 3 * (l == 1)),  # raw off the hull at ell = 1
            dict(raw_shift=lambda l: 40 * (l == 7)),  # raw far above hull at ell = 7 = p for p = 7
            dict(raw_shift=lambda l: 61 * (l == 15)),  # an odd shift: a non-integer distance
        ]
        seen = set()
        for ctx, kb in ((new_context(7, 2, 4), 40), (new_context(11, 5, 4), 60),
                        (new_context(5, 1, 2), 30)):
            k = ctx.weight_of_bullet(kb)
            assert dims.d_new(ctx, k) // 2 >= 2 * ctx.p + 2
            for doctor in doctors:
                monkeypatch.setattr(
                    steinberg, "doubled_profile",
                    lambda c, kk, doctor=doctor: _doctored(real(c, kk), **doctor),
                )
                for with_k_prime in (False, True):
                    wits = _assert_matches_oracle(ctx, k, with_k_prime)
                    seen.update(w["reason"] for w in wits)
        assert seen == self.ALL_REASONS

    def test_suite_runs_each_weight_with_its_k_prime_flag(self, monkeypatch):
        # k_bullet 0 .. 2 (k = 6, 12, 18) check the k' bounds, 3 .. 5 do not
        real = steinberg.doubled_profile
        monkeypatch.setattr(steinberg, "doubled_profile",
                            lambda c, kk: _doctored(real(c, kk), flat=True))
        rep = verify.run_suite("delta_estimates", C4, k_bullet_max=5, k_prime_bullet_max=2)
        want = [{**wit, "suite_params": {"p": 7, "a": 2, "s_eps": 4, "k": k,
                                         "with_k_prime": k <= 18}}
                for k in (6, 12, 18, 24, 30, 36)
                for wit in _fraction_delta_estimates(C4, k, k <= 18)]
        assert rep["status"] == "fail" and rep["witnesses"] == want
        assert {w["suite_params"]["k"] for w in want} == {6, 12, 18, 24, 30, 36}
        assert {w["suite_params"]["k"] for w in want if "k_prime" in w} == {6, 12, 18}


def _decimal_leq_3_log_ratio_sq(q, ell, p):
    """q <= 3*(log_p(ell))^2 by directed-rounded decimal bounds on both
    sides (prime-power ell exactly), as the library once decided it; kept
    as the oracle of the integer bracket."""
    import decimal

    if q <= 0:
        return True
    if ell == 1:
        return False
    e = ilog(p, ell)
    if p**e == ell:
        return q <= 3 * e * e
    u, v = (q / 3).numerator, (q / 3).denominator
    prec = 40
    while prec <= 4000:
        floor_ctx = decimal.Context(prec=prec, rounding=decimal.ROUND_FLOOR)
        ceil_ctx = decimal.Context(prec=prec, rounding=decimal.ROUND_CEILING)
        ln_ell_lo, ln_ell_hi = floor_ctx.ln(decimal.Decimal(ell)), ceil_ctx.ln(decimal.Decimal(ell))
        ln_p_lo, ln_p_hi = floor_ctx.ln(decimal.Decimal(p)), ceil_ctx.ln(decimal.Decimal(p))
        log_lo = floor_ctx.divide(ln_ell_lo, ln_p_hi)
        log_hi = ceil_ctx.divide(ln_ell_hi, ln_p_lo)
        root_lo = floor_ctx.sqrt(floor_ctx.divide(decimal.Decimal(u), decimal.Decimal(v)))
        root_hi = ceil_ctx.sqrt(ceil_ctx.divide(decimal.Decimal(u), decimal.Decimal(v)))
        if root_hi <= log_lo:
            return True
        if root_lo > log_hi:
            return False
        prec *= 4
    raise RuntimeError(f"could not separate sqrt({q}/3) from log_{p}({ell})")


class TestLogBoundHelper:
    def test_exact_cases(self):
        f = verify._leq_3_log_ratio_sq
        assert f(Fraction(0), 1, 7)
        assert not f(Fraction(1, 2), 1, 7)
        assert f(Fraction(12), 49, 7)  # exactly 3 * 2^2 at a prime power
        assert not f(Fraction(12, 1) + 1, 49, 7)
        assert f(Fraction(3), 7, 7) and not f(Fraction(7, 2), 7, 7)

    def test_against_float(self):
        import math

        f = verify._leq_3_log_ratio_sq
        for p in (5, 7, 11, 13):
            for ell in range(2, 400):
                for q in (Fraction(1), Fraction(3, 2), Fraction(4), Fraction(9), Fraction(25, 2)):
                    approx = 3 * (math.log(ell) / math.log(p)) ** 2
                    if abs(float(q) - approx) > 1e-6:
                        assert f(q, ell, p) == (float(q) < approx), (p, ell, q)

    def test_against_decimal_oracle(self):
        rng = random.Random(29)
        cases = 0
        for p in (5, 7, 11, 13, 17, 19, 23):
            for ell in range(1, 300):
                for _ in range(5):
                    q = Fraction(rng.randint(-20, 400), rng.randint(1, 12))
                    assert verify._leq_3_log_ratio_sq(q, ell, p) == \
                        _decimal_leq_3_log_ratio_sq(q, ell, p), (q, ell, p)
                    cases += 1
            for e in range(0, 4):
                # at a prime power the bound 3e^2 is met exactly
                edge = Fraction(3 * e * e)
                for q in (edge - Fraction(1, 1000), edge, edge + Fraction(1, 1000)):
                    assert verify._leq_3_log_ratio_sq(q, p**e, p) == \
                        _decimal_leq_3_log_ratio_sq(q, p**e, p) == (q <= edge), (q, e, p)
                    cases += 1
        assert cases == 7 * (299 * 5 + 4 * 3)

    def test_near_tie_raises(self):
        # q within 10^-30 of 3*(log_7(10))^2 is beyond the bracket at n = 2^16
        import decimal

        ctx = decimal.Context(prec=60)
        log = ctx.divide(ctx.ln(decimal.Decimal(10)), ctx.ln(decimal.Decimal(7)))
        q = Fraction(str(ctx.multiply(3, ctx.multiply(log, log)))).limit_denominator(10**30)
        with pytest.raises(RuntimeError, match="could not separate"):
            verify._leq_3_log_ratio_sq(q, 10, 7)


#: A rendered rational, as the README promises it in every output.
RATIONAL = re.compile(r"^-?\d+/\d+$")

#: Suites made to fail on C4 by one stand-in in ``steinberg``: the function
#: replaced, its stand-in, and the suite's bounds.
DOCTORED = {
    "vertex_theorem": ("_in_lattice", lambda x, gamma: False, {}),
    "delta_vertices": ("slope_class_ok", lambda ctx, s, w: False, {"k_bullet_max": 3}),
    "integrality": ("slope_class_ok", lambda ctx, s, w: False, {"k_bullet_max": 3}),
    "nestedness": ("check_nested",
                   lambda ranges: (steinberg.NearSteinbergRange(0, 2, 1, 5),
                                   steinberg.NearSteinbergRange(0, 3, 3, 9)),
                   {"points": 1, "n_max": 6}),
}


def _doctored_report(monkeypatch, name):
    attr, stand_in, bounds = DOCTORED[name]
    monkeypatch.setattr(steinberg, attr, stand_in)
    return verify.run_suite(name, C4, **bounds)


def _entries(obj):
    """Every (key, value) of every dict inside a JSON value."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield key, val
            yield from _entries(val)
    elif isinstance(obj, list):
        for val in obj:
            yield from _entries(val)


class TestReports:
    def test_deterministic(self):
        r1 = verify.run_suite("ghost_duality", C4, k_bullet_max=25)
        r2 = verify.run_suite("ghost_duality", C4, k_bullet_max=25)
        r1.pop("elapsed"), r2.pop("elapsed")
        assert r1 == r2
        assert list(r1) == ["name", "params", "status", "witnesses", "meta"]

    def test_run_suite_builds_a_plain_dict(self):
        rep = verify.run_suite("halo", C4, n_max=3)
        assert type(rep) is dict
        assert list(rep) == ["name", "params", "status", "witnesses", "elapsed", "meta"]
        assert rep["name"] == "halo" and rep["status"] == "pass" and rep["meta"] == {}
        assert rep["params"] == {"p": 7, "a": 2, "s_eps": 4, "n_max": 3}
        assert type(rep["elapsed"]) is float and rep["elapsed"] == round(rep["elapsed"], 6)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("nope", C0)

    def test_json_serialisable(self):
        json.dumps(verify.run_suite("halo", C0, n_max=10))

    @pytest.mark.parametrize("name", list(DOCTORED))
    def test_failing_witnesses_are_json(self, monkeypatch, name):
        # witnesses need no default= to serialise, every rational in them
        # is "num/den" (a gamma may be absent), and every range is a dict
        rep = _doctored_report(monkeypatch, name)
        assert rep["status"] == "fail" and rep["witnesses"]
        json.dumps(rep)
        entries = list(_entries(rep["witnesses"]))
        assert {key for key, _ in entries} & {"slope", "lhs", "pair"}
        for key, val in entries:
            if key in ("slope", "lhs") or (key == "gamma" and val is not None):
                assert RATIONAL.match(val), (key, val)
            if key == "range":
                assert type(val) is dict, val
            if key == "pair":
                assert all(type(r) is dict for r in val), val

    def test_unread_bound_rejected(self):
        with pytest.raises(ValueError, match="'halo'.*'k_bullet_max'"):
            verify.run_suite("halo", new_context(7, 2, 4), k_bullet_max=5)
        with pytest.raises(ValueError, match="'ghost_duality'.*'n_max'"):
            verify.run_suite("ghost_duality", C0, k_bullet_max=5, n_max=3)

    @pytest.mark.parametrize("suite, bounds, match", [
        ("mid_slopes", {"k_bullet_max": -5}, "k_bullet_max must be >= 0, got -5"),
        ("ghost_duality", {"k_bullet_max": -1}, "k_bullet_max must be >= 0, got -1"),
        ("theta", {"k0_max": 1}, "k0_max must be >= 2, got 1"),
        ("theta", {"ell_max": -1}, "ell_max must be >= 0, got -1"),
        ("atkin_lehner", {"k0_max": 0}, "k0_max must be >= 2, got 0"),
        ("halo", {"n_max": 0}, "n_max must be >= 1, got 0"),
        ("nestedness", {"points": 0}, "points must be >= 1, got 0"),
        ("vertex_theorem", {"points": -2}, "points must be >= 1, got -2"),
        ("delta_estimates", {"k_prime_bullet_max": -1}, "k_prime_bullet_max must be >= 0"),
    ])
    def test_bound_that_checks_nothing_rejected(self, suite, bounds, match):
        with pytest.raises(ValueError, match=match):
            verify.run_suite(suite, C4, **bounds)

    def test_least_bounds_still_check(self):
        rep = verify.run_suite("theta", C4, k0_max=2, ell_max=0)
        assert rep["status"] == "pass" and rep["params"]["k0_max"] == 2
        assert verify.run_suite("ghost_duality", C4, k_bullet_max=0)["status"] == "pass"
        assert verify.run_suite("halo", C4, n_max=1)["status"] == "pass"
        assert verify.run_suite("nestedness", C4, points=1, n_max=1)["status"] == "pass"

    def test_every_bound_but_the_seed_has_a_least_value(self):
        names = {b for name in verify.SUITES for b in verify.suite_bounds(name)}
        assert names - {"seed"} == set(verify._BOUND_MIN)

    def test_no_suite_swallows_bounds(self):
        for name, (defaults, runner) in verify.SUITES.items():
            params = inspect.signature(runner).parameters
            assert list(params) == ["ctx", *defaults], name
            assert verify.suite_bounds(name) == tuple(defaults), name


class TestSuiteDigests:
    """SHA-256 of each suite's report, ``elapsed`` removed, at small bounds.

    The digests were recorded when each suite was a function whose
    signature held its bounds and each check built its own report; the
    suite table and the one report of ``run_suite`` must give the same
    bytes, ``suite_params`` tags of a sweep's witnesses included.
    """

    BOUNDS = {"k_bullet_max": 6, "k0_max": 10, "ell_max": 2, "n_max": 6, "points": 1,
              "k_prime_bullet_max": 2}
    DIGESTS = {
        (7, 2, 4): {
            "ghost_duality": "e70aeb1d399914b737b5fe81747f1c8ca7413e77c7f258fcc44070886b8893b4",
            "mid_slopes": "e6b21c09f7f7ea0f039461ed481592a109c2f662d316308fe8cb50416d6fe186",
            "theta": "8deb24b7f5ab9b7bfdf2755156bd866a12c56a9497ea99c801dad9434a5967a2",
            "atkin_lehner": "039a16e362fc38b7193670f4b917a091b974cbebb3de0823f051ac7c3b475462",
            "p_stabilization": "0c00ae4b5aec1bd5b246b5814c16e43b534aff4bd8fd957b1f2f2b5f1cd6db91",
            "gouvea": "02f38648a2069836a8391cdb6aba5a509d7445e3bffa7d12787104fe3417d678",
            "halo": "2ba51de7307397269e728236cc240d76caf0ca9969cd5e7e9935c767e5a94fcd",
            "integrality": "b2025f1fa5b9aef79d6e67271e5b6940077df19d6232ed3c37b74a19f9374cd3",
            "delta_estimates": "5a144890f303b1259e7dc789ee8badebb60c7ff286186bea893735f252e9a1b3",
            "vertex_theorem": "ea880c677b5e14701a3a4e86ed6722882a775159b1b4efd6ab63fb885e24f1d0",
            "nestedness": "56eeaec9442b2ca78d824386ef590a4be82ef6ce831c8dd6fda78cd6f1289791",
            "delta_vertices": "4ea39cfe55f216d12c4dd786d5bdcf6024909660b9534c0d14e5591dd76b1379",
        },
        (11, 3, 0): {
            "ghost_duality": "cc5fb45a35354cb13588cc028c33ae09b8b4e3d30dd123e1bf3743fd325562db",
            "mid_slopes": "b4f170879b180bd6298d4bb69636e8b03e3653bcdb7c735f84c1877d8be71120",
            "theta": "bd887f2e7d84ffd484a7566f643167a12b20d0da970ed5c21bf20223f8d8bf88",
            "atkin_lehner": "76575314769b7be3f23a702b948d8e41686f449eca410f2e77367508121c86df",
            "p_stabilization": "9cb8394d7755e79fcca3d88f34a59ad1913f531125c2e4955789b38dc14075a3",
            "gouvea": "ba854cbfcb2fda55b79db5ce0ebac07cdd3efcd78eaba4602a6b302628b9fc4f",
            "halo": "684b4016eaaedb441b9c7d40877988b265c1fc25ae0e4e8e176a2ed7f466979b",
            "integrality": "c2e37a5902b4cd2d40e43d1e0eac98621c079066ace91b47db1533685b5be22d",
            "delta_estimates": "5b55ceb9c607099da583013bf44fd074189b805ac7781005114869d7cd8c7fb9",
            "vertex_theorem": "2ab8bf5adcf3e06399c82130b094e1f19895dec0cfd0ea93b6853a64c627a0ed",
            "nestedness": "599937f6fd7490fe32a470f3ed0bd8d853b457842d327bdd884d53676e6cb672",
            "delta_vertices": "9793f53ea827c9ee04ea3c44e176df05a3f80e518d406a04603df4ca08974d37",
        },
    }

    @staticmethod
    def digest(rep):
        out = dict(rep)
        out.pop("elapsed")
        return hashlib.sha256(json.dumps(out, indent=2).encode()).hexdigest()

    @pytest.mark.parametrize("triple", list(DIGESTS))
    def test_every_suite(self, triple):
        ctx = new_context(*triple)
        got = {}
        for name in verify.SUITES:
            bounds = {b: v for b, v in self.BOUNDS.items() if b in verify.suite_bounds(name)}
            got[name] = self.digest(verify.run_suite(name, ctx, **bounds))
        assert got == self.DIGESTS[triple]

    def test_failing_sweep_tags_its_witnesses(self, monkeypatch):
        monkeypatch.setattr(steinberg, "slope_class_ok", lambda ctx, s, w: False)
        rep = verify.run_suite("integrality", C4, k_bullet_max=3)
        assert rep["status"] == "fail" and len(rep["witnesses"]) == 92
        assert rep["witnesses"][0]["suite_params"] == {"p": 7, "a": 2, "s_eps": 4, "k0": 6}
        assert self.digest(rep) == "bb1f86d61a2dc76ba03d8c9f9a7d81d68ed62d225ce56d1252bb2944900cd4b2"

    @pytest.mark.parametrize("name, digest", [
        ("vertex_theorem", "c9bb50576b01021fab85b1b33e325ac64ed31c7d90fb9f5b56bec1032eeb54d2"),
        ("delta_vertices", "d95eeef20cc2af93ac85a0e12256ed770aa74f5c1a5bc3bd1947ac81ba05bbca"),
    ])
    def test_failing_steinberg_suites(self, monkeypatch, name, digest):
        assert self.digest(_doctored_report(monkeypatch, name)) == digest


class TestSweepTags:
    """Each sweep tags its witnesses with the params of the check that found
    them; a stub check fails once per call and records what it received."""

    CTX = {"p": 7, "a": 2, "s_eps": 4}
    SWEEPS = {
        "mid_slopes": ({"k_bullet_max": 2}, [{"k": 6}, {"k": 12}, {"k": 18}]),
        "theta": ({"k0_max": 4, "ell_max": 1},
                  [{"k0": 2, "ell_max": 1}, {"k0": 3, "ell_max": 1}, {"k0": 4, "ell_max": 1}]),
        "atkin_lehner": ({"k0_max": 3}, [{"k0": 2}, {"k0": 3}]),
        "p_stabilization": ({"k_bullet_max": 1}, [{"k0": 6}, {"k0": 12}]),
        "gouvea": ({"k_bullet_max": 1}, [{"k0": 6}, {"k0": 12}]),
        "halo": ({"n_max": 5},
                 [{"t": "1/2", "n_max": 5}, {"t": "1/3", "n_max": 5}, {"t": "3/4", "n_max": 5}]),
        "integrality": ({"k_bullet_max": 1}, [{"k0": 6}, {"k0": 12}]),
        "delta_estimates": ({"k_bullet_max": 3, "k_prime_bullet_max": 1},
                            [{"k": 6, "with_k_prime": True}, {"k": 12, "with_k_prime": True},
                             {"k": 18, "with_k_prime": False},
                             {"k": 24, "with_k_prime": False}]),
    }

    def test_every_sweep_is_listed(self):
        single = {"ghost_duality", "vertex_theorem", "nestedness", "delta_vertices"}
        assert set(self.SWEEPS) == set(verify.SUITES) - single

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_tags_are_the_params_of_each_check(self, monkeypatch, name):
        bounds, calls = self.SWEEPS[name]
        real = getattr(verify, f"check_{name}")

        def failing(ctx, *args, **kwargs):
            got = inspect.signature(real).bind(ctx, *args, **kwargs).arguments
            return [{"received": {b: str(v) for b, v in got.items() if b != "ctx"}}]

        monkeypatch.setattr(verify, f"check_{name}", failing)
        rep = verify.run_suite(name, C4, **bounds)
        assert rep["status"] == "fail"
        assert [w["suite_params"] for w in rep["witnesses"]] == [
            {**self.CTX, **params} for params in calls]
        assert [w["received"] for w in rep["witnesses"]] == [
            {b: str(v) for b, v in params.items()} for params in calls]


class TestGrid:
    def test_small_grid_sequential(self):
        reports = verify.run_grid([5], ["ghost_duality", "halo"],
                                  {"k_bullet_max": 12, "n_max": 8}, workers=1)
        assert len(reports) == 2 * 4  # a=1, four disks, two suites
        assert all(r["status"] == "pass" for r in reports)
        keys = [(r["params"]["p"], r["params"]["a"], r["params"]["s_eps"], r["name"])
                for r in reports]
        assert keys == sorted(keys)

    def test_each_suite_gets_only_its_bounds(self, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "run_suite",
                            lambda name, ctx, **bounds: seen.append((name, bounds)) or
                            {"name": name, "params": verify._ctx_params(ctx)})
        verify.run_grid([5], ["ghost_duality", "halo"],
                        {"k_bullet_max": 12, "n_max": 8}, workers=1)
        assert {(name, tuple(b.items())) for name, b in seen} == {
            ("ghost_duality", (("k_bullet_max", 12),)), ("halo", (("n_max", 8),))}

    def test_unread_bound_rejected(self):
        with pytest.raises(ValueError, match="'points'"):
            verify.run_grid([5], ["halo", "theta"], {"points": 1}, workers=1)

    def test_tasks_start_with_the_triple(self, monkeypatch):
        # perfbench's sampled grid filters the tasks on args[:3]
        tasks = []
        monkeypatch.setattr(verify, "_grid_task", lambda args: tasks.append(args) or [])
        verify.run_grid([5], ["halo"], {"n_max": 4}, workers=1)
        assert sorted(t[:3] for t in tasks) == [(5, 1, s) for s in range(4)]

    @pytest.mark.parametrize("ps, suites, match", [
        ([], ["halo"], "the prime list is empty"),
        ([5], [], "the suite list is empty"),
        ([4], ["halo"], "p must be a prime >= 5, got p = 4"),
        ([2, 3], ["halo"], "got p = 2"),
        ([5, 6], ["halo"], "p must be a prime >= 5, got p = 6"),
        ([5, 5], ["halo"], "prime 5 is named twice"),
        ([5, 7, 5], ["halo"], "prime 5 is named twice"),
        ([5], ["halo", "halo"], "suite 'halo' is named twice"),
    ])
    def test_rejects_a_grid_that_passes_over_nothing_or_repeats(
        self, monkeypatch, ps, suites, match
    ):
        tasks = []
        monkeypatch.setattr(verify, "_grid_task", lambda args: tasks.append(args) or [])
        with pytest.raises(ValueError, match=match):
            verify.run_grid(ps, suites, workers=1)
        assert tasks == []

    @pytest.mark.parametrize("bounds", [{"k_bullet_max": -1}, {"n_max": 0}])
    def test_rejects_a_bound_that_checks_nothing_before_any_task(self, monkeypatch, bounds):
        tasks = []
        monkeypatch.setattr(verify, "_grid_task", lambda args: tasks.append(args) or [])
        with pytest.raises(ValueError, match="must be >= "):
            verify.run_grid([5], ["halo", "ghost_duality"], bounds, workers=1)
        assert tasks == []

    @staticmethod
    def pretend_cpus(monkeypatch, cpus):
        """Give this process an affinity mask of ``cpus`` CPUs, on platforms
        with or without ``os.sched_getaffinity``."""
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)

    def test_parallel_matches_sequential(self, monkeypatch):
        # run_grid caps the pool at the usable CPUs; pretend to have two so
        # the pool path runs on every host
        self.pretend_cpus(monkeypatch, 2)
        args = ([5], ["nestedness"], {"points": 2, "n_max": 10})
        seq = verify.run_grid(*args, workers=1)
        par = verify.run_grid(*args, workers=2)
        for r in seq + par:
            r.pop("elapsed")
        assert seq == par

    @staticmethod
    def plant_a_raising_triple(monkeypatch, triple=(5, 1, 2)):
        """Make the grid task of one triple raise; the others run as usual.
        The pool forks its workers, so they see the rebound name."""
        real = verify._grid_task

        def task(args):
            if tuple(args[:3]) == triple:
                raise ZeroDivisionError("planted fault")
            return real(args)

        monkeypatch.setattr(verify, "_grid_task", task)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_task_becomes_one_error_report(self, monkeypatch, workers):
        self.pretend_cpus(monkeypatch, 2)
        args = ([5], ["halo", "ghost_duality"], {"n_max": 4, "k_bullet_max": 6})
        healthy = verify.run_grid(*args, workers=workers)
        self.plant_a_raising_triple(monkeypatch)
        reports = verify.run_grid(*args, workers=workers)
        for r in healthy + reports:
            r.pop("elapsed")
        errors = [r for r in reports if r["status"] == "error"]
        assert errors == [{
            "name": "grid_task",
            "params": {"p": 5, "a": 1, "s_eps": 2, "suites": ["halo", "ghost_duality"]},
            "status": "error",
            "witnesses": [{"error": "ZeroDivisionError", "message": "planted fault"}],
            "meta": {},
        }]
        # the other triples keep their reports, in the grid's order
        assert [r for r in reports if r["status"] != "error"] == [
            r for r in healthy if r["params"]["s_eps"] != 2]
        assert reports.index(errors[0]) == 4  # after the two triples with s_eps < 2

    def test_scan_exits_1_on_an_error_report(self, monkeypatch, capsys):
        from ghostline import cli

        self.plant_a_raising_triple(monkeypatch)
        code = cli.main(["scan", "--p-list", "5", "--suites", "halo", "--n-max", "4",
                         "--workers", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_VERIFY_FAILED == 1
        assert payload["failed"] == 1
        assert [r["status"] for r in payload["reports"]] == ["pass", "pass", "error", "pass"]

    def test_default_pool_is_one_worker_per_core(self, monkeypatch):
        # p = 5 has 4 tasks, so 16 usable CPUs still give a pool of 4
        sizes = []

        class Pool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [fn(t) for t in tasks]

        monkeypatch.setattr("multiprocessing.Pool", Pool)
        for cpus in (3, 16):
            self.pretend_cpus(monkeypatch, cpus)
            reports = verify.run_grid([5], ["halo"], {"n_max": 4})
            assert len(reports) == 4 and all(r["status"] == "pass" for r in reports)
        assert sizes == [3, 4]

    def test_default_without_a_cpu_count_runs_in_process(self, monkeypatch):
        # without an affinity mask the count is os.cpu_count(), which may
        # return None; the grid then runs in one process
        def no_pool(*args, **kwargs):
            raise AssertionError("an unknown core count started a pool")

        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        monkeypatch.setattr("multiprocessing.Pool", no_pool)
        reports = verify.run_grid([5], ["halo"], {"n_max": 4})
        assert len(reports) == 4 and all(r["status"] == "pass" for r in reports)

    def test_worker_clamp(self):
        assert verify.clamp_workers(10_000, 200, 2) == 2
        assert verify.clamp_workers(8, 3, 16) == 3
        assert verify.clamp_workers(4, 200, 16) == 4
        assert verify.clamp_workers(0, 200, 16) == 1
        assert verify.clamp_workers(-5, 0, None) == 1
        assert verify.clamp_workers(6, 200, None) == 1

    def test_zero_workers_means_one(self, monkeypatch):
        # workers=0 is clamped to one worker, not read as "one per core"
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=0 started a pool")

        self.pretend_cpus(monkeypatch, 4)
        monkeypatch.setattr("multiprocessing.Pool", no_pool)
        reports = verify.run_grid([5], ["halo"], {"n_max": 4}, workers=0)
        assert len(reports) == 4 and all(r["status"] == "pass" for r in reports)

    @pytest.mark.parametrize("workers", [None, 4])
    def test_pool_fits_the_affinity_mask(self, monkeypatch, workers):
        # four CPUs in the machine but one in this process's mask: one worker
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a one-CPU mask")

        self.pretend_cpus(monkeypatch, 1)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
        monkeypatch.setattr("multiprocessing.Pool", no_pool)
        reports = verify.run_grid([5], ["halo"], {"n_max": 4}, workers=workers)
        assert len(reports) == 4 and all(r["status"] == "pass" for r in reports)


class TestContextCaches:
    RUNS = (("ghost_duality", {"k_bullet_max": 6}), ("mid_slopes", {"k_bullet_max": 6}),
            ("theta", {"k0_max": 6, "ell_max": 2}), ("halo", {"n_max": 6}),
            ("delta_estimates", {"k_bullet_max": 4, "k_prime_bullet_max": 1}),
            ("nestedness", {"points": 1, "n_max": 8}))
    A, B = (5, 1, 0), (5, 1, 3)

    @staticmethod
    def cached_functions():
        """(module attribute, lru_cache wrapper) of every cache in ghostline."""
        for info in pkgutil.iter_modules(ghostline.__path__):
            module = importlib.import_module(f"ghostline.{info.name}")
            for attr, obj in vars(module).items():
                if hasattr(obj, "cache_info"):
                    yield f"{info.name}.{attr}", obj

    @staticmethod
    def infos():
        return [c.cache_info() for c in ws._CONTEXT_CACHES]

    def task(self, triple):
        return verify._grid_task((*triple, self.RUNS))

    def test_every_cache_keyed_by_a_context_is_registered(self):
        seen = {}
        for name, fn in self.cached_functions():
            first = next(iter(inspect.signature(fn.__wrapped__).parameters))
            registered = any(fn is c for c in ws._CONTEXT_CACHES)
            assert registered == (first == "ctx"), name
            seen[name] = registered
        assert sum(seen.values()) == len(ws._CONTEXT_CACHES) == 6
        assert not seen["valuation._check_prime"]

    def test_a_task_holds_only_its_own_triple(self):
        ws.clear_context_caches()
        b_alone = (self.task(self.B), self.infos())
        self.task(self.A)
        ghost.coefficient(new_context(*self.A), 3)  # the grid suites never fill this one
        assert all(info.currsize > 0 for info in self.infos())
        after_a = (self.task(self.B), self.infos())
        for reports in (b_alone[0], after_a[0]):
            for r in reports:
                r.pop("elapsed")
        assert after_a == b_alone

    def test_release_reaches_caches_whose_attributes_were_rebound(self, monkeypatch):
        # a tracer swaps module attributes for plain wrappers without cache_clear
        for name, fn in self.cached_functions():
            module, attr = name.split(".")

            def plain(*args, _fn=fn, **kwargs):
                return _fn(*args, **kwargs)

            monkeypatch.setattr(importlib.import_module(f"ghostline.{module}"), attr, plain)
        self.task(self.A)
        assert any(info.currsize for info in self.infos())
        assert not hasattr(steinberg.delta_profile, "cache_clear")
        ws.clear_context_caches()
        assert all(info.currsize == info.hits == info.misses == 0 for info in self.infos())

    def test_a_lone_task_keeps_its_counts(self):
        ws.clear_context_caches()
        ghost.classical_evaluator(C4, 18)
        self.task(self.A)
        for fn in (ghost.classical_evaluator, steinberg.delta_profile, dims._window_table):
            info = fn.cache_info()
            assert info.hits > 0 and info.misses > 0, fn
        misses = ghost.classical_evaluator.cache_info().misses
        ghost.classical_evaluator(C4, 18)  # its entry went with the release
        assert ghost.classical_evaluator.cache_info().misses == misses + 1

    #: Live bytes one (7, 2, 4) task may leave in the caches.  They held 10.4
    #: to 10.8 MB while polygons cached their slopes and evaluators kept lists
    #: of ints, 6.3 to 6.5 MB while polygon vertices and profile offsets were
    #: tuples of ints, and 4.5 to 5.2 MB while the estimate suite cached a
    #: Fraction profile for each of its 201 weights, on Python 3.10 to 3.13.
    #: Since it reads uncached integer profiles they hold 2.03 MB (Python
    #: 3.11); the ceiling keeps the margin of about 25% over that figure.
    LIVE_SET_CEILING = 2_550_000

    def test_a_triple_stays_under_its_memory_ceiling(self):
        ws.clear_context_caches()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reports = verify._grid_task((7, 2, 4, tuple((name, {}) for name in SWEEP_SUITES)))
            assert all(r["status"] == "pass" for r in reports)
            del reports
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            ws.clear_context_caches()
        assert live < self.LIVE_SET_CEILING, f"{live / 1e6:.2f} MB"
