"""Theorem-by-theorem verification suites with witnessed reports.

Every suite checks one exact statement about the ghost series over an
explicitly bounded sweep.  Each check returns its witnesses: self-contained
dicts carrying both sides of a violated (in)equality as exact rationals, and
none when the statement holds.  ``run_suite`` builds the one report, a plain
JSON dict: the suite name, the sweep parameters, pass/fail, the witnesses,
the elapsed time and an empty ``meta``.  Identical parameters always produce
identical reports, ``elapsed`` aside; sweeps never loop open-ended.

The suite table ``SUITES`` names each suite with the bounds it reads, their
defaults, and its runner; the CLI's bound flags are named after those
bounds.  The grid runner at the bottom executes suites over all relevant
(p, a, s_eps) triples with a worker pool; output order is canonical
regardless of scheduling.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import dimensions as dims
from . import ghost_series as ghost
from . import newton
from . import steinberg
from .valuation import ilog, max_vp_interval, vp_int, INF
from .weight_space import (
    Boundary,
    Classical,
    GhostContext,
    Perturbed,
    WeightPoint,
    check_p,
    clear_context_caches,
    context_cache,
    format_point,
    format_rational,
    new_context,
)


def _ctx_params(ctx: GhostContext) -> dict:
    return {"p": ctx.p, "a": ctx.a, "s_eps": ctx.s_eps}


@context_cache(maxsize=2048)
def _np_at_classical(ctx: GhostContext, k0: int) -> newton.NewtonPolygon:
    """The polygon at w_k0 to the classical rank d_iw(k0)."""
    np_, _ = newton.np_of_ghost_auto(ctx, Classical(k0), dims.d_iw(ctx, k0))
    return np_


# ---------------------------------------------------------------- duality


def check_ghost_duality(ctx: GhostContext, k_bullet_max: int) -> List[dict]:
    """Mirror identity of the k-omitted valuations at w_k across d_iw/2."""
    witnesses = []
    for kb in range(0, k_bullet_max + 1):
        k = ctx.weight_of_bullet(kb)
        du, di = dims.d_ur_of_bullet(ctx, kb), dims.d_iw_of_bullet(ctx, kb)
        half_new = (di - 2 * du) // 2
        ys = ghost.classical_evaluator(ctx, k).omitted_range(du, di - du + 1)
        for ell in range(0, half_new):
            lhs = ys[-1 - ell] - ys[ell]  # omitted(di - du - ell) - omitted(du + ell)
            rhs = (k - 2) * (half_new - ell)
            if lhs != rhs:
                witnesses.append({"k": k, "ell": ell, "lhs": lhs, "rhs": rhs})
    return witnesses


# -------------------------------------------------------------- mid slopes


def check_mid_slopes(ctx: GhostContext, k: int) -> List[dict]:
    """Slopes d_ur+1 .. d_iw-d_ur at w_k all equal (k-2)/2."""
    du, di = dims.d_ur(ctx, k), dims.d_iw(ctx, k)
    witnesses = []
    if di - 2 * du >= 2:
        np_ = _np_at_classical(ctx, k)
        want = Fraction(k - 2, 2)
        # hull slopes never decrease, so equal ends leave no other slope between them
        if not newton.slope_at(np_, du + 1) == want == newton.slope_at(np_, di - du):
            for i in range(du + 1, di - du + 1):
                got = newton.slope_at(np_, i)
                if got != want:
                    witnesses.append(
                        {"k": k, "slope_index": i,
                         "lhs": format_rational(got), "rhs": format_rational(want)}
                    )
    return witnesses


# ------------------------------------------------------------------- theta


def check_theta(ctx: GhostContext, k0: int, ell_max: int) -> List[dict]:
    """Slope-shift identity against the reflected weight 2 - k0.

    Verified in the displayed form: coefficient-valuation jumps beyond the
    classical rank d at w_k0 equal the jumps at w_{2-k0} on the twisted
    disk s_eps' = s_eps + 1 - k0 (mod p - 1), shifted by k0 - 1.  (The
    companion prose names the polygon at w_k0 on the twisted disk instead;
    that reading is not what the jump computation supports, and it is left
    unverified.)
    """
    ctx2 = new_context(ctx.p, ctx.a, ctx.res(ctx.s_eps + 1 - k0))
    d = dims.d_iw(ctx, k0)
    ev1 = ghost.classical_evaluator(ctx, k0)
    ev2 = ghost.classical_evaluator(ctx2, 2 - k0)
    witnesses = []
    for ell in range(0, ell_max + 1):
        lhs = ev1.omitted(d + ell + 1) - ev1.omitted(d + ell)
        rhs = ev2.omitted(ell + 1) - ev2.omitted(ell) + (k0 - 1)
        if lhs != rhs:
            witnesses.append({"k0": k0, "ell": ell, "lhs": lhs, "rhs": rhs})
        lower = ev1.omitted(d + ell + 1) - ev1.omitted(d)
        if lower < (k0 - 1) * (ell + 1):
            witnesses.append(
                {"k0": k0, "ell": ell, "lhs": lower, "rhs": (k0 - 1) * (ell + 1),
                 "reason": "post-classical jump below k0-1 per step"}
            )
    return witnesses


# ----------------------------------------------------------- atkin-lehner


def check_atkin_lehner(ctx: GhostContext, k0: int) -> List[dict]:
    """Paired-disk slope sums equal k0 - 1, plus the raw jump identity."""
    ctx2 = new_context(ctx.p, ctx.a, ctx.res(k0 - 2 - ctx.a - ctx.s_eps))
    d = dims.d_iw(ctx, k0)
    if d != dims.d_iw(ctx2, k0):
        raise RuntimeError(f"d_iw at k0 = {k0} differs on the paired disk s_eps = {ctx2.s_eps}")
    on_class = ctx.on_disk(k0)
    ys1 = ghost.classical_evaluator(ctx, k0).omitted_range(0, d + 1)
    ys2 = ghost.classical_evaluator(ctx2, k0).omitted_range(0, d + 1)
    witnesses = []
    du = dims.d_ur(ctx, k0) if on_class else None
    for ell in range(1, d + 1):
        lhs = ys1[d + 1 - ell] - ys1[d - ell] + ys2[ell] - ys2[ell - 1]
        if on_class and du + 1 <= ell <= d - du:
            rhs = k0 - 2
        else:
            rhs = k0 - 1
        if lhs != rhs:
            witnesses.append({"k0": k0, "ell": ell, "lhs": lhs, "rhs": rhs,
                              "reason": "jump identity"})
    if not on_class and d >= 1:
        np1, np2 = _np_at_classical(ctx, k0), _np_at_classical(ctx2, k0)
        for ell in range(1, d + 1):
            s = newton.slope_at(np1, ell) + newton.slope_at(np2, d + 1 - ell)
            if s != k0 - 1:
                witnesses.append(
                    {"k0": k0, "ell": ell, "lhs": format_rational(s), "rhs": k0 - 1,
                     "reason": "slope pairing"}
                )
    return witnesses


# -------------------------------------------------------- p-stabilization


def _pairs_accept(np_: newton.NewtonPolygon, du: int, di: int, k0: int) -> bool:
    """Whether the pair defects s_l + s_(di+1-l) - (k0 - 1), l = 1 .. du, all
    vanish, read at vertices.  With y the value function (y(0) = 0, as g_0 =
    1), g(x) = y(x) + y(di) - y(di - x) - x (k0 - 1) has g(l) - g(l - 1) = the
    defect at l, and is linear on [0, du] between 0, du, the vertices in (0,
    du) and the di - x for the vertices x in (di - du, di), so it is 0 at every l
    exactly when it is 0 at du and at those points."""
    y = newton.value_at
    xs = [x for x, _ in np_.vertices]
    points = [du] + [x for x in xs if 0 < x < du] + [di - x for x in xs if di - du < x < di]
    return all(y(np_, x) + y(np_, di) - y(np_, di - x) == x * (k0 - 1) for x in points)


def check_p_stabilization(ctx: GhostContext, k0: int) -> List[dict]:
    """Old-form slope pairs at w_k0 sum to k0 - 1; no slope exceeds k0 - 1."""
    du, di = dims.d_ur(ctx, k0), dims.d_iw(ctx, k0)
    witnesses = []
    if di >= 1:
        np_ = _np_at_classical(ctx, k0)
        if du and not _pairs_accept(np_, du, di, k0):
            for ell in range(1, du + 1):
                s = newton.slope_at(np_, ell) + newton.slope_at(np_, di + 1 - ell)
                if s != k0 - 1:
                    witnesses.append(
                        {"k0": k0, "ell": ell, "lhs": format_rational(s), "rhs": k0 - 1}
                    )
        # hull slopes never decrease, so the last one is the largest
        if newton.slope_at(np_, di) > k0 - 1:
            for i in range(1, di + 1):
                s = newton.slope_at(np_, i)
                if s > k0 - 1:
                    witnesses.append(
                        {"k0": k0, "slope_index": i, "lhs": format_rational(s),
                         "rhs": k0 - 1, "reason": "slope above k0-1"}
                    )
    return witnesses


# ----------------------------------------------------------------- gouvea


def check_gouvea(ctx: GhostContext, k0: int) -> List[dict]:
    """Old-form slopes at w_k0 stay under the explicit floor bound."""
    p = ctx.p
    du = dims.d_ur(ctx, k0)
    witnesses = []
    if du >= 1:
        bound = (p - 1) // 2 * (du - 1) - ctx.delta_eps + ctx.beta(du - 1)
        coarse = (k0 - 1 - min(ctx.a + 1, p - 2 - ctx.a)) // (p + 1)
        if bound > coarse:
            witnesses.append({"k0": k0, "lhs": bound, "rhs": coarse,
                              "reason": "sharp bound above floor bound"})
        np_ = _np_at_classical(ctx, k0)
        # hull slopes never decrease, so slope du is the largest of them
        if newton.slope_at(np_, du) > bound:
            for i in range(1, du + 1):
                s = newton.slope_at(np_, i)
                if s > bound:
                    witnesses.append(
                        {"k0": k0, "slope_index": i, "lhs": format_rational(s), "rhs": bound}
                    )
    return witnesses


# ------------------------------------------------------------------- halo


def check_halo(ctx: GhostContext, t: Union[Fraction, str], n_max: int) -> List[dict]:
    """Boundary slopes are t * (degree increments), width 1, increasing; t
    may be given as its 'num/den' string."""
    t = Fraction(t)
    np_, _ = newton.np_of_ghost_auto(ctx, Boundary(t), n_max)
    witnesses = []
    prev = None
    for i in range(1, n_max + 1):
        got = newton.slope_at(np_, i)
        want = t * (ghost.degree_fast(ctx, i) - ghost.degree_fast(ctx, i - 1))
        if got != want:
            witnesses.append({"n": i, "lhs": format_rational(got),
                              "rhs": format_rational(want)})
        if prev is not None and not got > prev:
            witnesses.append({"n": i, "lhs": format_rational(got),
                              "rhs": format_rational(prev),
                              "reason": "slopes not strictly increasing"})
        prev = got
    for n in range(0, n_max + 1):
        if not newton.is_vertex(np_, n):
            witnesses.append({"n": n, "lhs": "non-vertex", "rhs": "vertex",
                              "reason": "segment wider than 1"})
    return witnesses


# ------------------------------------------------------------ integrality


def check_integrality(ctx: GhostContext, k0: int) -> List[dict]:
    """Width-1 slopes at w_k0 are integers; wider ones have even width
    and lie in a/2 + Z."""
    di = dims.d_iw(ctx, k0)
    witnesses = []
    if di >= 1:
        verts = _np_at_classical(ctx, k0).vertices  # D = 1: every y is an int
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if not steinberg.slope_class_ok(ctx, y1 - y0, x1 - x0):
                witnesses.append({"k0": k0, "slope": format_rational(Fraction(y1 - y0, x1 - x0)),
                                  "width": x1 - x0})
    return witnesses


# -------------------------------------------------------- delta estimates


def _leq_3_log_ratio_sq(q: Fraction, ell: int, p: int) -> bool:
    """Rigorous decision of q <= 3*(log_p(ell))^2, in integers.

    With m = ilog(p, ell^n), m/n <= log_p(ell) < (m+1)/n, with equality
    exactly when p^m = ell^n.  Otherwise log_p(ell) is irrational (even
    transcendental), so 3*(log_p(ell))^2 is not the rational q, and doubling
    n (floor(2n*x) is 2m or 2m+1) narrows the bracket until it settles; past
    n = 2^16 the two sides count as inseparable.
    """
    u, v = q.numerator, 3 * q.denominator  # q/3 = u/v, compared with (m/n)^2
    n, m = 1, ilog(p, ell)
    while u * n * n > v * m * m and p**m != ell**n:
        if u * n * n >= v * (m + 1) ** 2:
            return False
        if n == 1 << 16:
            raise RuntimeError(f"could not separate sqrt({q}/3) from log_{p}({ell})")
        n *= 2
        m = 2 * m + (p ** (2 * m + 1) <= ell**n)
    return u * n * n <= v * m * m


def _half(x2: int) -> str:
    """Witness rendering of the rational x2 / 2."""
    return format_rational(Fraction(x2, 2))


def check_delta_estimates(
    ctx: GhostContext, k: int, with_k_prime: bool = False
) -> List[dict]:
    """Gap bounds, convexity defect, and hull-distance bounds of one profile,
    and with ``with_k_prime`` the strengthened gap bounds against the
    weights k' near k, read on one residue class (``_check_k_prime_bounds``).

    The checks read the doubled profile (``steinberg.doubled_profile``), so
    gaps, defects and their bounds are compared doubled, as integers, and
    the hull is the lower hull of those integers over the full width: no
    symmetry is assumed.  One pass walks the hull's vertices with a cursor,
    reading raw - hull as an unreduced numerator over a positive denominator.
    The upper gap bound is least at beta = 0 (beta_max >= 0, and INF sets no
    bound), so ``max_vp_interval`` runs only where the gap exceeds that.  A
    Fraction is built only for a witness, or for the log bound when raw -
    hull > 0.  This builds no ``DeltaProfile``.
    """
    p, h = ctx.p, (ctx.p + 1) // 2
    kb = ctx.bullet(k)
    doubled = steinberg.doubled_profile(ctx, k)
    half_new = len(doubled) // 2
    verts = newton.lower_convex_hull(doubled, -half_new).vertices
    raw2 = doubled[half_new:]  # offsets 0 .. d_new/2
    half_iw = dims.d_iw_of_bullet(ctx, kb) // 2
    be, bo, eta0 = ctx.beta_even, ctx.beta_odd, (p - 1) // 2 * kb - h * ctx.delta_eps - 1
    theta_eta = ((bo - be + h, eta0 + be), (be - bo + h, eta0 + bo))  # at even, odd d_iw/2 - ell
    witnesses, defects = [], []  # the defects of every ell follow the rest
    min_step2 = min(ctx.a + 2, p - 1 - ctx.a)
    j, log_ell, next_power = 0, 0, p  # hull cursor, ilog(p, ell), p^(log_ell + 1)
    for ell in range(1, half_new + 1):
        theta, eta = theta_eta[(half_iw - ell) % 2]
        if ell == next_power:
            log_ell, next_power = log_ell + 1, next_power * p
        gap2 = raw2[ell] - raw2[ell - 1]
        low2 = min_step2 + (p - 1) * (ell - 1)
        if gap2 < low2:
            witnesses.append({"k": k, "ell": ell, "lhs": _half(gap2),
                              "rhs": _half(low2), "reason": "gap lower bound"})
        up2 = (p - 1) * ell + 3 + 2 * log_ell  # the bound at beta = 0
        if gap2 > up2:
            lo_i, hi_i = eta - h * (ell - 1), eta + theta + h * (ell - 1)
            beta_max = max_vp_interval(lo_i, hi_i, p) if lo_i <= hi_i else 0
            if beta_max is not INF and gap2 > up2 + 2 * beta_max:
                witnesses.append({"k": k, "ell": ell, "lhs": _half(gap2),
                                  "rhs": _half(up2 + 2 * beta_max), "reason": "gap upper bound"})
        # distance between the raw profile and its hull segment (x0, x1] over ell
        while verts[j][0] < ell:
            j += 1
        (x0, y0), (x1, y1) = verts[j - 1], verts[j]
        diff_num, diff_den = (raw2[ell] - y0) * (x1 - x0) - (y1 - y0) * (ell - x0), 2 * (x1 - x0)
        if ell < 2 * p and ell != p:
            if diff_num != 0:
                witnesses.append({"k": k, "ell": ell,
                                  "lhs": format_rational(Fraction(diff_num, diff_den)),
                                  "rhs": "0", "reason": "hull equality small ell"})
        elif ell == p:
            if diff_num > diff_den:
                witnesses.append({"k": k, "ell": ell,
                                  "lhs": format_rational(Fraction(diff_num, diff_den)),
                                  "rhs": "1", "reason": "hull distance at ell = p"})
        if (p >= 7 and diff_num > 0
                and not _leq_3_log_ratio_sq(Fraction(diff_num, diff_den), ell, p)):
            witnesses.append({"k": k, "ell": ell,
                              "lhs": format_rational(Fraction(diff_num, diff_den)),
                              "rhs": f"3*(log_{p}({ell}))^2",
                              "reason": "hull distance log bound"})
        if with_k_prime:
            witnesses.extend(_check_k_prime_bounds(ctx, k, ell, gap2))
        if ell < half_new:
            defect2 = raw2[ell + 1] - 2 * raw2[ell] + raw2[ell - 1]
            vl = vp_int(ell, p) if ell % p == 0 else 0
            for rhs in (p - 1 - theta - 2 * vl, 1 - 2 * vl):
                if defect2 < 2 * rhs:
                    defects.append({"k": k, "ell": ell, "lhs": _half(defect2),
                                    "rhs": rhs, "reason": "convexity defect"})
    return witnesses + defects


def _check_k_prime_bounds(ctx: GhostContext, k: int, ell: int, gap2: int) -> List[dict]:
    """Strengthened gap bounds against the weights k' near k; gap2 is twice
    the profile gap at ell, and every bound is compared doubled.

    The k' != k have d_ur or d_iw - d_ur strictly within ell of h =
    d_iw(k)/2, or |d_iw/2 - h| <= ell.  Both ranks are nondecreasing in
    k_bullet, so these fill three k_bullet windows (not the zero windows of
    one g_n), each read only at kb' = kb (mod p^t), where t = max(0,
    floor((gap2 - R)/2)) and R is the largest doubled rhs.  No witness is
    lost: v_p(k - k') = v_p(kb - kb'), as p does not divide p - 1, and a kb'
    with v < t has margin2 = gap2 - 2(1 + v) >= gap2 - 2t >= R.  Witnesses
    come in increasing k', each k' with its checks in order.
    """
    p = ctx.p
    kb = ctx.bullet(k)
    h = dims.d_iw_of_bullet(ctx, kb) // 2
    fine2 = 1 + (p - 1) * (ell - 1) - 2 * ilog(p, (p + 1) * ell)
    checks = [(fine2, "strengthened gap bound")]
    if ell == 1:
        checks.append((1, "strengthened gap bound ell=1"))
    else:
        checks.append((2 * ell - 1, "strengthened gap bound floor"))
        if p >= 7:
            checks.append((2 * ell + 1, "strengthened gap bound p>=7"))
    step = p ** max(0, (gap2 - max(rhs2 for rhs2, _ in checks)) // 2)
    windows = ((dims.k_max_bullet(ctx, h - ell) + 1, dims.k_max_bullet(ctx, h + ell - 1) + 1),
               (dims.k_min_bullet(ctx, h - ell), dims.k_min_bullet(ctx, h + ell - 1)),
               (kb - ell, kb + ell + 1))
    kbs = {kb2 for lo, hi in windows for kb2 in range(lo + (kb - lo) % step, hi, step)
           if 0 <= kb2 != kb}
    witnesses = []
    for kb2 in sorted(kbs):
        margin2 = gap2 - 2 * (1 + vp_int(kb - kb2, p))
        for rhs2, reason in checks:
            if margin2 < rhs2:
                witnesses.append({"k": k, "k_prime": ctx.weight_of_bullet(kb2), "ell": ell,
                                  "lhs": _half(margin2), "rhs": _half(rhs2), "reason": reason})
    return witnesses


# --------------------------------------------------- vertex theorem sweeps


def _random_points(ctx: GhostContext, count: int, seed: int) -> List[WeightPoint]:
    """Deterministic Perturbed sample: bases on the disk, mixed radii.

    Radii are drawn around the typical profile-gap scale so that a healthy
    share of points actually produces near-Steinberg ranges; base weights
    stay small enough for their ranges to intersect the inspected window.
    """
    rng = random.Random((ctx.p * 1_000_003 + ctx.a * 1009 + ctx.s_eps) ^ seed)
    points: List[WeightPoint] = []
    for _ in range(count):
        kb = rng.randint(0, 12)
        r = Fraction(rng.randint(1, 24), rng.choice((1, 2, 3)))
        points.append(Perturbed(ctx.weight_of_bullet(kb), r))
    return points


def check_vertex_theorem(ctx: GhostContext, points: int, n_max: int, seed: int) -> List[dict]:
    """Vertices of the polygon = non-near-Steinberg indices, on random points."""
    return [wit for w in _random_points(ctx, points, seed)
            for wit in steinberg.vertex_theorem_check(ctx, w, n_max)]


def check_nestedness(ctx: GhostContext, points: int, n_max: int, seed: int) -> List[dict]:
    """Near-Steinberg ranges are pairwise disjoint-or-contained.

    Besides random points this deliberately probes bases congruent modulo
    p^2 steps, where distinct ranges come closest to overlapping.
    """
    p = ctx.p
    probes: List[WeightPoint] = list(_random_points(ctx, points, seed))
    for j in (1, 2):
        kb = 2 + j * p * p
        probes.append(Perturbed(ctx.weight_of_bullet(kb), Fraction(3 * p)))
        probes.append(Perturbed(ctx.weight_of_bullet(kb), Fraction(2 * j * p + 1, 2)))
    witnesses = []
    for w in probes:
        ranges = steinberg.near_steinberg_ranges(ctx, w, n_max)
        pair = steinberg.check_nested(ranges)
        if pair is not None:
            witnesses.append({"point": format_point(w),
                              "pair": [pair[0].to_json_dict(), pair[1].to_json_dict()]})
    return witnesses


def check_delta_vertices(ctx: GhostContext, k_bullet_max: int) -> List[dict]:
    """Three-way equivalence for profile hull vertices, plus slope classes."""
    witnesses = []
    for k in _weights(ctx, k_bullet_max):
        witnesses += steinberg.delta_vertex_check(ctx, k)
        witnesses += steinberg.delta_hull_slope_classes(ctx, k)
    return witnesses


# ------------------------------------------------------------ suite table


def _tagged(ctx: GhostContext, check: Callable[..., List[dict]], sweep) -> List[dict]:
    """The witnesses of check(ctx, **params) for each params dict of the
    sweep; each witness carries the context and the params its check was
    called with as ``suite_params``."""
    return [{**wit, "suite_params": {**_ctx_params(ctx), **params}}
            for params in sweep for wit in check(ctx, **params)]


def _weights(ctx: GhostContext, k_bullet_max: int):
    """The weights of k_bullet 0 .. k_bullet_max on the context's disk."""
    return map(ctx.weight_of_bullet, range(0, k_bullet_max + 1))


#: Each suite's bounds, with their defaults in flag order, and its runner,
#: which takes the context and every bound and returns the suite's
#: witnesses.  A runner that sweeps tags each witness with the params of its
#: own check.  Runners call the checks through this module's globals, so
#: that a rebinding of a check (as a tracer does) reaches the suites too.
SUITES: Dict[str, Tuple[Dict[str, int], Callable[..., List[dict]]]] = {
    "ghost_duality": ({"k_bullet_max": 200},
                      lambda ctx, k_bullet_max: check_ghost_duality(ctx, k_bullet_max)),
    "mid_slopes": ({"k_bullet_max": 200},
                   lambda ctx, k_bullet_max: _tagged(ctx, check_mid_slopes, (
                       {"k": k} for k in _weights(ctx, k_bullet_max)))),
    "theta": ({"k0_max": 60, "ell_max": 5},
              lambda ctx, k0_max, ell_max: _tagged(ctx, check_theta, (
                  {"k0": k0, "ell_max": ell_max} for k0 in range(2, k0_max + 1)))),
    "atkin_lehner": ({"k0_max": 60},
                     lambda ctx, k0_max: _tagged(ctx, check_atkin_lehner, (
                         {"k0": k0} for k0 in range(2, k0_max + 1)))),
    "p_stabilization": ({"k_bullet_max": 200},
                        lambda ctx, k_bullet_max: _tagged(ctx, check_p_stabilization, (
                            {"k0": k0} for k0 in _weights(ctx, k_bullet_max)))),
    "gouvea": ({"k_bullet_max": 200},
               lambda ctx, k_bullet_max: _tagged(ctx, check_gouvea, (
                   {"k0": k0} for k0 in _weights(ctx, k_bullet_max)))),
    "halo": ({"n_max": 24},
             lambda ctx, n_max: _tagged(ctx, check_halo, (
                 {"t": t, "n_max": n_max} for t in ("1/2", "1/3", "3/4")))),
    "integrality": ({"k_bullet_max": 200},
                    lambda ctx, k_bullet_max: _tagged(ctx, check_integrality, (
                        {"k0": k0} for k0 in _weights(ctx, k_bullet_max)))),
    "delta_estimates": ({"k_bullet_max": 200, "k_prime_bullet_max": 30},
                        lambda ctx, k_bullet_max, k_prime_bullet_max: _tagged(
                            ctx, check_delta_estimates, (
                                {"k": k, "with_k_prime": kb <= k_prime_bullet_max}
                                for kb, k in enumerate(_weights(ctx, k_bullet_max))))),
    "vertex_theorem": ({"points": 3, "n_max": 14, "seed": 20817},
                       lambda ctx, points, n_max, seed:
                       check_vertex_theorem(ctx, points, n_max, seed)),
    "nestedness": ({"points": 4, "n_max": 20, "seed": 60143},
                   lambda ctx, points, n_max, seed: check_nestedness(ctx, points, n_max, seed)),
    "delta_vertices": ({"k_bullet_max": 40},
                       lambda ctx, k_bullet_max: check_delta_vertices(ctx, k_bullet_max)),
}


def _suite(name: str) -> Tuple[Dict[str, int], Callable[..., List[dict]]]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name]


def suite_bounds(name: str) -> Tuple[str, ...]:
    """The bounds a suite reads, in flag order."""
    return tuple(_suite(name)[0])


#: The least value of each bound at which its suite still checks something.
_BOUND_MIN = {"k_bullet_max": 0, "k_prime_bullet_max": 0, "k0_max": 2,
              "ell_max": 0, "n_max": 1, "points": 1}


def _check_bounds(bounds: dict) -> None:
    for b, val in bounds.items():
        if b in _BOUND_MIN and val < _BOUND_MIN[b]:
            raise ValueError(f"{b} must be >= {_BOUND_MIN[b]}, got {val}")


def run_suite(name: str, ctx: GhostContext, **bounds) -> dict:
    """Run one suite, with its defaults for the bounds not given, and build
    its report.

    A bound that the suite does not read is an error, and so is one that
    leaves the suite nothing to check.  The report is a JSON dict with the
    keys name, params (the context and every bound), status, witnesses,
    elapsed (seconds, to 6 places) and meta (empty).
    """
    defaults, runner = _suite(name)
    unread = [b for b in bounds if b not in defaults]
    if unread:
        raise ValueError(f"suite {name!r} does not read the bound {unread[0]!r}")
    _check_bounds(bounds)
    bounds = {b: bounds.get(b, default) for b, default in defaults.items()}
    t0 = time.perf_counter()
    witnesses = runner(ctx, **bounds)
    return _report(name, {**_ctx_params(ctx), **bounds},
                   "fail" if witnesses else "pass", witnesses, t0)


def _report(name: str, params: dict, status: str, witnesses: List[dict], t0: float) -> dict:
    """A report timed from ``t0``; the indent=2 digests depend on its key order."""
    return {"name": name, "params": params, "status": status, "witnesses": witnesses,
            "elapsed": round(time.perf_counter() - t0, 6), "meta": {}}


def report_digest(reports: Sequence[dict]) -> str:
    """The one digest rule for reports: the first 12 hex digits of the SHA-256
    of ``json.dumps(reports, sort_keys=True, default=str)``, ``elapsed`` removed."""
    import hashlib, json

    kept = [{key: val for key, val in rep.items() if key != "elapsed"} for rep in reports]
    return hashlib.sha256(json.dumps(kept, sort_keys=True, default=str).encode()).hexdigest()[:12]


# ------------------------------------------------------------ grid runner


def clamp_workers(requested: int, tasks: int, cpus: Optional[int]) -> int:
    """Pool size for a grid: never more workers than tasks or usable CPUs, and >= 1."""
    return max(1, min(requested, tasks, cpus or 1))


def _grid_task(args) -> List[dict]:
    """Run the suites on one triple; args = (p, a, s_eps, ((suite, bounds), ...)).

    The per-context caches are emptied first, so a worker holds one
    triple's evaluators, profiles and polygons, and the hit counts of the
    last task stay readable after it.
    """
    p, a, s_eps, runs = args
    clear_context_caches()
    ctx = new_context(p, a, s_eps)
    return [run_suite(name, ctx, **bounds) for name, bounds in runs]


def _guarded_task(args) -> List[dict]:
    """``_grid_task``, looked up at each call so that a rebinding reaches the
    workers; a task that raises yields one "error" report for its triple,
    with the exception's type and text."""
    t0 = time.perf_counter()
    try:
        return _grid_task(args)
    except Exception as exc:  # one failing triple must not lose the grid
        import traceback

        traceback.print_exc()
        p, a, s_eps, runs = args
        params = {"p": p, "a": a, "s_eps": s_eps, "suites": [name for name, _ in runs]}
        return [_report("grid_task", params, "error",
                        [{"error": type(exc).__name__, "message": str(exc)}], t0)]


def run_grid(
    ps: Sequence[int],
    suites: Sequence[str],
    bounds: Optional[dict] = None,
    workers: Optional[int] = None,
) -> List[dict]:
    """Run suites over every (p, a, s_eps) with a in [1, p-4], all disks.

    Each suite gets the bounds it reads (``suite_bounds``); a bound that no
    selected suite reads is an error, and so are a bound that leaves its
    suite nothing to check, an empty prime or suite list, a prime or suite
    named twice, and a p that ``new_context`` rejects.  There is one task
    per parameter triple, which starts from empty per-context caches; a
    task that raises yields one "error" report for its triple in place of
    its suites' reports.  The pool has one worker per CPU in this process's
    affinity mask, unless ``workers`` or the task count asks for fewer.
    The merged output is sorted by (p, a, s_eps, suite).
    """
    for kind, names in (("prime", ps), ("suite", suites)):
        if not names:
            raise ValueError(f"the {kind} list is empty")
        twice = [x for i, x in enumerate(names) if x in names[:i]]
        if twice:
            raise ValueError(f"{kind} {twice[0]!r} is named twice")
    for p in ps:
        check_p(p)
    bounds = bounds or {}
    reads = {name: suite_bounds(name) for name in suites}  # raises on an unknown name
    for b in bounds:
        if not any(b in read for read in reads.values()):
            raise ValueError(f"no selected suite reads the bound {b!r}")
    _check_bounds(bounds)
    runs = tuple(
        (name, {b: val for b, val in bounds.items() if b in reads[name]}) for name in suites
    )
    tasks = [
        (p, a, s_eps, runs)
        for p in ps
        for a in range(1, p - 3)
        for s_eps in range(0, p - 1)
    ]
    try:
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count()
    if workers is None:
        workers = cpus or 1
    workers = clamp_workers(workers, len(tasks), cpus)
    if workers <= 1:
        nested = [_guarded_task(t) for t in tasks]
    else:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            nested = pool.map(_guarded_task, tasks, chunksize=1)
    reports = [rep for group in nested for rep in group]
    reports.sort(key=lambda r: (r["params"]["p"], r["params"]["a"],
                                r["params"]["s_eps"], r["name"]))
    return reports
