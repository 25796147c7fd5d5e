"""Ghost coefficients in factored form, degrees, halo exponents, evaluation.

The n-th coefficient is the finite product over classical weights k on the
selected disk of (w - w_k)^(m_n(k)), with

    m_n(k) = min(n - d_ur(k), d_iw(k) - d_ur(k) - n)   when
             d_ur(k) < n < d_iw(k) - d_ur(k),          else 0.

Coefficients are always kept factored: every downstream quantity is a
valuation of an evaluation, and degrees grow quadratically, so the dense
polynomial is never materialised.  The enumeration window for the factors
comes from the exact inversions k_min_bullet / k_max_bullet rather than a
heuristic scan.

Valuation profiles n -> v_p(g_n(w)) come from one jump evaluator per point,
built by ``evaluator``.  The jump from n to n+1 is a sum over the k_bullet
window whose multiplicities rise at n minus a sum over the window whose
multiplicities fall, of the distance vp(w - w_k):

* at a classical point w_k0 the distance is 1 + vp(k - k0), and the
  digit-sum identity sums it over a window in O(log) time
  (``ClassicalEvaluator``);
* at ``Perturbed(k0, r)`` it is min(r, 1 + vp(k - k0)), summed level by
  level as min(1, r - j) times the number of k with p^j | k - k0, one
  congruence count per level (``PerturbedEvaluator``);
* at ``Boundary(t)`` it is t, so the profile is t * deg g_n.

Whole profiles thus cost O(n) window sums.  The factored evaluation
``eval_vp`` below stays as the independent slow route that tests compare
against; no library path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from . import dimensions as dims
from .valuation import INF, ExtRat, sum_vp_arith_prog, vp_factorial
from .weight_space import (
    Boundary,
    Classical,
    GhostContext,
    Perturbed,
    WeightPoint,
    vp_point_to_weight,
)


@dataclass(frozen=True, slots=True)
class GhostCoefficient:
    n: int
    factors: Tuple[Tuple[int, int], ...]  # (weight k, multiplicity), sorted by k

    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def multiplicity_of(self, k: int) -> int:
        for kk, m in self.factors:
            if kk == k:
                return m
        return 0

    def to_json_dict(self) -> dict:
        return {"n": self.n, "factors": [[k, m] for k, m in self.factors]}


def multiplicity(ctx: GhostContext, n: int, k: int) -> int:
    """Exponent of (w - w_k) in the n-th coefficient."""
    if n < 1:
        return 0
    du = dims.d_ur(ctx, k)
    di = dims.d_iw(ctx, k)
    if du < n < di - du:
        return min(n - du, di - du - n)
    return 0


@lru_cache(maxsize=None)
def coefficient(ctx: GhostContext, n: int) -> GhostCoefficient:
    """The complete factored n-th coefficient.

    The factor weights are exactly those k >= 2 on the disk with
    d_ur(k) < n < d_iw(k) - d_ur(k), i.e. k_bullet in
    [k_min_bullet(n), k_max_bullet(n-1)] (clipped at 0).
    """
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    if n == 0:
        return GhostCoefficient(0, ())
    _, kb_lo = dims.k_min_bullet(ctx, n)
    kb_lo = max(kb_lo, 0)
    kb_hi = dims.k_max_bullet(ctx, n - 1)
    factors = []
    for kb in range(kb_lo, kb_hi + 1):
        du = dims.d_ur_of_bullet(ctx, kb)
        di = dims.d_iw_of_bullet(ctx, kb)
        if du < n < di - du:
            factors.append((ctx.weight_of_bullet(kb), min(n - du, di - du - n)))
    return GhostCoefficient(n, tuple(factors))


def degree(ctx: GhostContext, n: int) -> int:
    """deg g_n, the sum of the factor multiplicities."""
    return coefficient(ctx, n).degree()


def _jump_windows(ctx: GhostContext, n: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """k_bullet windows (lo, hi), before clipping at 0, of the weights whose
    multiplicity rises, resp. falls, from g_n to g_{n+1}:
    (k_mid_bullet(n), k_max_bullet(n)] and [k_min_bullet(n), k_mid_bullet(n)].
    """
    kmid = dims.k_mid_bullet(ctx, n)
    _, kmin = dims.k_min_bullet(ctx, n)
    return (kmid + 1, dims.k_max_bullet(ctx, n)), (kmin, kmid)


_DEGREE_CACHE: dict = {}


def degree_fast(ctx: GhostContext, n: int) -> int:
    """deg g_n by accumulated window counts, never materialising factors.

    The jump deg g_{n+1} - deg g_n counts the weights whose multiplicity
    rises minus those whose multiplicity falls, i.e. the sizes of the two
    k_bullet windows behind increment_at.  Agrees with degree() everywhere
    (cross-checked in the test suite); used on hot paths such as the
    Newton-polygon certification.
    """
    vals = _DEGREE_CACHE.setdefault(ctx, [0])
    while len(vals) <= n:
        (rise_lo, rise_hi), (fall_lo, fall_hi) = _jump_windows(ctx, len(vals) - 1)
        pos = rise_hi - max(rise_lo, 0) + 1
        neg = fall_hi - max(fall_lo, 0) + 1
        vals.append(vals[-1] + max(pos, 0) - max(neg, 0))
    return vals[n]


def power_basis_degree(ctx: GhostContext, n: int) -> int:
    """Degree of the n-th power basis element (1-indexed)."""
    if n < 1:
        raise ValueError(f"power basis index must be >= 1, got {n}")
    d1, d2 = ctx.s_eps, ctx.res(ctx.a + ctx.s_eps)
    lo, hi = min(d1, d2), max(d1, d2)
    j, rem = divmod(n - 1, 2)
    return (lo if rem == 0 else hi) + j * (ctx.p - 1)


def lambda_halo(ctx: GhostContext, n: int) -> int:
    """Boundary-regime slope floor: deg e_n - floor(deg e_n / p)."""
    d = power_basis_degree(ctx, n)
    return d - d // ctx.p


def degree_increment_closed_form(ctx: GhostContext, n: int) -> int:
    """deg g_{n+1} - deg g_n without enumerating factors.

    Equals lambda_{n+1} corrected by +1/-1/0 according to the residue of
    n - 2*s_eps modulo 2p; the parity pattern swaps between the two
    branches of a + s_eps against p-1.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    p, a = ctx.p, ctx.a
    r = (n - 2 * ctx.s_eps) % (2 * p)
    if ctx.a + ctx.s_eps < p - 1:
        plus = range(1, 2 * a + 2, 2)
        minus = range(2, 2 * a + 3, 2)
    else:
        plus = range(2, 2 * a + 3, 2)
        minus = range(3, 2 * a + 4, 2)
    corr = 1 if r in plus else (-1 if r in minus else 0)
    return lambda_halo(ctx, n + 1) + corr


def eval_vp(ctx: GhostContext, n: int, w: WeightPoint) -> ExtRat:
    """v_p(g_n(w)) as an extended rational; INF iff w is a zero of g_n."""
    total: ExtRat = 0
    for k, m in coefficient(ctx, n).factors:
        v = vp_point_to_weight(ctx, w, k)
        if v is INF:
            return INF
        total += m * v
    return total


def eval_vp_omit(
    ctx: GhostContext, n: int, w: WeightPoint, omit: Iterable[int]
) -> ExtRat:
    """Same sum with the factors at the omitted weights struck out."""
    omit = frozenset(omit)
    total: ExtRat = 0
    for k, m in coefficient(ctx, n).factors:
        if k in omit:
            continue
        v = vp_point_to_weight(ctx, w, k)
        if v is INF:
            return INF
        total += m * v
    return total


def _window_sum(ctx: GhostContext, kb_lo: int, kb_hi: int, k0: int) -> int:
    """Sum of (1 + vp(k - k0)) over k_bullet in [kb_lo, kb_hi], skipping k = k0.

    k - k0 = (k_eps - k0) + (p-1)*k_bullet.  On the residue class of k0 the
    difference is (p-1)*(k_bullet - k0_bullet) and p-adic valuations reduce
    to consecutive integers, handled by the factorial digit-sum identity;
    off the class an arithmetic-progression count is used.
    """
    kb_lo = max(kb_lo, 0)
    if kb_lo > kb_hi:
        return 0
    p = ctx.p
    offset = ctx.k_eps - k0
    if offset % (p - 1) == 0:
        k0b = -offset // (p - 1)
        count = kb_hi - kb_lo + 1
        total = 0
        if kb_lo <= k0b <= kb_hi:
            count -= 1
            if k0b > kb_lo:
                total += vp_factorial(k0b - kb_lo, p)
            if kb_hi > k0b:
                total += vp_factorial(kb_hi - k0b, p)
        elif k0b < kb_lo:
            total += vp_factorial(kb_hi - k0b, p) - vp_factorial(kb_lo - 1 - k0b, p)
        else:
            total += vp_factorial(k0b - kb_lo, p) - vp_factorial(k0b - kb_hi - 1, p)
        return count + total
    return (kb_hi - kb_lo + 1) + sum_vp_arith_prog(kb_lo, kb_hi, p - 1, offset, p)


def increment_at(ctx: GhostContext, n: int, k0: int) -> int:
    """Jump v_p(g_{n+1,hat k0}(w_k0)) - v_p(g_{n,hat k0}(w_k0)).

    The positive window (k_mid_bullet(n), k_max_bullet(n)] collects the
    weights whose multiplicity rises at n, the window
    [k_min_bullet(n), k_mid_bullet(n)] those whose multiplicity falls.
    """
    (rise_lo, rise_hi), (fall_lo, fall_hi) = _jump_windows(ctx, n)
    return _window_sum(ctx, rise_lo, rise_hi, k0) - _window_sum(ctx, fall_lo, fall_hi, k0)


def eval_increment_oracle(ctx: GhostContext, n: int, k0: int) -> int:
    """Closed-form jump of the k0-omitted valuation at w_k0 (on-class k0)."""
    if not ctx.on_disk(k0):
        raise ValueError(f"k0 = {k0} is not on the k_eps = {ctx.k_eps} class")
    return increment_at(ctx, n, k0)


class ClassicalEvaluator:
    """Valuation profiles n -> v_p(g_n(w_k0)) at one classical point.

    Accumulates the O(log)-time jumps from v_p(g_0) = 0 and records the
    multiplicity of k0 itself, so both the plain profile (INF at the zeros
    of the coefficients) and the k0-omitted profile come out of one pass.
    k0 may be any integer, on or off the ghost zero class; weights below 2
    are never zeros, so their profiles are finite everywhere.
    """

    def __init__(self, ctx: GhostContext, k0: int):
        self.ctx = ctx
        self.k0 = k0
        if ctx.on_disk(k0) and k0 >= 2:
            self.k0_bullet: Optional[int] = ctx.bullet(k0)
        else:
            self.k0_bullet = None
        self._omit_vals = [0]  # v_p(g_{n, hat k0}(w_k0)) for n = 0..N

    def _grow(self, n: int) -> None:
        while len(self._omit_vals) <= n:
            m = len(self._omit_vals) - 1
            self._omit_vals.append(self._omit_vals[-1] + increment_at(self.ctx, m, self.k0))

    def multiplicity_k0(self, n: int) -> int:
        if self.k0_bullet is None or n < 1:
            return 0
        du = dims.d_ur_of_bullet(self.ctx, self.k0_bullet)
        di = dims.d_iw_of_bullet(self.ctx, self.k0_bullet)
        if du < n < di - du:
            return min(n - du, di - du - n)
        return 0

    def omitted(self, n: int) -> int:
        """v_p(g_{n, hat k0}(w_k0)), always finite."""
        self._grow(n)
        return self._omit_vals[n]

    def value(self, n: int) -> ExtRat:
        """v_p(g_n(w_k0)); INF at indices where w_k0 is a zero."""
        if self.multiplicity_k0(n) > 0:
            return INF
        return self.omitted(n)


@lru_cache(maxsize=512)
def classical_evaluator(ctx: GhostContext, k0: int) -> ClassicalEvaluator:
    return ClassicalEvaluator(ctx, k0)


def _capped_window_sum(
    ctx: GhostContext, kb_lo: int, kb_hi: int, k0: int, whole: int, frac: Fraction
) -> Tuple[int, int]:
    """Sum of min(r, 1 + vp(k - k0)) over k_bullet in [kb_lo, kb_hi], where
    r = whole + frac with 0 <= frac < 1, returned as (i, j) with sum i + frac*j.

    min(r, 1 + vp(x)) is the sum over levels l >= 0 with p^l | x of
    min(1, r - l), a positive weight only for l < ceil(r); a term k = k0
    (x = 0) is divisible at every level and contributes r itself.  Level l
    counts the k_bullet solving k_eps - k0 + (p-1)*k_bullet = 0 mod p^l.
    The solution sets are nested, so the first empty level ends the sum,
    and once p^l exceeds every nonzero |k - k0| in the window only k = k0
    is left, at every remaining level.
    """
    kb_lo = max(kb_lo, 0)
    if kb_lo > kb_hi:
        return 0, 0
    p = ctx.p
    offset = ctx.k_eps - k0
    levels = whole + (1 if frac else 0)
    bound = max(abs(offset + (p - 1) * kb_lo), abs(offset + (p - 1) * kb_hi))
    full = top = 0
    count, level, pl = kb_hi - kb_lo + 1, 0, 1
    while count and level < levels:
        if pl > bound:
            full += count * max(whole - level, 0)
            if frac:
                top = count
            break
        if level < whole:
            full += count
        else:
            top = count
        level += 1
        pl *= p
        res = (-offset * pow(p - 1, -1, pl)) % pl
        count = (kb_hi - res) // pl - (kb_lo - 1 - res) // pl
    return full, top


class PerturbedEvaluator:
    """Valuation profile n -> v_p(g_n(w)) at w = Perturbed(k0, r).

    Accumulates the jumps from v_p(g_0) = 0.  With r = whole + frac every
    jump is an integer plus frac times an integer; the two integer parts
    are summed separately and combined only in ``value``.  No factor
    vanishes at a perturbed point, so the profile is finite everywhere.
    """

    def __init__(self, ctx: GhostContext, k0: int, r: Fraction):
        self.ctx = ctx
        self.k0 = k0
        self.whole = r.numerator // r.denominator
        self.frac = r - self.whole
        self._full = [0]
        self._top = [0]

    def _grow(self, n: int) -> None:
        ctx, k0, whole, frac = self.ctx, self.k0, self.whole, self.frac
        while len(self._full) <= n:
            rise, fall = _jump_windows(ctx, len(self._full) - 1)
            pos_full, pos_top = _capped_window_sum(ctx, *rise, k0, whole, frac)
            neg_full, neg_top = _capped_window_sum(ctx, *fall, k0, whole, frac)
            self._full.append(self._full[-1] + pos_full - neg_full)
            self._top.append(self._top[-1] + pos_top - neg_top)

    def value(self, n: int) -> ExtRat:
        """v_p(g_n(w)), always finite."""
        self._grow(n)
        if not self.frac:
            return self._full[n]
        return self._full[n] + self.frac * self._top[n]


class BoundaryEvaluator:
    """Valuation profile n -> t * deg g_n at w = Boundary(t)."""

    def __init__(self, ctx: GhostContext, t: Fraction):
        self.ctx = ctx
        self.t = t

    def value(self, n: int) -> ExtRat:
        return self.t * degree_fast(self.ctx, n)


@lru_cache(maxsize=512)
def _point_evaluator(ctx: GhostContext, w: WeightPoint):
    if isinstance(w, Perturbed):
        return PerturbedEvaluator(ctx, w.k0, w.r)
    if isinstance(w, Boundary):
        return BoundaryEvaluator(ctx, w.t)
    raise TypeError(f"not a weight point: {w!r}")


def evaluator(ctx: GhostContext, w: WeightPoint):
    """The jump evaluator at w, whose ``value(n)`` is v_p(g_n(w)).

    Classical points share the ``classical_evaluator`` cache; the others
    are cached here, so a caller that re-evaluates a point (a Newton
    polygon retried with a doubled buffer) extends the same profile.
    """
    if isinstance(w, Classical):
        return classical_evaluator(ctx, w.k)
    return _point_evaluator(ctx, w)
