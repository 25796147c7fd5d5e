"""Ghost coefficients in factored form, degrees, halo exponents, evaluation.

The n-th coefficient is the finite product over classical weights k on the
selected disk of (w - w_k)^(m_n(k)), with

    m_n(k) = min(n - d_ur(k), d_iw(k) - d_ur(k) - n)   when
             d_ur(k) < n < d_iw(k) - d_ur(k),          else 0.

Coefficients are always kept factored: every downstream quantity is a
valuation of an evaluation, and degrees grow quadratically, so the dense
polynomial is never materialised.  The factors of g_n are exactly the
weights of ``dims.zero_window(n)``.

Valuation profiles n -> v_p(g_n(w)) = sum_k m_n(k) * vp(w - w_k) come from
one jump evaluator per point, built by ``evaluator``.  Every point has a
base weight k0 and a radius r, and lies at distance min(r, 1 + vp(k - k0))
from w_k for k != k0 and at distance r from w_k0:

* the classical point w_k0 has r = INF;
* ``Perturbed(k0, r)`` has the finite radius r;
* ``Boundary(t)`` has no base weight, and every distance is r = t.

The jump of the k0-omitted sum from n to n+1 (``increment_at``) is the sum
of the distance over the k_bullet window whose multiplicities rise at n,
minus the sum over the window whose multiplicities fall; ``value`` adds
m_n(k0) * r back.  Each window sum counts levels: min(r, 1 + vp(x)) is the
number of levels l < floor(r) with p^l | x, plus frac(r) if p^floor(r) | x,
and level l counts one residue class of k_bullet modulo p^l.  Whole
profiles thus cost O(n) window sums of O(log) integer steps each.  deg g_n
is the profile at a point at distance 1 from every w_k (``degree_fast``).

The factored evaluation ``eval_vp`` stays as the independent slow route
that tests compare against; no library path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from . import dimensions as dims
from .valuation import INF, ExtRat
from .weight_space import GhostContext, WeightPoint, vp_point_to_weight


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


def _multiplicity(n: int, du: int, di: int) -> int:
    """m_n(k) of a weight k with d_ur(k) = du and d_iw(k) = di."""
    return min(n - du, di - du - n) if du < n < di - du else 0


def multiplicity(ctx: GhostContext, n: int, k: int) -> int:
    """Exponent of (w - w_k) in the n-th coefficient."""
    if n < 1:
        return 0
    return _multiplicity(n, dims.d_ur(ctx, k), dims.d_iw(ctx, k))


@lru_cache(maxsize=4096)
def coefficient(ctx: GhostContext, n: int) -> GhostCoefficient:
    """The complete factored n-th coefficient, over ``dims.zero_window(n)``."""
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    factors = []
    for kb in dims.zero_window(ctx, n):
        du, di = dims.d_ur_of_bullet(ctx, kb), dims.d_iw_of_bullet(ctx, kb)
        factors.append((ctx.weight_of_bullet(kb), _multiplicity(n, du, di)))
    return GhostCoefficient(n, tuple(factors))


def degree(ctx: GhostContext, n: int) -> int:
    """deg g_n, the sum of the factor multiplicities."""
    return coefficient(ctx, n).degree()


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


def _level_sum(
    ctx: GhostContext, kb_lo: int, kb_hi: int, k0: Optional[int], whole: Optional[int]
) -> Tuple[int, int]:
    """Sum of min(r, 1 + vp(k - k0)) over the weights k != k0 with k_bullet
    in [max(kb_lo, 0), kb_hi], as (full, top) with sum full + frac(r)*top.

    whole = floor(r), None for r = INF.  Level l < whole adds 1 and level
    whole adds frac(r) for each k with p^l | k - k0.  Since
    k - k0 = (k_eps - k0) + (p-1)*k_bullet and rho_l = (p^l - 1)/(p - 1)
    is -(p-1)^(-1) mod p^l, level l counts the k_bullet congruent to
    (k_eps - k0)*rho_l mod p^l.  The solution sets are nested, so the first
    level holding no k != k0 ends the sum.  With no base weight (k0 None)
    every distance is min(r, 1).
    """
    kb_lo = max(kb_lo, 0)
    if kb_lo > kb_hi:
        return 0, 0
    count = kb_hi - kb_lo + 1
    if k0 is None:
        return (count, 0) if whole else (0, count)
    p = ctx.p
    offset = ctx.k_eps - k0
    k0b, off_class = divmod(-offset, p - 1)
    has_k0 = not off_class and kb_lo <= k0b <= kb_hi
    count -= has_k0
    full = level = rho = 0
    pl = 1
    while count and level != whole:
        full += count
        level += 1
        rho += pl
        pl *= p
        res = offset * rho % pl
        count = (kb_hi - res) // pl - (kb_lo - 1 - res) // pl - has_k0
    return full, count


def increment_at(
    ctx: GhostContext, n: int, k0: Optional[int], whole: Optional[int] = None
) -> Tuple[int, int]:
    """Jump (full, top) of the k0-omitted valuation from g_n to g_{n+1}, in
    the parts of ``_level_sum``; whole = floor(r), None at w_k0 itself.

    The weights whose multiplicity rises at n have k_bullet in
    (k_mid_bullet(n), k_max_bullet(n)], those whose multiplicity falls in
    [k_min_bullet(n), k_mid_bullet(n)].
    """
    kmid = dims.k_mid_bullet(ctx, n)
    rise = _level_sum(ctx, kmid + 1, dims.k_max_bullet(ctx, n), k0, whole)
    fall = _level_sum(ctx, dims.k_min_bullet(ctx, n), kmid, k0, whole)
    return rise[0] - fall[0], rise[1] - fall[1]


class JumpEvaluator:
    """Valuation profile n -> v_p(g_n(w)) at the point w with base weight
    k0 (None for none) and radius r (INF at w_k0 itself).

    Accumulates the jumps of the k0-omitted sum from v_p(g_0) = 0, keeping
    its integer part and its frac(r) part apart.  k0 may be any integer, on
    or off the ghost zero class; only a k0 >= 2 on the class is a zero of
    some coefficients, and only there does m_n(k0) * r enter ``value``.
    """

    def __init__(self, ctx: GhostContext, k0: Optional[int], r: ExtRat):
        self.ctx = ctx
        self.k0 = k0
        if r is INF:
            self.whole, self.frac, self.r = None, 0, INF
        else:
            self.whole, self.frac = divmod(Fraction(r), 1)
            self.r = r if self.frac else self.whole  # integral radii keep int profiles
        self._ranks = None  # (d_ur, d_iw) of k0 when it is a ghost zero weight
        if k0 is not None and k0 >= 2 and ctx.on_disk(k0):
            kb = ctx.bullet(k0)
            self._ranks = (dims.d_ur_of_bullet(ctx, kb), dims.d_iw_of_bullet(ctx, kb))
        self._full = [0]
        self._top = [0]

    def _grow(self, n: int) -> None:
        full, top = self._full, self._top
        while len(full) <= n:
            jump_full, jump_top = increment_at(self.ctx, len(full) - 1, self.k0, self.whole)
            full.append(full[-1] + jump_full)
            top.append(top[-1] + jump_top)

    def multiplicity_k0(self, n: int) -> int:
        return _multiplicity(n, *self._ranks) if self._ranks else 0

    def omitted(self, n: int) -> ExtRat:
        """v_p(g_{n, hat k0}(w)), always finite."""
        if n >= len(self._full):
            self._grow(n)
        if not self.frac:
            return self._full[n]
        return self._full[n] + self.frac * self._top[n]

    def value(self, n: int) -> ExtRat:
        """v_p(g_n(w)); INF at the indices where w = w_k0 is a zero."""
        m = self.multiplicity_k0(n)
        return self.omitted(n) + m * self.r if m else self.omitted(n)


@lru_cache(maxsize=512)
def classical_evaluator(ctx: GhostContext, k0: int) -> JumpEvaluator:
    return JumpEvaluator(ctx, k0, INF)


@lru_cache(maxsize=512)
def _point_evaluator(ctx: GhostContext, k0: Optional[int], r: ExtRat) -> JumpEvaluator:
    return JumpEvaluator(ctx, k0, r)


def evaluator(ctx: GhostContext, w: WeightPoint) -> JumpEvaluator:
    """The jump evaluator at w, whose ``value(n)`` is v_p(g_n(w)).

    Evaluators are cached per point, so a caller that re-evaluates a point
    (a Newton polygon retried with a doubled buffer) extends the same
    profile.
    """
    if w.r is INF:
        return classical_evaluator(ctx, w.k0)
    return _point_evaluator(ctx, w.k0, w.r)


def degree_fast(ctx: GhostContext, n: int) -> int:
    """deg g_n, the profile at a point at distance 1 from every w_k (no
    base weight, so nothing is omitted).

    Agrees with degree() everywhere (cross-checked in the test suite); used
    on hot paths such as the Newton-polygon certification.
    """
    return _point_evaluator(ctx, None, 1).omitted(n)
