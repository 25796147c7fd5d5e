"""Ghost coefficients in factored form, degrees, halo exponents, evaluation.

The n-th coefficient is the finite product over classical weights k on the
selected disk of (w - w_k)^(m_n(k)), with

    m_n(k) = min(n - d_ur(k), d_iw(k) - d_ur(k) - n)   when
             d_ur(k) < n < d_iw(k) - d_ur(k),          else 0.

Coefficients are always kept factored: every downstream quantity is a
valuation of an evaluation, and degrees grow quadratically, so the dense
polynomial is never materialised.  The factors of g_n are exactly the
weights of ``dims.zero_window(n)``, and m_n(k) reads ``dims.zero_indices``.

Valuation profiles n -> v_p(g_n(w)) = sum_k m_n(k) * vp(w - w_k) come from
one jump evaluator per point, built by ``evaluator``.  Every point has a
base weight k0 and a radius r, and lies at distance min(r, 1 + vp(k - k0))
from w_k for k != k0 and at distance r from w_k0:

* the classical point w_k0 has r = INF;
* ``Perturbed(k0, r)`` has the finite radius r;
* ``Boundary(t)`` has no base weight, and every distance is r = t.

The jump of the k0-omitted sum from n to n+1 is the sum of the distance
over the k_bullet window whose multiplicities rise at n, minus the sum
over the window whose multiplicities fall; ``scaled`` adds m_n(k0) * r
back, in the same units.  Distances count levels in units of 1/D, for D
the denominator of r (1 at INF), so every sum is an integer:
D * min(r, 1 + vp(x)) is D per level l < floor(r) with p^l | x, plus
D * frac(r) if p^floor(r) | x, and level l holds one residue class of
k_bullet modulo p^l.

One kernel serves every point kind.  With P(x) the scaled sum of the
distances over 0 <= k_bullet < x, the jump at n is P(C) - 2*P(B) + P(A)
at the three window ends A <= B <= C of n, which never decrease in n.  So
an evaluator keeps one cursor (x, P(x)) per end, O(1) state besides its
profile, and grows by moving the cursors forward: the distances of a new
stretch of k_bullet are one list of the base distance, raised level by
level with strided slices, and one ``accumulate`` turns them into the
prefix sums that the new jumps read.  The window ends come from a
per-context table shared by all evaluators (``dims.jump_windows``), the
levels from the evaluator's table of pairs (p^l, residue of level l),
which depends on k0 alone.  A profile to n thus costs O(n) list steps,
most of them inside ``accumulate``.  ``increment_at`` runs the kernel at
one n, ``scaled`` reads a stretch of a profile in bulk and ``at`` one
index of it.  Every read is an integer D * v_p, and nothing divides by D.
deg g_n is the profile at a point at distance 1 from every w_k
(``degree_evaluator``).

The factored evaluation ``eval_vp`` stays as the independent slow route
that tests compare against; no library path calls it.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Collection, List, Optional, Tuple

from . import dimensions as dims
from .valuation import INF, ExtRat
from .weight_space import GhostContext, WeightPoint, _Record, context_cache, vp_point_to_weight


class GhostCoefficient(_Record):
    __slots__ = ("n", "factors")
    n: int
    factors: Tuple[Tuple[int, int], ...]  # (weight k, multiplicity), sorted by k

    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "factors": [[k, m] for k, m in self.factors]}


def _multiplicity(n: int, zeros: range) -> int:
    """m_n(k) of a weight k with ``dims.zero_indices(k)`` = zeros."""
    return min(n - zeros.start + 1, zeros.stop - n) if n in zeros else 0


def multiplicity(ctx: GhostContext, n: int, k: int) -> int:
    """Exponent of (w - w_k) in the n-th coefficient."""
    if n < 1:
        return 0
    if k < 2:
        raise ValueError(f"multiplicity requires k >= 2, got k = {k}")
    return _multiplicity(n, dims.zero_indices(ctx, ctx.bullet(k)))


@context_cache(maxsize=4096)
def coefficient(ctx: GhostContext, n: int) -> GhostCoefficient:
    """The complete factored n-th coefficient, over ``dims.zero_window(n)``."""
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    return GhostCoefficient(n, tuple(
        (ctx.weight_of_bullet(kb), _multiplicity(n, dims.zero_indices(ctx, kb)))
        for kb in dims.zero_window(ctx, n)))


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


def eval_vp(ctx: GhostContext, n: int, w: WeightPoint, omit: Collection[int] = ()) -> ExtRat:
    """v_p(g_n(w)) as an extended rational, with the factors at the weights
    in ``omit`` struck out; INF iff w is a zero of what remains."""
    total: ExtRat = 0
    for k, m in coefficient(ctx, n).factors:
        if k in omit:
            continue
        v = vp_point_to_weight(ctx, w, k)
        if v is INF:
            return INF
        total += m * v
    return total


def _radius_parts(r: ExtRat) -> Tuple[Optional[int], int, int]:
    """(floor(r), D, D*frac(r)) for the denominator D of r; (None, 1, 0) at INF."""
    if r is INF:
        return None, 1, 0
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    num, den = r.as_integer_ratio()
    whole, rem = divmod(num, den)
    return whole, den, rem


def _deepen(
    ctx: GhostContext, k0: int, whole: Optional[int], levels: List[Tuple[int, int]], kb_max: int
) -> None:
    """Extend ``levels`` until it covers every weight with k_bullet <= kb_max.

    Since k - k0 = (k_eps - k0) + (p-1)*k_bullet and rho_l = (p^l - 1)/(p - 1)
    is -(p-1)^(-1) mod p^l, the level-l residue is (k_eps - k0)*rho_l mod
    p^l.  Level l holds no k != k0 once p^l > |k - k0| for every such k,
    and no distance counts a level past whole, so the table stops at either.
    """
    p, offset = ctx.p, ctx.k_eps - k0
    bound = abs(offset) + (p - 1) * max(kb_max, 0)
    pl = p ** len(levels)
    while len(levels) != whole and pl <= bound:
        pl *= p
        levels.append((pl, offset * ((pl - 1) // (p - 1)) % pl))


def increment_at(ctx: GhostContext, n: int, k0: Optional[int], r: ExtRat = INF) -> int:
    """D times the jump of the k0-omitted valuation from g_n to g_{n+1},
    n >= 0, at radius r with denominator D (1 at INF), by the kernel of a
    fresh evaluator of (k0, r)."""
    return JumpEvaluator(ctx, k0, r)._jumps(n, n + 1)[0]


#: Indices an evaluator adds at least when a read runs past its values.
GROW_STEP = 32


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")


class JumpEvaluator:
    """Valuation profile n -> D * v_p(g_n(w)) at the point w with base
    weight k0 (None for none) and radius r (INF at w_k0 itself), for D the
    denominator of r (1 at INF and at integral r).  Every read is that
    integer; nothing divides by D.

    Keeps one store of integers, D * v_p(g_{n, hat k0}(w)), accumulated
    from v_p(g_0) = 0, and grows it by ``_jumps``.  When D = 1 (r is INF
    or an integer: every classical evaluator and the degree evaluator) the
    store is an ``array('q')`` of machine integers, a quarter of the memory
    of a list of ``int`` objects.  There each stored value is at most
    (1 + log_p of the window's largest |k - k0|) * deg g_n, since m_n(k0)
    * r is added only on reading, so it fits in 64 bits for any index
    whose store fits in memory, and ``array`` raises OverflowError rather
    than wrap.  When D > 1 the denominator comes from the caller's
    radius and is unbounded, so the store stays a list.  The kernel state
    besides the store is O(1): the level table of k0, and three cursors
    (x, P(x)) on the prefix sums

        P(x) = D * sum of min(r, 1 + vp(k - k0)) over the weights k != k0
               with 0 <= k_bullet < x                (0 for x <= 0),

    one per window end, so that the jump at n is P(C) - 2*P(B) + P(A) for
    A = k_min_bullet(n), B = k_mid_bullet(n) + 1 and C = k_max_bullet(n) + 1.
    ``base`` = D * min(r, 1) is the least scaled distance from w to any w_k.
    k0 may be any integer, on or off the ghost zero class; only a k0 >= 2
    on the class is a zero of some coefficients, the g_n with n in
    ``zeros``, and only there does m_n(k0) * ``dr`` enter ``scaled`` and
    ``at``, with ``dr`` = D * r the scaled distance from w to w_k0 (INF at
    w_k0 itself).  A grid worker caches hundreds of evaluators, so they
    are slotted.
    """

    __slots__ = ("ctx", "k0", "_whole", "den", "_rem", "dr", "base", "zeros", "_k0b",
                 "_levels", "_cursors", "_scaled")

    def __init__(self, ctx: GhostContext, k0: Optional[int], r: ExtRat):
        self.ctx = ctx
        self.k0 = k0
        self._whole, self.den, self._rem = _radius_parts(r)
        self.dr = INF if r is INF else self._whole * self.den + self._rem  # D * r
        self.base = self.den if self._whole != 0 else self._rem  # D * min(r, 1)
        self.zeros = range(0)
        self._k0b = -1  # k_bullet of k0 when it lies on the class
        self._levels: Optional[List[Tuple[int, int]]] = None  # (p^l, level-l residue of k0)
        if k0 is not None:
            quot, off_class = divmod(k0 - ctx.k_eps, ctx.p - 1)
            if not off_class:
                self._k0b = quot
            self._levels = []
            if k0 >= 2 and not off_class:
                self.zeros = dims.zero_indices(ctx, quot)
        # (x, P(x)) for A, B and C; they start where P is 0, at or below every end
        self._cursors = [(min(dims.k_min_bullet(ctx, 0), 0), 0)] * 3
        # D * v_p(g_{n, hat k0}(w)): machine integers when D = 1 (see above)
        self._scaled = array("q", [0]) if self.den == 1 else [0]

    def _stretch(self, x0: int, x1: int, initial: int) -> List[int]:
        """[P(x) for x in range(x0, x1 + 1)], given initial = P(x0).

        The distances of the k_bullet in [x0, x1) are one list of the base
        distance ``base``, raised level by level: the k_bullet of level
        l, those with p^l | k - k0, form one residue class modulo p^l, and
        since the classes are nested, every entry of level l already holds
        the same running total, so one strided slice sets them all.
        """
        if x1 < x0:
            raise RuntimeError(f"window end {x1} fell below the cursor at {x0}")
        whole, den, rem = self._whole, self.den, self._rem
        lo = min(max(x0, 0), x1)  # no weight has k_bullet < 0
        total = self.base
        dist = [0] * (lo - x0) + [total] * (x1 - lo)
        levels = self._levels
        if levels is not None:
            _deepen(self.ctx, self.k0, whole, levels, x1 - 1)
            for level, (pl, res) in enumerate(levels, 1):
                first = lo + (res - lo) % pl - x0
                if first >= len(dist):
                    break  # the deeper classes are subsets of this empty one
                total += den if level != whole else rem
                dist[first::pl] = [total] * len(range(first, len(dist), pl))
            if x0 <= self._k0b < x1:
                dist[self._k0b - x0] = 0
        return list(accumulate(dist, initial=initial))

    def _jumps(self, start: int, stop: int) -> List[int]:
        """D times the jumps at n in range(start, stop), moving each cursor
        forward over its new stretch of k_bullet.

        A <= B <= C at every n, since d_ur <= d_iw/2: d_iw is 2n at k_bullet
        B - 1, so d_ur <= n there, and 2n + 2 at B, so d_iw - d_ur > n there.
        Every window end is nondecreasing in n (``dims.jump_windows``), so
        successive calls, each starting at or after the last index of the
        previous one, only move the cursors forward.
        """
        windows = dims.jump_windows(self.ctx, start, stop)
        if not windows:
            return []
        kmin, kmid, kmax = windows[-1]
        (xa, pa), (xb, pb), (xc, pc) = self._cursors
        sa = self._stretch(xa, kmin, pa)
        sb = self._stretch(xb, kmid + 1, pb)
        sc = self._stretch(xc, kmax + 1, pc)
        self._cursors = [(kmin, sa[-1]), (kmid + 1, sb[-1]), (kmax + 1, sc[-1])]
        # offsets fold the + 1 of B and C into the list index
        xb, xc = xb - 1, xc - 1
        return [sc[c - xc] - 2 * sb[b - xb] + sa[a - xa] for a, b, c in windows]

    def grow(self, n: int) -> None:
        """Make the values up to index n available, in one ``_jumps`` call."""
        scaled = self._scaled
        if n < len(scaled):
            return
        steps = self._jumps(len(scaled) - 1, n)
        # the list restarts from its last total, which accumulate re-emits
        scaled.extend(accumulate(steps, initial=scaled.pop()))

    def omitted(self, n: int) -> int:
        """D * v_p(g_{n, hat k0}(w)), always finite."""
        if n >= len(self._scaled):
            # readers that step one index at a time (certification) then pay
            # one ``_jumps`` call per GROW_STEP indices
            self.grow(max(n, len(self._scaled) - 1 + GROW_STEP))
        elif n < 0:
            _check_index(n)
        return self._scaled[n]

    def at(self, n: int) -> ExtRat:
        """D * v_p(g_n(w)) at the one index n, as ``scaled(n, n + 1)[0]``
        but without a list: ``omitted(n)`` plus m_n(k0) * D * r."""
        y = self.omitted(n)
        if n in self.zeros:
            return y + _multiplicity(n, self.zeros) * self.dr
        return y

    def scaled(self, start: int, stop: int) -> List[ExtRat]:
        """D * v_p(g_n(w)) for n in range(start, stop), read in bulk: an
        ``int`` each, or INF where w = w_k0 is a zero, in a new list."""
        _check_index(start)
        self.grow(stop - 1)
        out = self._scaled[start:stop]
        if self.den == 1:
            out = out.tolist()
        zeros, dr = self.zeros, self.dr
        for n in range(max(start, zeros.start), min(stop, zeros.stop)):
            out[n - start] = INF if dr is INF else out[n - start] + _multiplicity(n, zeros) * dr
        return out


@context_cache(maxsize=512)
def classical_evaluator(ctx: GhostContext, k0: int) -> JumpEvaluator:
    return JumpEvaluator(ctx, k0, INF)


@context_cache(maxsize=512)
def _point_evaluator(ctx: GhostContext, k0: Optional[int], r: ExtRat) -> JumpEvaluator:
    return JumpEvaluator(ctx, k0, r)


def evaluator(ctx: GhostContext, w: WeightPoint) -> JumpEvaluator:
    """The jump evaluator at w, whose ``scaled`` reads D * v_p(g_n(w)).

    Evaluators are cached per point, so a caller that re-evaluates a point
    (a Newton polygon retried with a doubled buffer) extends the same
    profile.
    """
    if w.r is INF:
        return classical_evaluator(ctx, w.k0)
    return _point_evaluator(ctx, w.k0, w.r)


def degree_evaluator(ctx: GhostContext) -> JumpEvaluator:
    """The evaluator at a point at distance 1 from every w_k (no base
    weight, so nothing is omitted, and D = 1): its ``omitted(n)`` is deg g_n."""
    return _point_evaluator(ctx, None, 1)


def degree_fast(ctx: GhostContext, n: int) -> int:
    """deg g_n from ``degree_evaluator``.

    Agrees with degree() everywhere (cross-checked in the test suite).
    """
    return degree_evaluator(ctx).omitted(n)
