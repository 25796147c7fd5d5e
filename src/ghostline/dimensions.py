"""Dimension formulas for abstract form spaces, and their brute-force oracles.

Three ranks drive the whole combinatorics:

* ``d_iw(k)``  -- Iwahori-level classical forms, defined for every k >= 2
  via two floor terms; on the distinguished residue class it collapses to
  the even value 2*k_bullet + 2 - 2*delta_eps.
* ``d_ur(k)``  -- full-level forms, defined on the residue class
  k = k_eps mod (p-1) by floors in k_bullet against the thresholds t1, t2.
* ``d_new(k)`` -- the p-new complement d_iw - 2*d_ur, always even and >= 0.

The extremal-weight functions invert these step functions: k_mid_bullet(n)
is the unique index with n = d_iw/2, k_max_bullet(n) the largest with
d_ur <= n, and k_min_bullet(n) the smallest with d_iw - d_ur > n.  w_k is a
zero of the n-th ghost coefficient exactly when d_ur(k) < n < d_iw(k) -
d_ur(k); ``zero_indices`` (the n of one k) and ``zero_window`` (the k of
some n) are the only statements of that relation.

The jump windows of index n, the three ends (k_min_bullet(n),
k_mid_bullet(n), k_max_bullet(n)) that every jump evaluator reads, come
from ``jump_windows``, which tabulates the outer two once per context.
Every evaluator grows through that table, so it is where the engine's one
size limit sits: the table never spans more than ``MAX_WEIGHTS`` weights.

Two independent oracles guard the closed forms: a power-basis count for
d_iw, and a Jordan-Holder recursion in the Grothendieck group of
GL_2(F_p)-representations for d_ur.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

from .weight_space import GhostContext, context_cache

#: The most weights a window table may span: the k_bullet <= k_max_bullet(n)
#: for its last index n, about (p + 1)/2 weights per index.  Every jump
#: evaluator grows through that table, so no profile or polygon of ``np``,
#: ``delta``, ``ns`` or ``verify`` reads past it; ``cli`` counts the
#: weights of ``ghost`` and ``dims`` against it up front.  Peak
#: memory per weight (Python 3.11, ru_maxrss of a fresh process less its
#: 15 MB at start): dims 600 bytes, ghost 475, delta 290 at p = 5 and 35
#: at p = 1000003, np 190 at p = 5 (297 MB over 1.56e6 weights, most of
#: it transient lists of its window) and 52 at p = 1009.  So a dims request
#: at the limit peaks near 1 GB, and every other one below that.
MAX_WEIGHTS = 1_600_000


def d_iw(ctx: GhostContext, k: int) -> int:
    """Iwahori-level rank at weight k >= 2 (any residue class)."""
    if k < 2:
        raise ValueError(f"d_iw requires k >= 2, got k = {k}")
    p = ctx.p
    return (k - 2 - ctx.s_eps) // (p - 1) + (k - 2 - ctx.res(ctx.a + ctx.s_eps)) // (p - 1) + 2


def d_iw_of_bullet(ctx: GhostContext, k_bullet: int) -> int:
    """On-class shortcut 2*k_bullet + 2 - 2*delta_eps."""
    return 2 * k_bullet + 2 - 2 * ctx.delta_eps


def d_ur_of_bullet(ctx: GhostContext, k_bullet: int) -> int:
    val = (k_bullet - ctx.t1) // (ctx.p + 1) + (k_bullet - ctx.t2) // (ctx.p + 1) + 2
    if val < 0:
        raise ValueError(f"negative d_ur at k_bullet = {k_bullet}")
    return val


def d_ur(ctx: GhostContext, k: int) -> int:
    """Full-level rank; requires k >= 2 with k = k_eps mod (p-1)."""
    if k < 2:
        raise ValueError(f"d_ur requires k >= 2, got k = {k}")
    return d_ur_of_bullet(ctx, ctx.bullet(k))


def d_new(ctx: GhostContext, k: int) -> int:
    val = d_iw(ctx, k) - 2 * d_ur(ctx, k)
    if val < 0 or val % 2:
        raise RuntimeError(f"d_new = {val} at k = {k} is not even and >= 0")
    return val


def k_mid_bullet(ctx: GhostContext, n: int) -> int:
    """The unique k_bullet with n = d_iw/2 on the class."""
    return n + ctx.delta_eps - 1


def k_max_bullet(ctx: GhostContext, n: int) -> int:
    """Largest k_bullet with d_ur <= n (may be negative when none exists)."""
    return (ctx.p + 1) // 2 * n + ctx.beta(n) - 1


def k_min_tilde_bullet(ctx: GhostContext, n: int) -> int:
    """Undivided threshold whose ceiling by p is k_min_bullet(n)."""
    return (ctx.p + 1) // 2 * (n - 1 + 2 * ctx.delta_eps) - ctx.beta(n - 1) + 1


def k_min_bullet(ctx: GhostContext, n: int) -> int:
    """Smallest k_bullet with d_iw - d_ur > n: the ceiling of
    k_min_tilde_bullet(n) / p."""
    return -((-k_min_tilde_bullet(ctx, n)) // ctx.p)


def zero_indices(ctx: GhostContext, k_bullet: int) -> range:
    """The n with d_ur < n < d_iw - d_ur at k_bullet, i.e. the indices of
    the ghost coefficients that vanish at w_k (empty when d_new <= 1)."""
    du = d_ur_of_bullet(ctx, k_bullet)
    return range(du + 1, d_iw_of_bullet(ctx, k_bullet) - du)


def zero_window(ctx: GhostContext, n: int, last: Optional[int] = None) -> range:
    """The k_bullet >= 0 with d_ur < n < d_iw - d_ur, i.e. the weights whose
    points w_k are the zeros of the n-th ghost coefficient; with ``last`` >=
    n, the span of the zeros of g_n, ..., g_last.  Both ends of the window
    never decrease in n, so a weight in the span that is a zero of none of
    them is a zero of no coefficient at all (d_new <= 1)."""
    last = n if last is None else last
    return range(max(k_min_bullet(ctx, n), 0), k_max_bullet(ctx, last - 1) + 1)


@context_cache(maxsize=32)
def _window_table(ctx: GhostContext) -> Tuple[array, array]:
    return array("q"), array("q")  # k_min_bullet(n), k_max_bullet(n) by n


def jump_windows(ctx: GhostContext, start: int, stop: int) -> List[Tuple[int, int, int]]:
    """(k_min_bullet(n), k_mid_bullet(n), k_max_bullet(n)) for n in
    range(start, stop), start >= 0.

    The outer ends are tabulated per context, for the 32 most recent
    contexts, in two columns of machine integers that grow in place to the
    largest ``stop`` asked for, so the jump evaluators of one context share
    them; k_mid_bullet(n) = n + delta_eps - 1 is not stored.  A growth that
    would span more than ``MAX_WEIGHTS`` weights raises ValueError before
    anything changes, so a caller's cursors and stores stay as they were.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    kmins, kmaxs = _window_table(ctx)
    if stop > len(kmaxs):
        weights = k_max_bullet(ctx, stop - 1) + 1
        if weights > MAX_WEIGHTS:
            raise ValueError(f"reading index {stop - 1} would span {weights} weights, "
                             f"past the limit of {MAX_WEIGHTS}")
    # each column grows from its own length, so a growth that a MemoryError
    # cut short leaves both columns right
    kmins.extend(k_min_bullet(ctx, n) for n in range(len(kmins), stop))
    kmaxs.extend(k_max_bullet(ctx, n) for n in range(len(kmaxs), stop))
    mid = ctx.delta_eps - 1
    return list(zip(kmins[start:stop], range(start + mid, stop + mid), kmaxs[start:stop]))


def power_basis_degrees(ctx: GhostContext) -> Iterator[int]:
    """Strictly increasing degrees of the power basis elements e_1, e_2, ...

    Merges the two arithmetic progressions s_eps + j(p-1) and
    {a+s_eps} + j(p-1); genericity of a keeps them disjoint.
    """
    d1, d2 = ctx.s_eps, ctx.res(ctx.a + ctx.s_eps)
    lo, hi = min(d1, d2), max(d1, d2)
    j = 0
    while True:
        yield lo + j * (ctx.p - 1)
        yield hi + j * (ctx.p - 1)
        j += 1


def d_iw_power_basis_oracle(ctx: GhostContext, k: int) -> int:
    """Count power-basis elements of degree <= k-2 by direct enumeration."""
    if k < 2:
        raise ValueError(f"power basis count requires k >= 2, got k = {k}")
    count = 0
    for deg in power_basis_degrees(ctx):
        if deg > k - 2:
            break
        count += 1
    return count


def d_ur_jh_oracle(ctx: GhostContext, k: int) -> int:
    """Multiplicity of the Serre weight (a, s_eps) inside Sym^(k-2).

    Iterates the Grothendieck-group identity
        [sigma_{m,b}] = [sigma_{m-(p+1), b+1}]
                        + [sigma_{{m}, b}] + [sigma_{p-1-{m}, {m}+b}]
    down from (k-2, 0) until the first entry drops below p+1, counting the
    split-off irreducibles equal to sigma_{a, s_eps}, then resolves the
    remainder sigma_{r, s} with r in [0, p]: it contributes precisely when
    s = s_eps and r = a mod (p-1) (which covers a = 1 with r = p, where the
    extra factor comes from the Frobenius-untwisted line in Sym^p).
    """
    if k < 2:
        raise ValueError(f"jh oracle requires k >= 2, got k = {k}")
    p, a, target_s = ctx.p, ctx.a, ctx.s_eps
    m, b = k - 2, 0
    count = 0
    while m >= p + 1:
        mm = m % (p - 1)
        # split-off factors sigma_{mm, b} and sigma_{p-1-mm, mm+b}
        if mm == a and b % (p - 1) == target_s:
            count += 1
        if p - 1 - mm == a and (mm + b) % (p - 1) == target_s:
            count += 1
        m -= p + 1
        b += 1
    if b % (p - 1) == target_s and m % (p - 1) == a % (p - 1) and 0 <= m <= p:
        count += 1
    return count
