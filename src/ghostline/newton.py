"""Exact lower convex hulls and certified Newton polygons of ghost series.

Hull arithmetic is exact and cross-multiplied on the values as given:
integer profiles stay ``int``, and a ghost profile is one at every point
(D * v_p, see ``np_of_ghost``); points at +infinity are skipped.
Vertices are strict: collinear interior points are not vertices, so a
straight stretch has vertices only at its ends.  A polygon is stored as
its vertices alone, and no slope is ever stored: ``slope_at`` reads one
slope off the two vertices that bracket it, and ``segments`` and
``NewtonPolygon.slopes`` walk the vertices each time they are asked; no
reader builds a list of slopes per unit of width.  A grid worker keeps
hundreds of polygons at once, so the vertices are kept as two columns of
machine integers where they fit: the x-values in an ``array('q')``, and
the y-values in another whenever every one is an ``int`` that fits in 64
bits (every D = 1 polygon, so every classical one), else in a tuple
(``Fraction`` values, or the integers of a huge D).  That is the split
the jump evaluator's store makes: two 8-byte slots per vertex, where a
tuple of two ``int`` objects takes about 115 bytes.  Polygons are shared
through the per-context caches, so each array is kept behind a read-only
``memoryview``: a write raises TypeError instead of corrupting every
later reader.  The readers bisect the x column and index both; they alone
know that layout, and a duality profile's hull is read by them too.

A ghost Newton polygon is an infinite object, so a finite computation must
certify its prefix.  The certificate rests on two facts: every factor of a
coefficient contributes at least c = min(vp(w), 1) to its valuation at w,
so v_p(g_m(w)) >= c * deg(g_m); and the degree increments deg g_{m+1} -
deg g_m are strictly increasing, so that lower bound eventually outgrows
any fixed line.  A vertex X of the windowed hull is *certified* once every
point beyond the window provably stays strictly above the extension of the
hull segment ending at X; then the hull, its vertex set, and its slopes
are final up to X.  One rule serves every kind of point: past the window,
each point is compared by its exact value until the floor overtakes the
line for good.  (The floor alone would certify a point of radius r > 1
only from a buffer about as long as n_max.)
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import ghost_series as ghost
from .valuation import INF, ExtRat
from .weight_space import GhostContext, WeightPoint, _Record, format_rational


def segments(
    vertices: Iterable[Tuple[int, ExtRat]], start: Optional[int] = None
) -> Iterator[Tuple[Fraction, int]]:
    """(slope, width) of each segment of the polyline through ``vertices``
    (sorted by x), left to right; with ``start``, only the part right of x =
    ``start`` counts, so the segment that contains it is cut there."""
    it = iter(vertices)
    x0, y0 = next(it)
    start = x0 if start is None else start
    for x1, y1 in it:
        if x1 > start:
            yield Fraction(y1 - y0, x1 - x0), x1 - max(x0, start)
        x0, y0 = x1, y1


class NewtonPolygon(_Record):
    """A lower hull, or a certified polygon prefix, by its strict vertices
    (y as given to the hull) in two read-only columns, ``xs`` and ``ys``;
    it is final up to its last vertex.  ``__init__`` takes any two
    sequences and stores them in the module's layout, so equal vertices
    give equal records; hash and pickle go by the columns' values, since a
    memoryview has neither."""

    __slots__ = ("xs", "ys")
    xs: memoryview
    ys: Union[memoryview, Tuple[Union[int, Fraction], ...]]

    def __init__(self, xs: Sequence[int], ys: Sequence[Union[int, Fraction]]):
        try:
            ys = memoryview(array("q", ys)).toreadonly()
        except (TypeError, OverflowError):  # a Fraction, or past 64 bits
            ys = tuple(ys)
        super().__init__(memoryview(array("q", xs)).toreadonly(), ys)

    def __hash__(self):
        return hash((tuple(self.xs), tuple(self.ys)))

    def __reduce__(self):
        return type(self), (tuple(self.xs), tuple(self.ys))

    def __repr__(self):  # a view's own repr shows no values, so show its array's
        xs, ys = (c.obj if type(c) is memoryview else c for c in (self.xs, self.ys))
        return f"NewtonPolygon(xs={xs!r}, ys={ys!r})"

    @property
    def vertices(self) -> Tuple[Tuple[int, Union[int, Fraction]], ...]:
        """The (x, y) pairs, built anew on each read; the readers in this
        module index the two columns instead."""
        return tuple(zip(self.xs, self.ys))

    @property
    def certified_upto(self) -> int:
        return self.xs[-1]

    @property
    def slopes(self) -> Tuple[Tuple[Fraction, int], ...]:
        """(slope, width) per segment, walked off the vertices."""
        return tuple(segments(zip(self.xs, self.ys)))

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[x, format_rational(y)] for x, y in zip(self.xs, self.ys)],
            "slopes": [[format_rational(s), w] for s, w in self.slopes],
            "certified_upto": self.certified_upto,
        }


def _hull_vertices(points: Sequence[Tuple[int, ExtRat]]) -> List[Tuple[int, ExtRat]]:
    # monotone chain, lower hull only; input sorted by x, strict vertices
    hull: List[Tuple[int, ExtRat]] = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # pop the middle point unless it turns strictly downward
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def lower_convex_hull(points: Sequence[Tuple[int, ExtRat]]) -> NewtonPolygon:
    """Lower hull of integer-indexed extended-rational points.

    Finite y-values are kept as given (``int`` or ``Fraction``); points
    with y = +inf are skipped; the x-values must be distinct and at
    least one y must be finite.
    """
    finite = [(x, y) for x, y in points if y is not INF]
    if not finite:
        raise ValueError("need at least one finite point")
    finite.sort()
    if any(a[0] == b[0] for a, b in zip(finite, finite[1:])):
        raise ValueError("x-values must be distinct")
    return NewtonPolygon(*zip(*_hull_vertices(finite)))


def _future_safe(
    ev: ghost.JumpEvaluator,
    vx: int,
    vy: int,
    dy: int,
    dx: int,
    window_end: int,
) -> bool:
    """Check that every point beyond the window lies strictly above the
    line through (vx, vy) with the incoming slope dy / dx (dx > 0), all in
    the units 1/D of the evaluator ``ev``.

    The generic floor c * deg(g_m), with c = min(r, 1) the least distance
    from the point to any w_k (``ev.base`` in units of 1/D), eventually
    outgrows any line, since the degree increments strictly increase.
    Until it does, each point is compared by its exact value ``ev.at(m)``,
    which the jump evaluator supplies in constant time per index at every
    kind of point; at a zero of g_m (w = w_k0) that value is INF, which no
    line reaches.

    The loop needs no step cap: the floor's increments c * (deg g_{m+1} -
    deg g_m) grow without bound while the line rises by a fixed step, so
    the floor passes the line at some m and rises at least as fast from
    there on, unless a point on or below the line stops the loop first.
    On average the exact values grow c' = p/(p - 1) times as fast as the
    floor (the mean of min(r, 1 + vp(k - k0)) over the weights k), so for
    a line that meets them near the window end W the floor, which grows
    like the square of m, passes it near m = (c' + sqrt(c'^2 - c')) * W:
    the scan reads about (1 + sqrt(p)) / (p - 1) * W indices past the
    window, 0.81 * W at p = 5 and 0.03 * W at p = 1009.  Its reads go
    through the window table like every other, so ``dims.MAX_WEIGHTS``
    bounds them.

    Line, floor and exact values are all scaled by dx, so the loop compares
    integers.
    """
    degree = ghost.degree_evaluator(ev.ctx).omitted
    floor = ev.base * dx  # dx times the floor per unit of degree
    m = window_end + 1
    line = vy * dx + dy * (m - vx)  # dx times the line at m
    while True:
        deg = degree(m)
        if floor * deg > line:
            inc = degree(m + 1) - deg
            if floor * inc >= dy:
                # the floor now rises at least as fast as the line, forever
                return True
        elif ev.at(m) * dx <= line:
            return False
        m += 1
        line += dy


def np_of_ghost(
    ctx: GhostContext,
    w: WeightPoint,
    n_max: int,
    buffer: int,
) -> Optional[NewtonPolygon]:
    """Certified Newton polygon prefix of the ghost series at the point w.

    Hull of (n, v_p(g_n(w))) over the window n in [0, n_max + buffer],
    with the values read in bulk from the jump evaluator of w (O(1)
    amortised per index at every kind of point) as the integers D * v_p,
    for D the denominator of the radius; certified_upto is the largest
    windowed vertex whose trailing segment no future point can undercut,
    by the exact values past the window at every kind of point
    (``_future_safe``).  Hull and certificate compare those integers, and
    only the returned vertices are divided by D.  Returns None when no
    vertex at or past n_max certifies (``np_of_ghost_auto`` retries with a
    doubled buffer, which extends the same cached evaluator).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if buffer < 0:
        raise ValueError(f"buffer must be >= 0, got {buffer}")
    window_end = n_max + buffer

    ev = ghost.evaluator(ctx, w)
    hull = lower_convex_hull(list(enumerate(ev.scaled(0, window_end + 1))))
    xs, ys = hull.xs, hull.ys
    # vertex 0 is (0, 0), since g_0 = 1, so the loop stops before i = 0
    for i in range(len(xs) - 1, -1, -1):
        vx, vy = xs[i], ys[i]
        if vx < n_max:
            return None  # nothing below n_max can satisfy the caller
        if _future_safe(ev, vx, vy, vy - ys[i - 1], vx - xs[i - 1], window_end):
            # report only the final prefix: the vertices up to the
            # certified one survive any extension of the window
            ys = ys[: i + 1] if ev.den == 1 else [Fraction(y, ev.den) for y in ys[: i + 1]]
            return NewtonPolygon(xs[: i + 1], ys)


def np_of_ghost_auto(ctx: GhostContext, w: WeightPoint, n_max: int) -> Tuple[NewtonPolygon, int]:
    """np_of_ghost over the buffers 2p + 8, 4p + 16, ... in turn; returns
    (polygon, buffer) for the first that certifies n_max, that is, the
    first that does not return None.

    The loop ends: ghost valuations grow quadratically in n, so the polygon
    has infinitely many vertices, among them one X >= n_max, and once the
    window reaches X that vertex certifies.  A request whose windows would
    span more weights than ``dims.MAX_WEIGHTS`` before then stops with the
    window table's ValueError; each retry extends the same cached
    evaluator, so the doublings cost at most twice the last window.
    """
    buffer = 2 * ctx.p + 8
    while (np_ := np_of_ghost(ctx, w, n_max, buffer)) is None:
        buffer *= 2
    return np_, buffer


def is_vertex(np: NewtonPolygon, n: int) -> bool:
    """Whether x = n is a vertex; n must lie in the certified range."""
    if n > np.certified_upto:
        raise ValueError(f"x = {n} is beyond certified_upto = {np.certified_upto}")
    xs = np.xs
    return xs[bisect_left(xs, n)] == n  # the first vertex with x >= n


def value_at(np: NewtonPolygon, x: int) -> Union[int, Fraction]:
    """The polygon's value at x, between its first and last vertex: the
    vertex's own y at a vertex, else the value on the segment over x."""
    xs, ys = np.xs, np.ys
    if not xs[0] <= x <= xs[-1]:
        raise ValueError(f"x = {x} is outside the polygon's span [{xs[0]}, {xs[-1]}]")
    j = bisect_left(xs, x)  # the first vertex with x-value >= x
    if xs[j] == x:
        return ys[j]
    x0, y0 = xs[j - 1], ys[j - 1]
    return y0 + Fraction(ys[j] - y0, xs[j] - x0) * (x - x0)


def segments_from(np: NewtonPolygon, start: int) -> Iterator[Tuple[Fraction, int]]:
    """``segments`` of the polygon right of x = ``start``, the segment that
    contains it cut there; one bisection skips the segments left of it."""
    xs, ys = np.xs, np.ys
    i = max(bisect_right(xs, start) - 1, 0)  # the last vertex with x-value <= start
    return segments(zip(xs[i:], ys[i:]), start)


def slope_at(np: NewtonPolygon, i: int) -> Fraction:
    """The i-th slope (1-indexed, counted with multiplicity = width)."""
    xs, ys = np.xs, np.ys
    if i < 1:
        raise ValueError(f"slope index must be >= 1, got {i}")
    if i > xs[-1]:
        raise ValueError(f"slope {i} is beyond certified_upto = {xs[-1]}")
    if i <= xs[0]:
        raise ValueError(f"slope {i} precedes the first hull point x = {xs[0]}")
    # the segment over [i - 1, i] ends at the first vertex with x >= i
    j = bisect_left(xs, i)
    return Fraction(ys[j] - ys[j - 1], xs[j] - xs[j - 1])

