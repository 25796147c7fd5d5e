"""Parameter record for one residual datum and the valuation model of weights.

A ``GhostContext`` packages the prime p, the niveau parameter a, and the
disk selector s_eps, together with every derived constant the closed
formulas need (k_eps, delta_eps, t1, t2, and the parity pair beta_even /
beta_odd).  The reducible datum is normalised so that its second diagonal
exponent is 0 and the central element acts trivially; callers needing the
twisted variants apply the determinant twist externally.

Points of the open weight disk are modelled purely by their distance
profile to the classical points w_k: every downstream quantity depends
only on vp(w - w_k), never on p-adic digits.  Every point has a base
weight ``k0`` (``None`` for none) and a radius ``r``, and its profile is
the one rule of ``vp_point_to_weight``: r at k = k0 and with no base
weight, min(r, 1 + vp(k0 - k)) elsewhere.  The three shapes differ only
in those two attributes:

* ``Classical(k)``      -- the point w_k itself: k0 = k, r = INF;
* ``Perturbed(k0, r)``  -- a generic point at exact distance r from w_k0;
* ``Boundary(t)``       -- a point of valuation t in (0, 1): no base
  weight and r = t, since vp(w_k) >= 1 > t collapses every distance to t.

For a ``Perturbed`` point the profile is the generic one even when r ties
with the classical distance; non-generic loci are expressed by re-basing
the perturbation at another classical weight.

The module also owns every cache keyed by a context (``context_cache``),
so that one call, ``clear_context_caches``, releases them all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, List, Union

from .valuation import INF, ExtRat, is_prime, vp_int


class _Record:
    """Base of the engine's records: a subclass's fields are its own
    annotations, given to ``__init__`` in order; equality, hash and ``repr``
    go by type and fields, and the fields are read-only."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        get = attrgetter(*cls._fields)  # a bare value, not a 1-tuple, for one field
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda rec: (get(rec),))

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through __init__, not __setattr__
        return type(self), self._values(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen record")

    __delattr__ = __setattr__


class GhostContext(_Record):
    __slots__ = ("p", "a", "s_eps", "k_eps", "delta_eps", "t1", "t2", "beta_even", "beta_odd")
    p: int
    a: int
    s_eps: int
    k_eps: int
    delta_eps: int
    t1: int
    t2: int
    beta_even: int
    beta_odd: int

    def res(self, m: int) -> int:
        """Representative of m modulo p-1 inside [0, p-2]."""
        return m % (self.p - 1)

    def beta(self, n: int) -> int:
        """Parity constant used by the extremal-weight formulas."""
        return self.beta_even if n % 2 == 0 else self.beta_odd

    def on_disk(self, k: int) -> bool:
        return (k - self.k_eps) % (self.p - 1) == 0

    def bullet(self, k: int) -> int:
        """Index k_bullet with k = k_eps + (p-1)*k_bullet."""
        q, r = divmod(k - self.k_eps, self.p - 1)
        if r:
            raise ValueError(
                f"k = {k} is not congruent to k_eps = {self.k_eps} mod {self.p - 1}"
            )
        return q

    def weight_of_bullet(self, k_bullet: int) -> int:
        return self.k_eps + (self.p - 1) * k_bullet


#: The caches made by ``context_cache``, in definition order.
_CONTEXT_CACHES: List[Callable] = []


def context_cache(maxsize: int):
    """``functools.lru_cache(maxsize)`` for a function keyed by a context.

    The wrapper is recorded, so ``clear_context_caches`` empties it even
    where a module attribute has since been rebound to another function.
    """

    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        _CONTEXT_CACHES.append(cached)
        return cached

    return decorate


def clear_context_caches() -> None:
    """Empty every ``context_cache``: the evaluators, profiles, polygons and
    window tables of every context seen so far, with their hit counts."""
    for cached in _CONTEXT_CACHES:
        cached.cache_clear()


def check_p(p: int) -> None:
    """Raise ValueError unless p is a prime >= 5."""
    if not is_prime(p) or p < 5:
        raise ValueError(f"p must be a prime >= 5, got p = {p}")


def new_context(p: int, a: int, s_eps: int) -> GhostContext:
    """Validate (p, a, s_eps) and compute every derived constant.

    Requires p prime >= 5, 1 <= a <= p-4 (genericity), 0 <= s_eps <= p-2.
    """
    check_p(p)
    if not 1 <= a <= p - 4:
        raise ValueError(f"a must satisfy 1 <= a <= p-4 = {p - 4}, got a = {a}")
    if not 0 <= s_eps <= p - 2:
        raise ValueError(f"s_eps must satisfy 0 <= s_eps <= p-2 = {p - 2}, got {s_eps}")

    res = lambda m: m % (p - 1)
    k_eps = 2 + res(a + 2 * s_eps)
    delta_eps = (s_eps + res(a + s_eps)) // (p - 1)
    if a + s_eps < p - 1:
        t1 = s_eps + delta_eps
        t2 = a + s_eps + delta_eps + 2
    else:
        t1 = res(a + s_eps) + delta_eps + 1
        t2 = s_eps + delta_eps + 1
    beta_even = t1
    beta_odd = t2 - (p + 1) // 2

    ctx = GhostContext(p, a, s_eps, k_eps, delta_eps, t1, t2, beta_even, beta_odd)
    # consistency of the derived constants
    if not 2 <= k_eps <= p:
        raise RuntimeError(f"k_eps = {k_eps} outside [2, {p}] for {ctx}")
    if (p - 1) * delta_eps + res(a + 2 * s_eps) != s_eps + res(a + s_eps):
        raise RuntimeError(f"delta_eps = {delta_eps} inconsistent for {ctx}")
    return ctx


class Classical(_Record):
    __slots__ = ("k",)
    k: int
    r = INF

    @property
    def k0(self) -> int:
        return self.k


class Perturbed(_Record):
    __slots__ = ("k0", "r")
    k0: int
    r: Fraction

    def __init__(self, k0: int, r: Fraction):
        super().__init__(k0, Fraction(r))
        if self.r <= 0:
            raise ValueError(f"perturbation radius must be positive, got {self.r}")


class Boundary(_Record):
    __slots__ = ("t",)
    t: Fraction
    k0 = None

    def __init__(self, t: Fraction):
        super().__init__(Fraction(t))
        if not 0 < self.t < 1:
            raise ValueError(f"boundary valuation must lie in (0,1), got {self.t}")

    @property
    def r(self) -> Fraction:
        return self.t


WeightPoint = Union[Classical, Perturbed, Boundary]


def vp_between_weights(ctx: GhostContext, k1: int, k2: int) -> ExtRat:
    """vp(w_k1 - w_k2) = 1 + vp(k1 - k2); INF when the weights coincide."""
    if k1 == k2:
        return INF
    return 1 + vp_int(k1 - k2, ctx.p)


def vp_point_to_weight(ctx: GhostContext, w: WeightPoint, k: int) -> ExtRat:
    """Distance profile vp(w - w_k) of a point at the classical weight k."""
    k0, r = w.k0, w.r
    if k0 is None or k0 == k:
        return r
    return min(r, 1 + vp_int(k0 - k, ctx.p))


def format_rational(x: ExtRat) -> str:
    """Render an extended rational as 'num/den' (or 'inf'), never a float."""
    if x is INF:
        return "inf"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_point(w: WeightPoint) -> str:
    if isinstance(w, Classical):
        return f"classical:{w.k}"
    if isinstance(w, Perturbed):
        return f"perturbed:{w.k0}:{w.r.numerator}/{w.r.denominator}"
    if isinstance(w, Boundary):
        return f"boundary:{w.t.numerator}/{w.t.denominator}"
    raise TypeError(f"not a weight point: {w!r}")


def parse_point(text: str) -> WeightPoint:
    """Parse 'classical:K', 'perturbed:K0:NUM/DEN', or 'boundary:NUM/DEN'."""
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        if kind == "classical" and len(parts) == 2:
            return Classical(int(parts[1]))
        if kind == "perturbed" and len(parts) == 3:
            return Perturbed(int(parts[1]), parse_rational(parts[2]))
        if kind == "boundary" and len(parts) == 2:
            return Boundary(parse_rational(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad weight point {text!r}: {exc}") from exc
    raise ValueError(f"bad weight point {text!r}")
