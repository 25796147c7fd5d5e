"""Exact p-adic valuation arithmetic, extended by +infinity.

All quantities downstream (Newton polygons, duality profiles, slope
identities) are built out of valuations of integers and rationals, so this
layer works purely with arbitrary-precision integers and ``Fraction``,
never floats.  The distinguished element ``INF`` represents the valuation
of zero and is absorbing for addition and maximal for every comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union


class PlusInfinity:
    """The element +inf: absorbing under addition, larger than any rational.

    A single shared instance ``INF`` is used everywhere; multiplication is
    only defined by positive integers (multiplicities of zero factors).
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, PlusInfinity) or other > 0:
            return self
        raise ValueError("inf may only be scaled by a positive factor")

    __rmul__ = __mul__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("PlusInfinity")


INF = PlusInfinity()

#: Extended rational: an exact rational (int or Fraction) or +infinity.
ExtRat = Union[int, Fraction, PlusInfinity]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: The least strong pseudoprime to every base of ``_SMALL_PRIMES``,
#: 1287836182261 * 2575672364521; below it those bases decide primality.
PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below ``PROVEN_BELOW``;
    raises ValueError at and past it, where the answer is not proven."""
    if n >= PROVEN_BELOW:
        raise ValueError(f"primality is decided only below {PROVEN_BELOW}, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _SMALL_PRIMES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _check_prime(p: int) -> None:
    """Raise unless p is prime.  A prime is tested once; a non-prime raises
    on every call, since ``lru_cache`` keeps no call that raised."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def vp_int(m: int, p: int) -> ExtRat:
    """Largest e with p^e | m, or INF for m = 0."""
    _check_prime(p)
    if m == 0:
        return INF
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def digit_sum(m: int, p: int) -> int:
    """Sum of the base-p digits of m >= 0."""
    _check_prime(p)
    if m < 0:
        raise ValueError(f"digit_sum requires m >= 0, got {m}")
    total = 0
    while m:
        m, r = divmod(m, p)
        total += r
    return total


def vp_factorial(m: int, p: int) -> int:
    """vp(m!) by Legendre's formula (m - digit_sum(m)) / (p - 1); 0 for m <= 0.

    So the sum of vp(i) over m1 < i <= m2 is vp_factorial(m2) - vp_factorial(m1).
    """
    if m <= 0:
        return 0
    return (m - digit_sum(m, p)) // (p - 1)


def sum_vp_arith_prog(lo: int, hi: int, step: int, offset: int, p: int) -> int:
    """Sum of vp(offset + step*x) over integers x in [lo, hi].

    Requires p not dividing step and offset + step*x != 0 on the range.
    Counts, for each power p^j, the solutions of the congruence
    offset + step*x = 0 (mod p^j) inside [lo, hi].
    """
    if lo > hi:
        return 0
    if step % p == 0:
        raise ValueError("step must be prime to p")
    bound = max(abs(offset + step * lo), abs(offset + step * hi))
    total = 0
    pj = p
    # solution sets mod p^j are nested, so the first empty level ends the sum
    while pj <= bound:
        r = (-offset * pow(step, -1, pj)) % pj
        cnt = (hi - r) // pj - (lo - 1 - r) // pj
        if cnt <= 0:
            break
        total += cnt
        pj *= p
    return total


def max_vp_interval(lo: int, hi: int, p: int) -> ExtRat:
    """Largest vp(x) over integers x in [lo, hi] (INF if 0 lies inside)."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return INF
    if hi < 0:
        lo, hi = -hi, -lo
    best = 0
    pj = p
    while pj <= hi:
        if hi // pj >= (lo + pj - 1) // pj:
            best += 1
            pj *= p
        else:
            break
    return best


def ilog(base: int, x: int) -> int:
    """floor(log_base(x)) for x >= 1, by exact integer comparisons."""
    if x < 1:
        raise ValueError("ilog requires x >= 1")
    e = 0
    power = base
    while power <= x:
        e += 1
        power *= base
    return e
