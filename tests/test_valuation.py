from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghostline import valuation
from ghostline.valuation import (
    INF,
    digit_sum,
    ilog,
    is_prime,
    max_vp_interval,
    sum_vp_arith_prog,
    vp_factorial,
    vp_int,
)

PRIMES = (5, 7, 11, 13)


def brute_vp(m, p):
    if m == 0:
        return INF
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


class TestVpInt:
    def test_examples(self):
        assert vp_int(49, 7) == 2
        assert vp_int(1, 7) == 0
        assert vp_int(0, 7) is INF

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            vp_int(10, 6)

    def test_composite_rejected_on_every_call(self):
        # the prime check is memoized, but a raising call is never cached
        for _ in range(3):
            with pytest.raises(ValueError, match="p = 9 is not prime"):
                vp_int(27, 9)
            with pytest.raises(ValueError, match="p = 1 is not prime"):
                digit_sum(3, 1)

    def test_prime_check_is_memoized(self, monkeypatch):
        valuation._check_prime.cache_clear()
        calls = []
        real = valuation.is_prime
        monkeypatch.setattr(valuation, "is_prime", lambda n: calls.append(n) or real(n))
        for m in range(1, 50):
            vp_int(m, 7)
        assert calls == [7]
        assert valuation._check_prime.cache_info().maxsize is not None

    @given(st.integers(-(10**12), 10**12), st.sampled_from(PRIMES))
    def test_matches_brute(self, m, p):
        assert vp_int(m, p) == brute_vp(m, p)

    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6),
           st.sampled_from(PRIMES))
    def test_multiplicative(self, m, n, p):
        assert vp_int(m * n, p) == vp_int(m, p) + vp_int(n, p)


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(50, 7) == 2
        assert digit_sum(0, 5) == 0
        for p in PRIMES:
            assert digit_sum(p**3 - 1, p) == 3 * (p - 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            digit_sum(-1, 5)

    @given(st.integers(0, 10**15), st.sampled_from(PRIMES))
    def test_congruent_mod_p_minus_1(self, m, p):
        assert digit_sum(m, p) % (p - 1) == m % (p - 1)


def range_vp_sum(m1, m2, p):
    """Sum of vp(i) over m1 < i <= m2, by Legendre: a difference of vp_factorial."""
    return vp_factorial(m2, p) - vp_factorial(m1, p)


class TestSumVpRange:
    """Sums of vp over ranges as differences of ``vp_factorial``, against brute force."""

    def test_examples(self):
        assert range_vp_sum(0, 7, 7) == 1
        # brute-force oracles, frozen
        assert sum(int(brute_vp(i, 7)) for i in range(1, 50)) == 8
        assert range_vp_sum(0, 49, 7) == 8
        assert sum(int(brute_vp(i, 5)) for i in range(11, 21)) == 2
        assert range_vp_sum(10, 20, 5) == 2

    @pytest.mark.parametrize("p", PRIMES)
    def test_prefixes_match_brute_force(self, p):
        # prefix equality up to 10^4 pins the whole two-endpoint identity,
        # because each endpoint term (m - digit_sum(m)) is divisible by p-1
        acc = 0
        for m in range(1, 10_001):
            acc += int(brute_vp(m, p))
            assert range_vp_sum(0, m, p) == acc
            assert (m - digit_sum(m, p)) % (p - 1) == 0

    @pytest.mark.parametrize("p", PRIMES)
    def test_all_pairs_small(self, p):
        pref = [0]
        for m in range(1, 301):
            pref.append(pref[-1] + int(brute_vp(m, p)))
        for m1 in range(0, 300):
            for m2 in range(m1 + 1, 301):
                assert range_vp_sum(m1, m2, p) == pref[m2] - pref[m1]

    @given(st.integers(0, 9999), st.integers(1, 10**4), st.sampled_from(PRIMES))
    def test_random_pairs(self, m1, width, p):
        m2 = m1 + width
        assert range_vp_sum(m1, m2, p) == sum(
            int(brute_vp(i, p)) for i in range(m1 + 1, m2 + 1)
        )


class TestArithProg:
    @given(
        st.integers(-200, 200),
        st.integers(0, 150),
        st.sampled_from(PRIMES),
        st.integers(-50, 50),
        st.integers(1, 30),
    )
    @settings(max_examples=200)
    def test_matches_brute(self, lo, width, p, offset, step):
        if step % p == 0:
            step += 1
        hi = lo + width
        if any(offset + step * x == 0 for x in range(lo, hi + 1)):
            return
        want = sum(int(brute_vp(offset + step * x, p)) for x in range(lo, hi + 1))
        assert sum_vp_arith_prog(lo, hi, step, offset, p) == want


class TestMisc:
    def test_vp_factorial(self):
        for p in PRIMES:
            for m in (0, 1, 17, 100, p**3):
                assert vp_factorial(m, p) == sum(
                    int(brute_vp(i, p)) for i in range(1, m + 1)
                )

    def test_max_vp_interval(self):
        assert max_vp_interval(1, 10, 5) == 1
        assert max_vp_interval(26, 124, 5) == 2
        assert max_vp_interval(-10, 3, 5) is INF
        assert max_vp_interval(-130, -120, 5) == 3

    def test_ilog(self):
        assert ilog(7, 1) == 0
        assert ilog(7, 48) == 1
        assert ilog(7, 49) == 2
        with pytest.raises(ValueError):
            ilog(7, 0)

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(561)  # Carmichael
        assert is_prime(2**61 - 1)

    def test_is_prime_refuses_past_its_proven_bound(self):
        # the least strong pseudoprime to the twelve bases it tries; its
        # answer there would be True
        n = 1287836182261 * 2575672364521
        assert n == valuation.PROVEN_BELOW
        assert is_prime(1287836182261) and is_prime(2575672364521)
        assert not is_prime(n - 1)  # below the bound it still answers
        for m in (n, n + 2, 2**89 - 1):
            with pytest.raises(ValueError, match="only below"):
                is_prime(m)


class TestInfinity:
    def test_absorbing_and_ordering(self):
        assert INF + 3 is INF
        assert Fraction(1, 2) + INF is INF
        assert 4 * INF is INF
        assert min(INF, Fraction(7, 2)) == Fraction(7, 2)
        assert INF > 10**100 and not INF < INF and INF >= INF
        assert INF == INF and INF != 0

    def test_rejects_nonpositive_scaling(self):
        with pytest.raises(ValueError):
            0 * INF
