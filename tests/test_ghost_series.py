import random
from array import array
from fractions import Fraction

import pytest

from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline.valuation import INF, vp_int
from ghostline.weight_space import Boundary, Classical, Perturbed, new_context

C0 = new_context(7, 2, 0)
C4 = new_context(7, 2, 4)

# ghost coefficients in factored form, frozen from the worked p=7, a=2 example
FACTORED_C0 = {
    1: (),
    2: ((10, 1), (16, 1), (22, 1)),
    3: ((16, 2), (22, 2), (28, 1), (34, 1), (40, 1), (46, 1)),
    4: ((16, 1), (22, 3), (28, 2), (34, 2), (40, 2), (46, 2),
        (52, 1), (58, 1), (64, 1), (70, 1)),
}
FACTORED_C4 = {
    1: ((6, 1),),
    2: ((12, 1), (18, 1), (24, 1), (30, 1)),
    3: ((18, 2), (24, 2), (30, 2), (36, 1), (42, 1), (48, 1), (54, 1)),
    4: ((18, 1), (24, 3), (30, 3), (36, 2), (42, 2), (48, 2), (54, 2),
        (60, 1), (66, 1), (72, 1), (78, 1)),
    5: ((24, 2), (30, 4), (36, 3), (42, 3), (48, 3), (54, 3), (60, 2),
        (66, 2), (72, 2), (78, 2), (84, 1), (90, 1), (96, 1), (102, 1)),
}

DEGREE_INCREMENTS = {
    0: [0, 3, 5, 8, 10, 13, 15, 18, 21, 23, 26, 28, 31, 33, 36],
    1: [1, 3, 6, 9, 11, 14, 16, 19, 21, 24, 27, 29, 32, 34, 37],
    2: [2, 4, 7, 9, 12, 15, 17, 20, 22, 25, 27, 30, 33, 35, 38],
    3: [3, 5, 8, 10, 13, 15, 18, 21, 23, 26, 28, 31, 33, 36, 39],
    4: [1, 3, 6, 9, 11, 14, 16, 19, 21, 24, 27, 29, 32, 34, 37],
    5: [2, 4, 7, 9, 12, 15, 17, 20, 22, 25, 27, 30, 33, 35, 38],
}

GRID = [(5, 1), (7, 1), (7, 2), (7, 3), (11, 2), (11, 5), (13, 4), (13, 9)]


def contexts(grid=GRID):
    for p, a in grid:
        for s in range(0, p - 1):
            yield new_context(p, a, s)


def oracle_multiplicity(ctx, n, k):
    """m_n(k) straight from the ranks at k, by neither ``dims.zero_indices``
    nor ``dims.zero_window``."""
    du, di = dims.d_ur(ctx, k), dims.d_iw(ctx, k)
    return min(n - du, di - du - n) if du < n < di - du else 0


#: Every triple with p <= 13, as the criterion-6 grid draws them.
SMALL_TRIPLES = [(p, a, s) for p in (5, 7, 11, 13) for a in range(1, p - 3) for s in range(p - 1)]

#: Spans g_lo, ..., g_hi checked per triple: hi - lo takes these values.
SPAN_LENGTHS = (0, 1, 2, 5, 12)


def zero_relation_faults(ctx, kb_max=200):
    """Where ``dims.zero_indices`` or ``dims.zero_window`` (one- or
    two-ended) departs from the brute-force test d_ur < n < d_iw - d_ur at
    the weights with k_bullet <= kb_max; an empty list when none does."""
    ranks = [(dims.d_ur(ctx, k), dims.d_iw(ctx, k))
             for k in map(ctx.weight_of_bullet, range(kb_max + 1))]
    brute = [[n for n in range(di) if du < n < di - du] for du, di in ranks]
    top = max(di for _, di in ranks)  # no weight in view is a zero of g_top
    windows = [dims.zero_window(ctx, n) for n in range(top)]
    in_windows = [[] for _ in ranks]  # the n whose window holds each weight
    for n, window in enumerate(windows):
        for kb in range(window.start, min(window.stop, kb_max + 1)):
            in_windows[kb].append(n)
    faults = []
    for kb, want in enumerate(brute):
        if list(dims.zero_indices(ctx, kb)) != want:
            faults.append(("zero_indices", kb))
        if in_windows[kb] != want:
            faults.append(("zero_window", kb))
    # the spans that end inside the weights in view: each holds every zero
    # of g_lo, ..., g_hi, and its other weights have d_new <= 1
    ends = [(ns[0], ns[-1]) if ns else (top, 0) for ns in brute]  # (top, 0) meets no span
    in_view = [n for n in range(1, top) if windows[n].stop <= kb_max + 1]
    for lo in in_view:
        for hi in (lo + d for d in SPAN_LENGTHS if lo + d in in_view):
            span = dims.zero_window(ctx, lo, hi)
            zeros = {kb for kb, (first, last) in enumerate(ends) if first <= hi and last >= lo}
            faults += [("span", lo, hi, kb) for kb in zeros if kb not in span]
            faults += [("span", lo, hi, kb) for kb in span if kb not in zeros
                       and ranks[kb][1] - 2 * ranks[kb][0] > 1]
    return faults


class TestMultiplicity:
    def test_zero_relation_against_the_ranks(self):
        # the one statement of the relation, in both directions and over
        # spans of indices, against the ranks themselves
        for triple in SMALL_TRIPLES:
            assert zero_relation_faults(new_context(*triple)) == [], triple

    def test_a_planted_fault_in_zero_indices_is_caught(self, monkeypatch):
        honest = dims.zero_indices

        def drops_its_first_index(ctx, kb):
            zeros = honest(ctx, kb)
            return range(zeros.start + 1, zeros.stop)

        monkeypatch.setattr(dims, "zero_indices", drops_its_first_index)
        assert ("zero_indices", 1) in zero_relation_faults(C4, 20)
        assert ghost.multiplicity(C4, 2, 18) != oracle_multiplicity(C4, 2, 18)

    def test_examples(self):
        assert ghost.multiplicity(C0, 3, 16) == 2
        assert ghost.multiplicity(C0, 3, 10) == 0
        # weights below 2 (k = 0 lies on the class of C4) and off the class
        # are refused, except at n < 1, where every multiplicity is 0
        for k in (0, 19):
            with pytest.raises(ValueError):
                ghost.multiplicity(C4, 3, k)
            assert ghost.multiplicity(C4, 0, k) == 0
        for ctx in (C0, C4):
            for kb in range(0, 20):
                k = ctx.weight_of_bullet(kb)
                assert ghost.multiplicity(ctx, dims.d_ur(ctx, k), k) == 0

    def test_coefficient_tables(self):
        for n, want in FACTORED_C0.items():
            assert ghost.coefficient(C0, n).factors == want
        for n, want in FACTORED_C4.items():
            assert ghost.coefficient(C4, n).factors == want
        assert ghost.coefficient(C0, 0).factors == ()

    def test_factored_form_matches_pointwise(self):
        for ctx in (C0, C4, new_context(11, 5, 7)):
            for n in range(0, 40):
                coeff = ghost.coefficient(ctx, n)
                lo = min((k for k, _ in coeff.factors), default=ctx.k_eps)
                hi = max((k for k, _ in coeff.factors), default=ctx.k_eps)
                for k in range(ctx.k_eps, hi + 2 * (ctx.p - 1), ctx.p - 1):
                    want = oracle_multiplicity(ctx, n, k)
                    assert dict(coeff.factors).get(k, 0) == want == ghost.multiplicity(ctx, n, k)
                assert lo >= 2

    def test_increment_pattern(self):
        # multiplicity jumps are -1/0/+1 in the predicted windows; second
        # difference is -2 at the middle, +1 at the two rank boundaries
        for ctx in (C0, C4, new_context(5, 1, 2), new_context(13, 9, 3)):
            for kb in range(0, 40):
                k = ctx.weight_of_bullet(kb)
                du, di = dims.d_ur_of_bullet(ctx, kb), dims.d_iw_of_bullet(ctx, kb)
                for n in range(1, 300):
                    jump = ghost.multiplicity(ctx, n + 1, k) - ghost.multiplicity(ctx, n, k)
                    if du <= n < di // 2:
                        assert jump == 1
                    elif di // 2 <= n < di - du:
                        assert jump == -1
                    else:
                        assert jump == 0
                for n in range(2, 300):
                    second = (
                        ghost.multiplicity(ctx, n + 1, k)
                        - 2 * ghost.multiplicity(ctx, n, k)
                        + ghost.multiplicity(ctx, n - 1, k)
                    )
                    if n == di // 2 and n != du and n != di - du:
                        assert second == -2
                    elif n in (du, di - du) and n != di // 2:
                        assert second == 1
                    elif n == di // 2 == du:
                        assert second == -2 + 2  # coincident boundary terms
                    else:
                        assert second == 0


class TestDegrees:
    @pytest.mark.parametrize("s", range(6))
    def test_increment_table(self, s):
        ctx = new_context(7, 2, s)
        got = [ghost.degree(ctx, n + 1) - ghost.degree(ctx, n) for n in range(15)]
        assert got == DEGREE_INCREMENTS[s]

    def test_degree_zero(self):
        assert ghost.degree(C0, 0) == 0

    def test_closed_form_examples(self):
        assert ghost.degree_increment_closed_form(C0, 3) == 8
        assert ghost.lambda_halo(C0, 4) == 7
        assert ghost.degree_increment_closed_form(C0, 0) == 0
        assert ghost.degree_increment_closed_form(C4, 10) == 27
        assert ghost.lambda_halo(C4, 11) == 26

    def test_closed_form_matches_factored(self):
        for ctx in contexts():
            for n in range(0, 150):
                want = ghost.degree(ctx, n + 1) - ghost.degree(ctx, n)
                assert ghost.degree_increment_closed_form(ctx, n) == want
                assert ghost.degree_fast(ctx, n + 1) - ghost.degree_fast(ctx, n) == want

    def test_closed_form_matches_fast_path_deep(self):
        for ctx in contexts():
            for n in range(0, 1000):
                got = ghost.degree_increment_closed_form(ctx, n)
                assert got == ghost.degree_fast(ctx, n + 1) - ghost.degree_fast(ctx, n)

    def test_increments_strictly_increase(self):
        for ctx in contexts():
            prev = None
            for n in range(0, 500):
                inc = ghost.degree_fast(ctx, n + 1) - ghost.degree_fast(ctx, n)
                if prev is not None:
                    assert inc > prev
                prev = inc

    def test_halo_defect(self):
        # deg g_n - sum of the first n halo exponents is 0 or 1, and
        # vanishes whenever the next power-basis degree steps by a
        for ctx in contexts():
            lam_sum = 0
            for n in range(1, 400):
                lam_sum += ghost.lambda_halo(ctx, n)
                defect = ghost.degree_fast(ctx, n) - lam_sum
                step = ghost.power_basis_degree(ctx, n + 1) - ghost.power_basis_degree(ctx, n)
                assert step in (ctx.a, ctx.p - 1 - ctx.a)
                if step == ctx.a and ctx.a != ctx.p - 1 - ctx.a:
                    assert defect == 0
                else:
                    assert defect in (0, 1)


class TestPowerBasis:
    def test_degrees_merge_two_progressions(self):
        ctx = new_context(7, 2, 0)
        assert [ghost.power_basis_degree(ctx, n) for n in range(1, 7)] == [0, 2, 6, 8, 12, 14]
        ctx = new_context(7, 2, 4)
        assert [ghost.power_basis_degree(ctx, n) for n in range(1, 7)] == [0, 4, 6, 10, 12, 16]

    def test_matches_generator(self):
        from ghostline.dimensions import power_basis_degrees

        for ctx in contexts():
            gen = power_basis_degrees(ctx)
            for n in range(1, 60):
                assert ghost.power_basis_degree(ctx, n) == next(gen)

    def test_lambda_examples(self):
        assert ghost.lambda_halo(C0, 1) == 0
        assert ghost.lambda_halo(C4, 2) == 4


class TestEvaluation:
    def test_perturbed_examples(self):
        for r in (Fraction(3, 2), Fraction(2), Fraction(7)):
            assert ghost.eval_vp(C4, 2, Perturbed(18, r)) == 3 + r
        # below radius 1 every factor's contribution is capped by r itself
        assert ghost.eval_vp(C4, 2, Perturbed(18, Fraction(1, 2))) == 4 * Fraction(1, 2)
        assert ghost.eval_vp(C4, 5, Perturbed(18, Fraction(7))) == 33
        assert ghost.eval_vp(C4, 5, Perturbed(18, Fraction(5, 2))) == 33

    def test_boundary_is_degree_times_t(self):
        t = Fraction(1, 3)
        assert ghost.eval_vp(C0, 2, Boundary(t)) == 3 * t
        for n in range(0, 12):
            assert ghost.eval_vp(C4, n, Boundary(t)) == ghost.degree(C4, n) * t

    def test_classical_zero_short_circuits(self):
        assert ghost.eval_vp(C4, 3, Classical(18)) is INF
        assert ghost.eval_vp(C4, 5, Classical(18)) == 33

    def test_omit_examples(self):
        assert ghost.eval_vp(C4, 3, Classical(18), {18}) == 8
        assert ghost.eval_vp(C4, 4, Classical(18), {18}) == 19
        for n in range(0, 10):
            w = Perturbed(24, Fraction(3, 2))
            assert ghost.eval_vp(C4, n, w, ()) == ghost.eval_vp(C4, n, w)

    def test_increment_oracle_example(self):
        # jump of the 18-omitted valuation from n=3 to n=4; the profile
        # normalisation peels off (k-2)/2 = 8, leaving the gap 11 - 8 = 3
        assert ghost.increment_at(C4, 3, 18) == 19 - 8 == 11

    def test_increment_oracle_empty_ranges(self):
        ctx = new_context(7, 2, 0)  # k_max_bullet(0) < 0: nothing moves at n=0
        assert ghost.increment_at(ctx, 0, 4) == 0

    def test_increment_oracle_matches_direct(self):
        rng = random.Random(99)
        for _ in range(120):
            p, a = rng.choice(GRID)
            ctx = new_context(p, a, rng.randint(0, p - 2))
            k0 = ctx.weight_of_bullet(rng.randint(0, 12))
            n = rng.randint(0, 24)
            direct = ghost.eval_vp(ctx, n + 1, Classical(k0), {k0}) - ghost.eval_vp(
                ctx, n, Classical(k0), {k0}
            )
            assert ghost.increment_at(ctx, n, k0) == direct

    def test_second_difference_formula(self):
        # second difference of omitted valuations against the window form:
        # new weights entering at the top and bottom, minus twice the middle
        rng = random.Random(5)
        for _ in range(80):
            p, a = rng.choice(GRID)
            ctx = new_context(p, a, rng.randint(0, p - 2))
            k0 = ctx.weight_of_bullet(rng.randint(0, 10))
            k0b = ctx.bullet(k0)
            n = rng.randint(1, 20)
            ev = ghost.classical_evaluator(ctx, k0)
            lhs = ev.omitted(n + 1) - 2 * ev.omitted(n) + ev.omitted(n - 1)

            def wsum(lo, hi):
                total = 0
                for kb in range(max(lo, 0), hi + 1):
                    if kb != k0b:
                        total += 1 + int(vp_int(kb - k0b, p))
                return total

            kmax_prev, kmax_now = dims.k_max_bullet(ctx, n - 1), dims.k_max_bullet(ctx, n)
            kmin_prev, kmin_now = dims.k_min_bullet(ctx, n - 1), dims.k_min_bullet(ctx, n)
            rhs = wsum(kmax_prev + 1, kmax_now) + wsum(kmin_prev, kmin_now - 1)
            kmid = dims.k_mid_bullet(ctx, n)
            if kmid != k0b and kmid >= 0:
                rhs -= 2 * (int(vp_int(kmid - k0b, p)) + 1)
            assert lhs == rhs

    def test_fast_path_matches_factored(self):
        # the accumulated-jump evaluator against the factored sum, on and
        # off the residue class, including negative reflected weights
        for ctx in (C0, C4, new_context(11, 5, 7)):
            for k0 in (ctx.weight_of_bullet(0), ctx.weight_of_bullet(7), 3, 5, -14, 2 - 25):
                ev = ghost.classical_evaluator(ctx, k0)
                for n in range(0, 26):
                    want = ghost.eval_vp(ctx, n, Classical(k0))
                    assert ev.scaled(n, n + 1) == [ev.den * want], (ctx, k0, n)
                    want_omit = ghost.eval_vp(ctx, n, Classical(k0), {k0})
                    assert ev.omitted(n) == ev.den * want_omit


class TestLevelSum:
    """The running-prefix window sum against the direct sum of the distances."""

    @staticmethod
    def direct(ctx, kb_lo, kb_hi, k0, r):
        total = 0
        for kb in range(max(kb_lo, 0), kb_hi + 1):
            k = ctx.weight_of_bullet(kb)
            if k0 is None:
                total += min(r, 1)
            elif k != k0:
                total += min(r, 1 + vp_int(k - k0, ctx.p))
        return total

    @staticmethod
    def level_sum(ctx, kb_lo, kb_hi, k0, r):
        """The scaled sum, the last prefix of a stretch that starts at 0 on
        kb_lo, and D, the denominator of r (1 at INF)."""
        ev = ghost.JumpEvaluator(ctx, k0, r)
        stretch = ev._stretch(kb_lo, max(kb_hi + 1, kb_lo), 0)
        return stretch[-1], ev.den

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_direct_sum(self, p):
        rng = random.Random(300 + p)
        radii = (INF, Fraction(1), Fraction(2), Fraction(5), Fraction(1, 2),
                 Fraction(7, 2), Fraction(2, 3), Fraction(10, 3), Fraction(10_001, 3))
        seen = set()
        for _ in range(600):
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            shape = rng.choice(("on", "off", "small", "none"))
            if shape == "on":
                k0 = ctx.weight_of_bullet(rng.randint(0, 60))
            elif shape == "off":
                k0 = ctx.weight_of_bullet(rng.randint(0, 60)) + rng.randint(1, p - 2)
            elif shape == "small":
                k0 = rng.choice((ctx.weight_of_bullet(-1), ctx.weight_of_bullet(-3), 0, 1, -7))
            else:
                k0 = None
            r = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(1)) if k0 is None else radii)
            if shape == "on" and rng.random() < 0.5:
                k0b = ctx.bullet(k0)  # a window around k0 itself
                kb_lo, kb_hi = k0b - rng.randint(0, 30), k0b + rng.randint(0, 30)
            else:
                kb_lo = rng.randint(-15, 60)  # below 0: clipped
                kb_hi = kb_lo + rng.randint(-2, 90)
            holds_k0 = k0 is not None and ctx.on_disk(k0) and max(kb_lo, 0) <= ctx.bullet(k0) <= kb_hi
            seen.add((shape, r is INF, kb_lo < 0, holds_k0))
            want = self.direct(ctx, kb_lo, kb_hi, k0, r)
            scaled, den = self.level_sum(ctx, kb_lo, kb_hi, k0, r)
            assert type(scaled) is int and scaled == den * want, (ctx, kb_lo, kb_hi, k0, r)
        assert ("on", True, False, True) in seen and ("on", False, True, True) in seen
        assert {s for s, *_ in seen} == {"on", "off", "small", "none"}


class TestPointEvaluator:
    """The jump evaluator at perturbed and boundary points against eval_vp."""

    PRIMES = (5, 7, 11, 13)
    N = 45

    def check(self, ctx, w, n_top=N):
        ev = ghost.evaluator(ctx, w)
        for n in range(0, n_top + 1):
            assert ev.scaled(n, n + 1) == [ev.den * ghost.eval_vp(ctx, n, w)], (ctx, w, n)

    @pytest.mark.parametrize("p", PRIMES)
    def test_perturbed_radius_shapes(self, p):
        # r < 1, integer r, denominators 2 and 3, and a radius above every
        # digit level the windows reach (only k = k0 itself sees all of it)
        radii = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3),
                 Fraction(5, 2), Fraction(7, 3), Fraction(10_001, 3))
        rng = random.Random(p)
        ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
        for r in radii:
            for k0 in (ctx.weight_of_bullet(0), ctx.weight_of_bullet(rng.randint(1, 40))):
                self.check(ctx, Perturbed(k0, r))

    @pytest.mark.parametrize("p", PRIMES)
    def test_perturbed_off_class_and_small_bases(self, p):
        rng = random.Random(100 + p)
        ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
        bases = [ctx.k_eps + 1, ctx.weight_of_bullet(5) + 2, 0, -7,
                 ctx.weight_of_bullet(-1)]
        for k0 in bases:
            for r in (Fraction(3, 2), Fraction(4), Fraction(11, 3)):
                self.check(ctx, Perturbed(k0, r))

    def test_perturbed_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            p = rng.choice(self.PRIMES)
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            if rng.random() < 0.7:
                k0 = ctx.weight_of_bullet(rng.randint(0, 60))
            else:
                k0 = rng.randint(-20, 400)
            r = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3)))
            self.check(ctx, Perturbed(k0, r))

    def test_perturbed_deep(self):
        # a base whose own multiplicity rises and falls inside the range
        ctx = new_context(11, 5, 7)
        self.check(ctx, Perturbed(ctx.weight_of_bullet(30), Fraction(9, 2)), n_top=120)

    @pytest.mark.parametrize("p", PRIMES)
    def test_boundary(self, p):
        ctx = new_context(p, 1, p - 2)
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)):
            self.check(ctx, Boundary(t))

    def test_cached_per_point(self):
        w = Perturbed(18, Fraction(5, 2))
        assert ghost.evaluator(C4, w) is ghost.evaluator(C4, w)
        assert ghost.evaluator(C4, Classical(18)) is ghost.classical_evaluator(C4, 18)


class TestIncrementAtPoints:
    """Single jumps at perturbed and boundary points against D times the
    differences of the factored ``eval_vp`` with k0 omitted, and the type
    of every evaluator read: an int, for every radius."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_omitted_differences(self, p):
        rng = random.Random(900 + p)
        seen = set()
        for _ in range(60):
            ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
            shape = rng.choice(("on", "off", "small", "boundary"))
            den = rng.choice((1, 2, 3))
            if shape == "boundary":
                k0, r = None, Fraction(rng.randint(1, 3 * den), 3 * den + 1)
                w = Boundary(r)
            else:
                if shape == "on":
                    k0 = ctx.weight_of_bullet(rng.randint(0, 40))
                elif shape == "off":
                    k0 = ctx.weight_of_bullet(rng.randint(0, 40)) + rng.randint(1, p - 2)
                else:
                    k0 = rng.choice((ctx.weight_of_bullet(-1), 0, 1, -7))
                r = Fraction(rng.randint(1, 8 * den), den)
                w = Perturbed(k0, r)
            omit = () if k0 is None else (k0,)
            n = rng.randint(0, 40)
            direct = ghost.eval_vp(ctx, n + 1, w, omit) - ghost.eval_vp(ctx, n, w, omit)
            got = ghost.increment_at(ctx, n, k0, r)
            assert got == r.denominator * direct, (ctx, w, n)
            assert type(got) is int, (ctx, w, n)
            seen.add((shape, r.denominator))
        assert {s for s, _ in seen} == {"on", "off", "small", "boundary"}
        assert {d for s, d in seen if s != "boundary"} == {1, 2, 3}

    def test_reads_are_scaled_ints(self):
        # D = 1, 2 and 3 at a base weight that is a zero of g_2 .. g_4
        ctx, top = new_context(7, 2, 4), 30
        for w in (Classical(18), Perturbed(18, Fraction(4)), Perturbed(18, Fraction(7, 2)),
                  Perturbed(18, Fraction(10, 3)), Boundary(Fraction(2, 5))):
            ev = ghost.JumpEvaluator(ctx, w.k0, w.r)
            omit = () if w.k0 is None else (w.k0,)
            want_omitted = [ev.den * ghost.eval_vp(ctx, n, w, omit) for n in range(top + 1)]
            want_jumps = [b - a for a, b in zip(want_omitted, want_omitted[1:])]
            want_scaled = [ev.den * ghost.eval_vp(ctx, n, w) for n in range(top + 1)]
            reads = {
                "omitted": ([ev.omitted(n) for n in range(top + 1)], want_omitted),
                "scaled": (ev.scaled(0, top + 1), want_scaled),
                "at": ([ev.at(n) for n in range(top + 1)], want_scaled),
                "increment_at": ([ghost.increment_at(ctx, n, w.k0, w.r) for n in range(top)],
                                 want_jumps),
            }
            for name, (got, want) in reads.items():
                assert got == want, (w, name)
                assert all(type(y) is int for y in got if y is not INF), (w, name)
            assert (INF in reads["scaled"][0]) == (w.r is INF), w

    @pytest.mark.parametrize("r", [0, Fraction(-1, 2), -3], ids=["0", "-1/2", "-3"])
    def test_rejects_a_radius_that_is_not_positive(self, r):
        for k0 in (18, None):
            with pytest.raises(ValueError, match="radius must be positive"):
                ghost.increment_at(C4, 3, k0, r)
            with pytest.raises(ValueError, match="radius must be positive"):
                ghost.JumpEvaluator(C4, k0, r)


class TestJson:
    def test_coefficient_serialisation(self):
        d = ghost.coefficient(C4, 2).to_json_dict()
        assert d == {"n": 2, "factors": [[12, 1], [18, 1], [24, 1], [30, 1]]}


class TestGrowthLoop:
    """Evaluators grown by ``grow`` against single-n ``increment_at`` and
    against the factored ``eval_vp``, to n = 300."""

    PRIMES = (5, 7, 11, 13)
    N = 300

    @staticmethod
    def points(ctx):
        on = ctx.weight_of_bullet(20)
        off = ctx.weight_of_bullet(9) + 1
        return [
            Classical(on), Classical(off), Classical(ctx.weight_of_bullet(-1)), Classical(1),
            Perturbed(on, Fraction(4)), Perturbed(ctx.weight_of_bullet(3), Fraction(7, 2)),
            Perturbed(off, Fraction(10, 3)), Perturbed(0, Fraction(5, 2)),
            Boundary(Fraction(1, 2)), Boundary(Fraction(2, 3)),
        ]

    @staticmethod
    def fresh(ctx, w):
        return ghost.JumpEvaluator(ctx, w.k0, w.r)

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_single_steps_and_factored(self, p):
        rng = random.Random(700 + p)
        ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
        for w in self.points(ctx):
            ev = self.fresh(ctx, w)
            ev.grow(self.N)
            scaled = [0]
            for n in range(self.N):
                scaled.append(scaled[-1] + ghost.increment_at(ctx, n, ev.k0, w.r))
            assert list(ev._scaled) == scaled, (ctx, w)
            ys = ev.scaled(0, self.N + 1)
            for n in [*range(0, self.N, 4), self.N]:
                assert ys[n] == ev.den * ghost.eval_vp(ctx, n, w), (ctx, w, n)

    @pytest.mark.parametrize("p", PRIMES)
    def test_growth_in_stages(self, p):
        ctx = new_context(p, 1, p - 2)
        for w in self.points(ctx):
            once, staged = self.fresh(ctx, w), self.fresh(ctx, w)
            once.grow(self.N)
            staged.grow(40)
            staged.grow(self.N)
            assert list(staged._scaled) == list(once._scaled), (ctx, w)

    @pytest.mark.parametrize("p", PRIMES)
    def test_growth_order_does_not_change_results(self, p):
        # every point shape, grown by random stages: one index at a time
        # (checked against ``increment_at``), reads past the end that grow
        # by GROW_STEP, bulk reads and large grows
        rng = random.Random(1100 + p)
        ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
        shapes = [(w.k0, w.r) for w in self.points(ctx)]
        shapes += [(-7, Fraction(5, 3)), (ctx.weight_of_bullet(-3), Fraction(8)), (None, 1)]
        kinds = set()
        for k0, r in shapes:
            once = ghost.JumpEvaluator(ctx, k0, r)
            once.grow(self.N)
            staged = ghost.JumpEvaluator(ctx, k0, r)
            while len(staged._scaled) <= self.N:
                top = len(staged._scaled) - 1
                kind = rng.choices(("one", "read", "bulk", "large"), (4, 3, 2, 1))[0]
                kinds.add(kind)
                if kind == "one":
                    staged.grow(top + 1)
                    step = staged._scaled[top + 1] - staged._scaled[top]
                    assert step == ghost.increment_at(ctx, top, k0, r), (k0, r, top)
                elif kind == "read":
                    staged.omitted(top + rng.randint(1, 3))
                elif kind == "bulk":
                    # the bulk read against the per-index one, plus m_n(k0) * D * r
                    start = rng.randint(0, top)
                    scaled = staged.scaled(start, top + 9)
                    single = []
                    for n in range(start, top + 9):
                        m = ghost._multiplicity(n, staged.zeros)
                        if m and r is INF:
                            single.append(INF)
                        else:
                            single.append(staged.omitted(n) + (m * staged.den * r if m else 0))
                    assert scaled == single
                    assert [staged.at(n) for n in range(start, top + 9)] == single
                    assert all(type(y) is int for y in scaled if y is not INF)
                else:
                    staged.grow(top + rng.randint(20, 90))
            assert list(staged._scaled[: self.N + 1]) == list(once._scaled), (ctx, k0, r)
            ys = once.scaled(0, self.N + 1)
            for n in range(0, self.N + 1, 23):
                if k0 is None and r == 1:  # the degree evaluator
                    want = ghost.degree(ctx, n)
                elif k0 is None:
                    want = ghost.eval_vp(ctx, n, Boundary(r))
                else:
                    w = Classical(k0) if r is INF else Perturbed(k0, r)
                    want = ghost.eval_vp(ctx, n, w)
                assert ys[n] == once.den * want, (ctx, k0, r, n)
        assert kinds == {"one", "read", "bulk", "large"}

    def test_store_is_machine_integers_when_d_is_one(self):
        ctx = new_context(13, 3, 0)
        d_one = [ghost.classical_evaluator(ctx, ctx.weight_of_bullet(kb)) for kb in (0, 7, 40)]
        d_one += [ghost.degree_evaluator(ctx), self.fresh(ctx, Perturbed(20, Fraction(3)))]
        for ev in d_one:
            ev.grow(self.N)
            assert type(ev._scaled) is array and ev._scaled.typecode == "q", ev.dr
            assert type(ev.scaled(0, 5)) is list
        # a denominator from the radius is unbounded: D = 10^19 passes 2^63
        # at once, so that store stays a list of ints, and reads agree with
        # the factored route
        w = Perturbed(18, Fraction(10**19 - 1, 10**19))
        ev = self.fresh(C4, w)
        ys = ev.scaled(0, 31)
        assert type(ev._scaled) is list and type(ys) is list
        assert max(ys) >= 2**63
        assert ys == [ev.den * ghost.eval_vp(C4, n, w) for n in range(31)]

    def test_a_machine_store_refuses_to_wrap(self):
        ev = self.fresh(C4, Classical(18))
        ev._scaled[-1] = 2**63 - 1
        with pytest.raises(OverflowError):
            ev.grow(40)

    def test_reads_past_the_end_grow_by_a_step(self):
        ev = self.fresh(C4, Classical(18))
        ev.grow(10)
        ev.omitted(11)
        assert len(ev._scaled) == 11 + ghost.GROW_STEP
        ev.omitted(200)
        assert len(ev._scaled) == 201

    def test_rejects_a_negative_index(self):
        # (13, 5, 7) at k_bullet 3: omitted(-1) used to read omitted(20)
        ctx = new_context(13, 5, 7)
        ev = self.fresh(ctx, Classical(ctx.weight_of_bullet(3)))
        ev.grow(20)
        for read in (ev.omitted, lambda n: ev.scaled(n, 3),
                     lambda n: ghost.degree_fast(C4, n)):
            for n in (-1, -2):
                with pytest.raises(ValueError, match="must be >= 0"):
                    read(n)

    def test_rejects_a_negative_start(self):
        with pytest.raises(ValueError, match="start must be >= 0"):
            dims.jump_windows(C4, -3, 2)
        with pytest.raises(ValueError, match="start must be >= 0"):
            ghost.increment_at(C4, -1, None)

    def test_level_table_deepens_with_the_windows(self):
        ctx = new_context(5, 1, 2)
        ev = self.fresh(ctx, Classical(ctx.weight_of_bullet(3)))
        ev.grow(5)
        shallow = list(ev._levels)
        ev.grow(300)
        assert ev._levels[: len(shallow)] == shallow and len(ev._levels) > len(shallow)
        # a radius caps the table at floor(r) levels
        ev = self.fresh(ctx, Perturbed(ctx.weight_of_bullet(3), Fraction(5, 2)))
        ev.grow(300)
        assert len(ev._levels) == 2
