import random
from fractions import Fraction

import pytest

from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline import steinberg
from ghostline.valuation import INF
from ghostline.weight_space import clear_context_caches, new_context

# known rank tables for p = 7, a = 2, one row per disk s_eps = 0..5
D_IW_TABLE = {
    0: [1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 5],
    1: [0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4],
    2: [0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4],
    3: [0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4],
    4: [1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5],
    5: [0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 4],
}

TRIPLES_TABLE = {
    0: [(4, 1, 0), (10, 1, 2), (16, 1, 4), (22, 1, 6), (28, 2, 6), (34, 2, 8), (40, 2, 10)],
    1: [(6, 0, 2), (12, 1, 2), (18, 1, 4), (24, 1, 6), (30, 1, 8), (36, 2, 8), (42, 2, 10)],
    2: [(2, 0, 0), (8, 0, 2), (14, 0, 4), (20, 1, 4), (26, 1, 6), (32, 1, 8), (38, 1, 10)],
    3: [(4, 0, 0), (10, 0, 2), (16, 0, 4), (22, 0, 6), (28, 1, 6), (34, 1, 8), (40, 1, 10)],
    4: [(6, 0, 2), (12, 1, 2), (18, 1, 4), (24, 1, 6), (30, 1, 8), (36, 2, 8), (42, 2, 10)],
    5: [(2, 0, 0), (8, 0, 2), (14, 0, 4), (20, 1, 4), (26, 1, 6), (32, 1, 8), (38, 1, 10)],
}

GRID = [(5, 1), (7, 1), (7, 2), (7, 3), (11, 2), (11, 5), (13, 4), (13, 9)]


def contexts(grid=GRID):
    for p, a in grid:
        for s in range(0, p - 1):
            yield new_context(p, a, s)


class TestDIw:
    @pytest.mark.parametrize("s", range(6))
    def test_known_table(self, s):
        ctx = new_context(7, 2, s)
        assert [dims.d_iw(ctx, k) for k in range(2, 15)] == D_IW_TABLE[s]

    def test_examples(self):
        assert dims.d_iw(new_context(7, 2, 0), 4) == 2
        assert dims.d_iw(new_context(7, 2, 0), 14) == 5
        assert dims.d_iw(new_context(7, 2, 4), 18) == 6

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            dims.d_iw(new_context(7, 2, 0), 1)

    def test_even_form_on_class(self):
        for ctx in contexts():
            for kb in range(0, 80):
                k = ctx.weight_of_bullet(kb)
                assert dims.d_iw(ctx, k) == dims.d_iw_of_bullet(ctx, kb) == 2 * kb + 2 - 2 * ctx.delta_eps

    def test_step_in_k(self):
        for ctx in contexts():
            for k in range(2, 400):
                assert dims.d_iw(ctx, k + ctx.p - 1) - dims.d_iw(ctx, k) == 2


class TestDUr:
    @pytest.mark.parametrize("s", range(6))
    def test_known_triples(self, s):
        ctx = new_context(7, 2, s)
        got = [(k, dims.d_ur(ctx, k), dims.d_new(ctx, k)) for k in range(ctx.k_eps, 43, 6)]
        assert got == TRIPLES_TABLE[s]

    def test_examples(self):
        assert dims.d_ur(new_context(7, 2, 0), 10) == 1
        assert dims.d_ur(new_context(7, 2, 0), 28) == 2
        assert dims.d_ur(new_context(7, 2, 2), 2) == 0
        assert dims.d_new(new_context(7, 2, 0), 22) == 6
        assert dims.d_new(new_context(7, 2, 0), 4) == 0
        assert dims.d_new(new_context(7, 2, 4), 18) == 4

    def test_rejects_off_class(self):
        with pytest.raises(ValueError):
            dims.d_ur(new_context(7, 2, 0), 5)

    def test_rejects_negative_rank(self):
        # raised, not asserted, so it holds under python -O too
        with pytest.raises(ValueError, match="negative d_ur"):
            dims.d_ur_of_bullet(new_context(7, 2, 0), -20)

    def test_step_in_k(self):
        for ctx in contexts():
            p = ctx.p
            for kb in range(0, 200):
                k = ctx.weight_of_bullet(kb)
                assert dims.d_ur(ctx, k + p * p - 1) - dims.d_ur(ctx, k) == 2

    def test_nondecreasing_and_even_dnew(self):
        for ctx in contexts():
            prev = 0
            for kb in range(0, 300):
                k = ctx.weight_of_bullet(kb)
                du = dims.d_ur(ctx, k)
                assert du >= prev
                prev = du
                assert dims.d_new(ctx, k) % 2 == 0


class TestExtremalWeights:
    def test_k_mid_examples(self):
        assert dims.k_mid_bullet(new_context(7, 2, 4), 3) == 2  # k = 18
        assert dims.k_mid_bullet(new_context(7, 2, 0), 1) == 0  # k = 4
        for ctx in contexts():
            assert dims.k_mid_bullet(ctx, 0) == ctx.delta_eps - 1

    def test_k_max_examples(self):
        assert dims.k_max_bullet(new_context(7, 2, 0), 1) == 3  # k = 22
        assert dims.k_max_bullet(new_context(7, 2, 0), 2) == 7  # k = 46
        assert dims.k_max_bullet(new_context(7, 2, 4), 0) == 0  # k = 6
        c0 = new_context(7, 2, 0)
        assert dims.d_ur(c0, 46) == 2 and dims.d_ur(c0, 52) == 3
        c4 = new_context(7, 2, 4)
        assert dims.d_ur(c4, 6) == 0 and dims.d_ur(c4, 12) == 1

    def test_k_min_examples(self):
        c0 = new_context(7, 2, 0)
        assert (dims.k_min_tilde_bullet(c0, 2), dims.k_min_bullet(c0, 2)) == (5, 1)  # w_10
        assert (dims.k_min_tilde_bullet(c0, 3), dims.k_min_bullet(c0, 3)) == (9, 2)  # w_16
        kmin = dims.k_min_bullet(new_context(7, 2, 4), 2)
        assert new_context(7, 2, 4).weight_of_bullet(kmin) == 12

    def test_inversions_characterise_ranks(self):
        # threshold form of the window equivalences; with k_max/k_min
        # monotone this pins the full biconditional family for every n
        for ctx in contexts():
            for n in range(0, 200):
                assert dims.k_max_bullet(ctx, n + 1) > dims.k_max_bullet(ctx, n)
                assert dims.k_min_bullet(ctx, n + 1) >= dims.k_min_bullet(ctx, n)
            for kb in range(0, 2000):
                du = dims.d_ur_of_bullet(ctx, kb)
                di = dims.d_iw_of_bullet(ctx, kb)
                assert dims.k_mid_bullet(ctx, di // 2) == kb
                assert dims.k_max_bullet(ctx, du) >= kb
                if du >= 1:
                    assert dims.k_max_bullet(ctx, du - 1) < kb
                assert dims.k_min_bullet(ctx, di - du) > kb
                if di - du >= 1:
                    assert dims.k_min_bullet(ctx, di - du - 1) <= kb

    def test_exhaustive_equivalences_small(self):
        ctx = new_context(7, 2, 3)
        for n in range(0, 500):
            kmid = dims.k_mid_bullet(ctx, n)
            kmax = dims.k_max_bullet(ctx, n)
            kmin = dims.k_min_bullet(ctx, n)
            for kb in range(0, 600):
                du = dims.d_ur_of_bullet(ctx, kb)
                di = dims.d_iw_of_bullet(ctx, kb)
                assert (di // 2 == n) == (kb == kmid)
                assert (du <= n) == (kb <= kmax)
                assert (di - du <= n) == (kb < kmin)


class TestPairedDiskIdentities:
    """Weight-unit identities linking the extremal functions of a disk with
    those of its reflected and value-swapped companions."""

    @staticmethod
    def k_max_w(ctx, n):
        return ctx.k_eps + (ctx.p - 1) * dims.k_max_bullet(ctx, n)

    @staticmethod
    def k_mid_w(ctx, n):
        return ctx.k_eps + (ctx.p - 1) * dims.k_mid_bullet(ctx, n)

    @staticmethod
    def k_min_tilde_w(ctx, n):
        return ctx.p * ctx.k_eps + (ctx.p - 1) * dims.k_min_tilde_bullet(ctx, n)

    def test_value_swap_identities(self):
        rng = random.Random(7)
        for _ in range(300):
            p = rng.choice((5, 7, 11, 13))
            a = rng.randint(1, p - 4)
            s = rng.randint(0, p - 2)
            ctx = new_context(p, a, s)
            k0 = rng.randint(2, 400)
            ctx2 = new_context(p, a, ctx.res(k0 - 2 - a - s))
            d = dims.d_iw(ctx, k0)
            assert d == dims.d_iw(ctx2, k0)
            for ell in range(1, min(d, 6) + 1):
                assert self.k_mid_w(ctx, d - ell) + (p - 1) - k0 == k0 - self.k_mid_w(ctx2, ell - 1)
                assert self.k_max_w(ctx, d - ell) - k0 == p * k0 - self.k_min_tilde_w(ctx2, ell - 1)
                assert self.k_min_tilde_w(ctx, d - ell) - p * k0 == k0 - self.k_max_w(ctx2, ell - 1)

    def test_reflection_identities(self):
        rng = random.Random(13)
        for _ in range(300):
            p = rng.choice((5, 7, 11, 13))
            a = rng.randint(1, p - 4)
            s = rng.randint(0, p - 2)
            ctx = new_context(p, a, s)
            k0 = rng.randint(2, 400)
            ctx2 = new_context(p, a, ctx.res(s + 1 - k0))
            d = dims.d_iw(ctx, k0)
            for ell in range(0, 6):
                assert self.k_mid_w(ctx, d + ell) - k0 == self.k_mid_w(ctx2, ell) - (2 - k0)
                assert self.k_max_w(ctx, d + ell) - k0 == self.k_min_tilde_w(ctx2, ell) - p * (2 - k0) - (p - 1)
                assert self.k_min_tilde_w(ctx, d + ell) - p * k0 - (p - 1) == self.k_max_w(ctx2, ell) - (2 - k0)


class TestOracles:
    def test_power_basis_examples(self):
        ctx = new_context(7, 2, 0)
        assert dims.d_iw_power_basis_oracle(ctx, 10) == 4  # degrees 0, 2, 6, 8
        assert dims.d_iw_power_basis_oracle(ctx, 2) == 1  # degree 0 only

    def test_power_basis_agreement_sampled(self):
        for ctx in contexts():
            for k in range(2, 800):
                assert dims.d_iw_power_basis_oracle(ctx, k) == dims.d_iw(ctx, k)

    def test_jh_examples(self):
        assert dims.d_ur_jh_oracle(new_context(7, 2, 0), 16) == 1
        assert dims.d_ur_jh_oracle(new_context(7, 2, 3), 28) == 1

    def test_jh_agreement_sampled(self):
        for ctx in contexts():
            for kb in range(0, 120):
                k = ctx.weight_of_bullet(kb)
                assert dims.d_ur_jh_oracle(ctx, k) == dims.d_ur(ctx, k), (ctx, k)


class TestJumpWindows:
    @staticmethod
    def direct(ctx, start, stop):
        return [(dims.k_min_bullet(ctx, n), dims.k_mid_bullet(ctx, n), dims.k_max_bullet(ctx, n))
                for n in range(start, stop)]

    def test_matches_the_formulas(self):
        rng = random.Random(17)
        for ctx in contexts():
            dims._window_table.cache_clear()
            for _ in range(6):
                start = rng.randint(0, 200)
                stop = start + rng.randint(0, 120)
                assert dims.jump_windows(ctx, start, stop) == self.direct(ctx, start, stop)

    def test_every_index_to_10000_in_any_order(self):
        # every triple with p <= 13; the table grows to the largest stop
        # asked for, and later ranges read back below and inside it
        grid = [(p, a) for p in (5, 7, 11, 13) for a in range(1, p - 3)]
        ranges = ((300, 900), (0, 50), (5000, 10_001), (20, 7000), (9000, 9500), (12, 3),
                  (0, 10_001))
        for ctx in contexts(grid):
            dims._window_table.cache_clear()
            direct = self.direct(ctx, 0, 10_001)
            for start, stop in ranges:
                assert dims.jump_windows(ctx, start, stop) == direct[start:stop], ctx
            assert [len(column) for column in dims._window_table(ctx)] == [10_001] * 2
        dims._window_table.cache_clear()

    def test_the_table_stops_at_the_largest_evaluator(self):
        # one profile at k_bullet 5000 grows one evaluator; the table holds
        # the windows of the indices that evaluator stores and no more
        ctx = new_context(5, 1, 1)
        clear_context_caches()
        k = ctx.weight_of_bullet(5000)
        steinberg.delta_profile(ctx, k)
        stored = len(ghost.classical_evaluator(ctx, k)._scaled)  # indices 0 .. stored - 1
        assert stored > 5000
        assert [len(column) for column in dims._window_table(ctx)] == [stored - 1] * 2
        clear_context_caches()

    @pytest.mark.parametrize("r", [INF, Fraction(7, 2)])
    def test_a_refused_growth_changes_nothing(self, monkeypatch, r):
        # the limit admits the table up to index 99, exactly MAX_WEIGHTS
        # weights; an evaluator's growth past it raises before the table
        # columns, the store (an array at r = INF, a list at D = 2) or the
        # cursors change
        ctx = new_context(7, 2, 4)
        clear_context_caches()
        monkeypatch.setattr(dims, "MAX_WEIGHTS", dims.k_max_bullet(ctx, 99) + 1)
        k0 = ctx.weight_of_bullet(30)
        ev = ghost.JumpEvaluator(ctx, k0, r)
        ev.grow(50)
        table = dims._window_table(ctx)

        def state():
            return ([list(column) for column in table], list(ev._scaled), list(ev._cursors),
                    list(ev._levels))

        before = state()
        with pytest.raises(ValueError, match="limit"):
            ev.grow(101)
        with pytest.raises(ValueError, match="limit"):
            ev.scaled(0, 102)
        assert state() == before
        # a read within the limit then equals a fresh evaluator's, and the
        # limit is inclusive: the table grows to index 99
        assert ev.scaled(0, 101) == ghost.JumpEvaluator(ctx, k0, r).scaled(0, 101)
        assert [len(column) for column in table] == [100, 100]
        clear_context_caches()

    def test_window_ends_are_nondecreasing(self):
        # the jump evaluator sizes its level table from the last window
        for ctx in contexts():
            ends = self.direct(ctx, 0, 400)
            for prev, nxt in zip(ends, ends[1:]):
                assert all(a <= b for a, b in zip(prev, nxt)), ctx
