import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ghostline import ghost_series as ghost
from ghostline import newton, steinberg
from ghostline.valuation import INF, vp_int
from ghostline.weight_space import (
    Boundary,
    Classical,
    Perturbed,
    _Record,
    format_point,
    format_rational,
    new_context,
    parse_point,
    parse_rational,
    vp_between_weights,
    vp_point_to_weight,
)


class TestNewContext:
    def test_derived_constants(self):
        ctx = new_context(7, 2, 0)
        assert (ctx.k_eps, ctx.delta_eps, ctx.t1, ctx.t2) == (4, 0, 0, 4)
        ctx = new_context(7, 2, 4)  # a + s >= p - 1 branch
        assert (ctx.k_eps, ctx.delta_eps, ctx.t1, ctx.t2) == (6, 0, 1, 5)
        ctx = new_context(7, 2, 2)  # a + s < p - 1 with delta = 1
        assert (ctx.k_eps, ctx.delta_eps, ctx.t1, ctx.t2) == (2, 1, 3, 7)

    def test_beta_parity_values(self):
        ctx = new_context(7, 2, 4)
        assert ctx.beta_even == ctx.t1 == 1
        assert ctx.beta_odd == ctx.t2 - 4 == 1
        assert ctx.beta(0) == ctx.beta(-2) == ctx.beta_even
        assert ctx.beta(3) == ctx.beta(-1) == ctx.beta_odd

    @pytest.mark.parametrize(
        "p,a,s,msg",
        [
            (6, 1, 0, "prime"),
            (3, 1, 0, "prime"),
            (7, 0, 0, "a must"),
            (7, 4, 0, "a must"),
            (7, 2, -1, "s_eps"),
            (7, 2, 6, "s_eps"),
        ],
    )
    def test_rejects_out_of_range(self, p, a, s, msg):
        with pytest.raises(ValueError, match=msg):
            new_context(p, a, s)

    def test_delta_identity_everywhere(self):
        for p in (5, 7, 11, 13):
            for a in range(1, p - 3):
                for s in range(0, p - 1):
                    ctx = new_context(p, a, s)
                    lhs = (p - 1) * ctx.delta_eps + ctx.res(a + 2 * s)
                    assert lhs == s + ctx.res(a + s)

    def test_bullet_roundtrip(self):
        ctx = new_context(7, 2, 4)
        assert ctx.bullet(18) == 2 and ctx.weight_of_bullet(2) == 18
        with pytest.raises(ValueError):
            ctx.bullet(19)


class TestVpBetweenWeights:
    def test_examples(self):
        ctx = new_context(7, 2, 0)
        assert vp_between_weights(ctx, 10, 16) == 1
        assert vp_between_weights(ctx, 18, 60) == 2
        assert vp_between_weights(ctx, 31, 31) is INF

    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_symmetry(self, k1, k2):
        ctx = new_context(7, 2, 0)
        assert vp_between_weights(ctx, k1, k2) == vp_between_weights(ctx, k2, k1)


points = st.one_of(
    st.integers(-60, 120).map(Classical),
    st.builds(
        Perturbed,
        st.integers(-60, 120),
        st.fractions(min_value=Fraction(1, 6), max_value=Fraction(12)),
    ),
    st.builds(Boundary, st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9))),
)


class TestVpPointToWeight:
    def test_examples(self):
        ctx = new_context(7, 2, 0)
        assert vp_point_to_weight(ctx, Perturbed(18, Fraction(5)), 18) == 5
        assert vp_point_to_weight(ctx, Perturbed(18, Fraction(5)), 24) == 1
        assert vp_point_to_weight(ctx, Boundary(Fraction(1, 2)), 100) == Fraction(1, 2)
        assert vp_point_to_weight(ctx, Classical(18), 18) is INF
        assert vp_point_to_weight(ctx, Classical(18), 60) == 2

    def test_boundary_profile_constant(self):
        ctx = new_context(11, 3, 5)
        w = Boundary(Fraction(2, 3))
        assert len({vp_point_to_weight(ctx, w, k) for k in range(2, 300)}) == 1

    @given(points, st.integers(-60, 120), st.integers(-60, 120))
    @settings(max_examples=300)
    def test_ultrametric(self, w, k, k2):
        ctx = new_context(7, 2, 0)
        d_wk = vp_point_to_weight(ctx, w, k)
        d_wk2 = vp_point_to_weight(ctx, w, k2)
        d_kk2 = vp_between_weights(ctx, k, k2)
        assert d_wk >= min(d_wk2, d_kk2)
        if d_wk2 != d_kk2:
            assert d_wk == min(d_wk2, d_kk2)

    def test_perturbation_radius_positive(self):
        with pytest.raises(ValueError):
            Perturbed(18, Fraction(0))
        with pytest.raises(ValueError):
            Boundary(Fraction(1))


def _vp_by_kind(ctx, w, k):
    """The distance profile decided by point kind, one branch per kind."""
    if isinstance(w, Classical):
        return vp_between_weights(ctx, w.k, k)
    if isinstance(w, Perturbed):
        if w.k0 == k:
            return w.r
        return min(w.r, 1 + vp_int(w.k0 - k, ctx.p))
    if isinstance(w, Boundary):
        return w.t
    raise TypeError(f"not a weight point: {w!r}")


def _min_factor_by_kind(w):
    if isinstance(w, Classical):
        return Fraction(1)
    if isinstance(w, Perturbed):
        return min(w.r, Fraction(1))
    if isinstance(w, Boundary):
        return w.t
    raise TypeError(f"not a weight point: {w!r}")


class TestPointModel:
    """Every point is a base weight k0 and a radius r; the one profile rule
    must agree with the kind-by-kind rule it replaced."""

    def test_attributes(self):
        assert Classical(18).k0 == 18 and Classical(18).r is INF
        assert Boundary(Fraction(1, 3)).k0 is None
        assert Boundary(Fraction(1, 3)).r == Fraction(1, 3)
        w = Perturbed(18, Fraction(5, 2))
        assert (w.k0, w.r) == (18, Fraction(5, 2))

    def test_fields_unchanged(self):
        names = lambda cls: list(cls.__annotations__.items())
        assert names(Classical) == [("k", "int")]
        assert names(Perturbed) == [("k0", "int"), ("r", "Fraction")]
        assert names(Boundary) == [("t", "Fraction")]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_profile_matches_kind_rule(self, p):
        rng = random.Random(p)
        radii = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), Fraction(1), Fraction(2),
                 Fraction(3), Fraction(7, 2), Fraction(8, 3), Fraction(10001, 3)]
        for a in range(1, p - 3):
            ctx = new_context(p, a, rng.randint(0, p - 2))
            on_class = [ctx.weight_of_bullet(kb) for kb in (0, 1, 2, p, p * p + 1)]
            bases = on_class + [ctx.k_eps + 1, 1, 0, -3]  # off the class, below 2
            points = [Classical(k0) for k0 in bases]
            points += [Perturbed(k0, r) for k0 in bases for r in radii]
            points += [Boundary(t) for t in radii if t < 1]
            for w in points:
                ks = set(range(-5, 60)) | {b + j * p ** e for b in bases
                                           for j in (-1, 1) for e in (1, 2, 3)}
                for k in sorted(ks | set(bases)):
                    got, want = vp_point_to_weight(ctx, w, k), _vp_by_kind(ctx, w, k)
                    assert got == want and type(got) is type(want), (w, k)
                ev = ghost.JumpEvaluator(ctx, w.k0, w.r)
                assert ev.base == _min_factor_by_kind(w) * ev.den, w
                assert type(ev.base) is int, w

    def test_classical_evaluator_is_shared(self):
        ctx = new_context(7, 2, 4)
        assert ghost.evaluator(ctx, Classical(18)) is ghost.classical_evaluator(ctx, 18)


class TestEncodings:
    def test_parse_examples(self):
        assert parse_point("classical:18") == Classical(18)
        assert parse_point("perturbed:18:5/2") == Perturbed(18, Fraction(5, 2))
        assert parse_point("boundary:1/3") == Boundary(Fraction(1, 3))

    @given(points)
    def test_roundtrip(self, w):
        assert parse_point(format_point(w)) == w

    @pytest.mark.parametrize(
        "bad", ["classical", "perturbed:18", "boundary:3/2", "orbit:1", "classical:x",
                "perturbed:18:1/0", "boundary:1/0", "boundary:0/0"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError, match="bad weight point"):
            parse_point(bad)

    def test_rational_formatting(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(7) == "7/1"
        assert format_rational(INF) == "inf"
        assert parse_rational("-5/10") == Fraction(-1, 2)


#: A builder of each record class and the repr its frozen dataclass had.
RECORDS = [
    (lambda: new_context(7, 2, 4), "GhostContext(p=7, a=2, s_eps=4, k_eps=6, delta_eps=0, "
                                   "t1=1, t2=5, beta_even=1, beta_odd=1)"),
    (lambda: Classical(18), "Classical(k=18)"),
    (lambda: Perturbed(18, Fraction(5, 2)), "Perturbed(k0=18, r=Fraction(5, 2))"),
    (lambda: Boundary(Fraction(1, 3)), "Boundary(t=Fraction(1, 3))"),
    (lambda: ghost.GhostCoefficient(2, ((12, 1), (18, 1))),
     "GhostCoefficient(n=2, factors=((12, 1), (18, 1)))"),
    (lambda: newton.NewtonPolygon((0, 2), (0, Fraction(1, 2))),
     "NewtonPolygon(xs=array('q', [0, 2]), ys=(0, Fraction(1, 2)))"),
    (lambda: steinberg.DeltaProfile(18, (Fraction(1), Fraction(0), Fraction(1)),
                                    newton.NewtonPolygon((-1, 1), (Fraction(1), Fraction(1)))),
     "DeltaProfile(k=18, raw=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)), "
     "hull=NewtonPolygon(xs=array('q', [-1, 1]), ys=(Fraction(1, 1), Fraction(1, 1))))"),
    (lambda: steinberg.NearSteinbergRange(18, 2, 1, 5), "NearSteinbergRange(k=18, L=2, lo=1, hi=5)"),
]
#: A polygon's y column in its other two layouts: machine integers, and a
#: tuple of integers past 64 bits.
POLYGON_LAYOUTS = {
    "NewtonPolygon-machine-ys": (
        lambda: newton.NewtonPolygon((0, 2), (0, -3)),
        "NewtonPolygon(xs=array('q', [0, 2]), ys=array('q', [0, -3]))"),
    "NewtonPolygon-wide-ys": (
        lambda: newton.NewtonPolygon((0, 2, 5), (0, 1, 2**70)),
        "NewtonPolygon(xs=array('q', [0, 2, 5]), ys=(0, 1, 1180591620717411303424))"),
}
RECORD_CASES = RECORDS + list(POLYGON_LAYOUTS.values())
RECORD_IDS = [t.partition("(")[0] for _, t in RECORDS] + list(POLYGON_LAYOUTS)


def _record_classes(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


class TestRecords:
    """The record classes keep the equality, hashing, reprs and read-only
    fields they had as dataclasses, and every one of them is slotted."""

    @pytest.mark.parametrize("build, text", RECORD_CASES, ids=RECORD_IDS)
    def test_behaves_as_before(self, build, text):
        a, b = build(), build()
        fields = list(type(a).__annotations__)
        values = tuple(getattr(a, f) for f in fields)
        assert a is not b and a == b and not a != b
        assert repr(a) == text
        assert a != values and type(a)(*values) == a
        assert not hasattr(a, "__dict__")
        assert hash(a) == hash(b)
        for name, value in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b

    @pytest.mark.parametrize("build, text", RECORD_CASES, ids=RECORD_IDS)
    def test_pickle_and_copy_round_trip(self, build, text):
        a = build()
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(twin) is type(a) and twin == a and repr(twin) == text

    def test_no_record_has_an_instance_dict(self):
        # a grid worker caches hundreds of polygons and profiles, and a
        # per-instance __dict__ would cost each of them its own table
        from ghostline import verify  # noqa: F401 -- every module that defines a record

        classes = list(_record_classes())
        names = {cls.__name__ for cls in classes}
        assert {"GhostContext", "Classical", "Perturbed", "Boundary", "GhostCoefficient",
                "NewtonPolygon", "DeltaProfile", "NearSteinbergRange"} <= names
        for cls in classes:
            assert not hasattr(object.__new__(cls), "__dict__"), cls
            assert set(cls._fields) <= set(cls.__slots__), cls

    def test_jump_evaluators_have_no_instance_dict(self):
        # a p = 13 triple caches a few hundred evaluators, of every point kind
        for w in (Classical(18), Perturbed(18, Fraction(5, 2)), Boundary(Fraction(1, 3))):
            ev = ghost.JumpEvaluator(new_context(7, 2, 4), w.k0, w.r)
            ev.grow(40)
            assert not hasattr(ev, "__dict__"), w
            with pytest.raises(AttributeError):
                ev.cache = {}

    def test_other_kinds_or_values_differ(self):
        class Twin(_Record):
            __slots__ = ("k",)
            k: int

        assert Twin(18) != Classical(18) and Classical(18) != Twin(18)
        assert Classical(18) != Perturbed(18, 1)
        assert steinberg.NearSteinbergRange(18, 2, 1, 5) != steinberg.NearSteinbergRange(18, 2, 1, 6)

    def test_points_coerce_their_radius(self):
        assert type(Perturbed(18, 2).r) is Fraction and Perturbed(18, 2) == Perturbed(18, Fraction(2))
        assert Boundary("1/3") == Boundary(Fraction(1, 3))
        with pytest.raises(ValueError, match="must lie in"):
            Boundary(1)
