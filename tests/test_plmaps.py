"""Dyadic chart, model translations, slopes, fixed sets, affine conjugation."""

import random
from fractions import Fraction

import pytest
from helpers import (
    rand_interior,
    rand_model,
    rand_pl_expr,
    rand_plmap,
    slope_quotient_oracle as quotient_oracle,
)

from nonsmooth.errors import (
    AccumulationPoint,
    BadInterval,
    NotModelGerm,
    OutOfDomain,
    Unsupported,
)
from nonsmooth.plmaps import (
    LEFT,
    RIGHT,
    AffineChart,
    IntervalMapExpr,
    ModelTranslation,
    PLMap,
    anchor,
    as_expr,
    base_cell_shift,
    cell_midpoint,
    cell_shift,
    cell_width,
    chart_index,
    chart_shift,
    fixed_set,
    from_chart,
    germ_slope,
    limit_slope,
    one_sided_slope,
    to_chart,
)

T = chart_shift()
S = base_cell_shift()


def secant_oracle(m, endpoint, depth=50):
    # secants against exact anchor points approaching the support endpoint
    lo, hi = m.support
    if endpoint == LEFT:
        x = lo + anchor(-depth) * (hi - lo)
        return (m.apply(x) - lo) / (x - lo)
    x = lo + anchor(depth) * (hi - lo)
    return (m.apply(x) - hi) / (x - hi)


class TestChart:
    def test_frozen_anchors(self):
        assert anchor(0) == Fraction(1, 2)
        assert anchor(1) == Fraction(2, 3)
        assert anchor(2) == Fraction(4, 5)
        assert anchor(-1) == Fraction(1, 3)
        assert anchor(-2) == Fraction(1, 5)

    def test_chart_index_frozen(self):
        assert chart_index(Fraction(1, 2)) == 0
        assert chart_index(Fraction(7, 12)) == 0
        assert chart_index(Fraction(2, 3)) == 1
        assert chart_index(Fraction(1, 3)) == -1
        assert chart_index(Fraction(999, 1000)) == 9

    def test_chart_index_brackets_point(self):
        rng = random.Random(301)
        for _ in range(1000):
            x = rand_interior(rng)
            i = chart_index(x)
            assert anchor(i) <= x < anchor(i + 1)

    def test_chart_index_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(5, 4)):
            with pytest.raises(OutOfDomain):
                chart_index(bad)

    def test_roundtrip(self):
        rng = random.Random(302)
        for _ in range(500):
            t = Fraction(rng.randint(-1200, 1200), 120)
            assert to_chart(from_chart(t)) == t

    def test_anchor_values_of_chart(self):
        for i in range(-20, 21):
            assert from_chart(i) == anchor(i)

    def test_translation_identity(self):
        # shifting the chart coordinate by one is the same as applying T
        rng = random.Random(303)
        for _ in range(100):
            t = Fraction(rng.randint(-1200, 1200), 120)
            assert from_chart(t + 1) == T.apply(from_chart(t))


class TestModelTranslation:
    def test_frozen_values(self):
        assert T.apply(Fraction(1, 2)) == Fraction(2, 3)
        assert S.apply(Fraction(7, 12)) == Fraction(11, 18)

    def test_anchor_orbit(self):
        for i in range(-20, 21):
            assert T.apply(anchor(i)) == anchor(i + 1)

    def test_endpoints_fixed(self):
        assert T.apply(0) == 0
        assert T.apply(1) == 1
        assert IntervalMapExpr.identity().apply(Fraction(1, 3)) == Fraction(1, 3)

    def test_fixes_complement_of_support(self):
        for x in (0, Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), 1):
            assert S.apply(x) == Fraction(x)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            T.apply(Fraction(-1, 2))
        with pytest.raises(OutOfDomain):
            S.apply(Fraction(3, 2))

    def test_bad_support(self):
        with pytest.raises(BadInterval):
            ModelTranslation((Fraction(2, 3), Fraction(1, 2)), 1)
        with pytest.raises(BadInterval):
            ModelTranslation((Fraction(-1, 4), Fraction(1, 2)), 1)

    def test_strictly_increasing(self):
        rng = random.Random(304)
        for _ in range(1000):
            m = rand_model(rng)
            x, y = rand_interior(rng), rand_interior(rng)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            assert m.apply(x) < m.apply(y)

    def test_inverse_roundtrip(self):
        rng = random.Random(305)
        for _ in range(500):
            m = rand_model(rng)
            x = rand_interior(rng)
            assert m.inverse().apply(m.apply(x)) == x

    def test_power_matches_iteration(self):
        rng = random.Random(306)
        for _ in range(200):
            lo, hi = sorted(rng.sample(range(7), 2))
            m1 = ModelTranslation((Fraction(lo, 6), Fraction(hi, 6)), 1)
            m3 = ModelTranslation((Fraction(lo, 6), Fraction(hi, 6)), 3)
            x = rand_interior(rng)
            assert m3.apply(x) == m1.apply(m1.apply(m1.apply(x)))


class TestSlopes:
    def test_frozen_base_cell_slope(self):
        # T is affine between consecutive anchors with slope 4/5 on the base cell
        assert one_sided_slope(T, Fraction(7, 12), LEFT) == Fraction(4, 5)
        assert one_sided_slope(T, Fraction(7, 12), RIGHT) == Fraction(4, 5)
        assert one_sided_slope(T, Fraction(1, 2), RIGHT) == Fraction(4, 5)
        assert one_sided_slope(T, Fraction(1, 2), LEFT) == 1

    def test_identity_slope(self):
        assert one_sided_slope(IntervalMapExpr.identity(), Fraction(1, 3), LEFT) == 1

    def test_witness_slopes_frozen(self):
        # the one-sided slopes of powers of S at the base cell midpoint that
        # drive the derivative witness: first power with both sides < 1/2 is 4
        p0 = cell_midpoint(0)
        assert p0 == Fraction(7, 12)
        assert one_sided_slope(base_cell_shift(3), p0, RIGHT) == Fraction(16, 51)
        assert one_sided_slope(base_cell_shift(3), p0, LEFT) == Fraction(8, 15)
        assert one_sided_slope(base_cell_shift(4), p0, LEFT) == Fraction(16, 51)
        assert one_sided_slope(base_cell_shift(4), p0, RIGHT) == Fraction(32, 187)
        assert one_sided_slope(base_cell_shift(2), p0, RIGHT) == Fraction(8, 15)

    def test_chain_rule(self):
        rng = random.Random(307)
        tt = IntervalMapExpr((T, T))
        for _ in range(500):
            x = rand_interior(rng)
            lhs = one_sided_slope(tt, x, RIGHT)
            assert lhs == one_sided_slope(T, T.apply(x), RIGHT) * one_sided_slope(T, x, RIGHT)

    def test_against_difference_quotients(self):
        rng = random.Random(308)
        checked = 0
        while checked < 200:
            m = rand_pl_expr(rng)
            x = rand_interior(rng)
            side = LEFT if rng.random() < 0.5 else RIGHT
            try:
                want = one_sided_slope(m, x, side)
            except AccumulationPoint:
                continue
            assert quotient_oracle(m, x, side) == want
            checked += 1

    def test_accumulation_point(self):
        with pytest.raises(AccumulationPoint):
            one_sided_slope(S, Fraction(1, 2), RIGHT)
        with pytest.raises(AccumulationPoint):
            one_sided_slope(S, Fraction(2, 3), LEFT)
        assert one_sided_slope(S, Fraction(1, 2), LEFT) == 1
        assert one_sided_slope(S, Fraction(2, 3), RIGHT) == 1

    def test_germ_slope(self):
        half = Fraction(1, 2)
        assert germ_slope(S, half, RIGHT) == 2
        assert germ_slope(S.inverse(), half, RIGHT) == Fraction(1, 2)
        assert germ_slope(IntervalMapExpr((S, S)), half, RIGHT) == 4
        assert germ_slope(S, Fraction(2, 3), LEFT) == Fraction(1, 2)
        rng = random.Random(309)
        for _ in range(100):
            m = rand_pl_expr(rng)
            x = rand_interior(rng)
            try:
                want = one_sided_slope(m, x, RIGHT)
            except AccumulationPoint:
                continue
            assert germ_slope(m, x, RIGHT) == want


class TestLimitSlope:
    def test_frozen(self):
        assert limit_slope(S, LEFT) == 2
        assert limit_slope(S, RIGHT) == Fraction(1, 2)
        assert limit_slope(S.inverse(), LEFT) == Fraction(1, 2)
        assert limit_slope(ModelTranslation((0, 1), 0), LEFT) == 1
        assert limit_slope(IntervalMapExpr((S, S, S)), LEFT) == 8

    def test_secant_oracle(self):
        rng = random.Random(310)
        tiny = Fraction(1, 10**9)
        for _ in range(20):
            m = rand_model(rng)
            for endpoint in (LEFT, RIGHT):
                lim = limit_slope(m, endpoint)
                assert abs(secant_oracle(m, endpoint) - lim) < tiny
                near = secant_oracle(m, endpoint, depth=30)
                far = secant_oracle(m, endpoint, depth=60)
                assert abs(far - lim) <= abs(near - lim)

    def test_not_model_germ(self):
        with pytest.raises(NotModelGerm):
            limit_slope(PLMap.identity(), LEFT)
        with pytest.raises(NotModelGerm):
            limit_slope(IntervalMapExpr((S, T)), LEFT)


class TestFixedSet:
    def test_model_translation(self):
        assert fixed_set(S) == ((Fraction(0), Fraction(1, 2)), (Fraction(2, 3), Fraction(1)))
        assert fixed_set(T) == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))

    def test_identity(self):
        assert fixed_set(IntervalMapExpr.identity()) == ((Fraction(0), Fraction(1)),)
        assert fixed_set(ModelTranslation((0, 1), 0)) == ((Fraction(0), Fraction(1)),)

    def test_disjoint_product(self):
        z = IntervalMapExpr((cell_shift(0, 1), cell_shift(1, 2)))
        assert fixed_set(z) == (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(2, 3), Fraction(2, 3)),
            (Fraction(4, 5), Fraction(1)),
        )

    def test_cancelling_product(self):
        z = IntervalMapExpr((S, S.inverse()))
        assert fixed_set(z) == ((Fraction(0), Fraction(1)),)

    def test_pl_crossing(self):
        f = PLMap([(0, 0), (Fraction(1, 4), Fraction(1, 2)),
                   (Fraction(3, 4), Fraction(5, 8)), (1, 1)])
        assert fixed_set(f) == (
            (Fraction(0), Fraction(0)),
            (Fraction(7, 12), Fraction(7, 12)),
            (Fraction(1), Fraction(1)),
        )

    def test_pl_flat_segment(self):
        f = PLMap([(0, 0), (Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(3, 4), Fraction(7, 8)), (1, 1)])
        assert fixed_set(f) == ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1)))

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            fixed_set(IntervalMapExpr((S, PLMap.identity())))
        with pytest.raises(Unsupported):
            fixed_set(IntervalMapExpr((
                ModelTranslation((0, Fraction(2, 3)), 1),
                ModelTranslation((Fraction(1, 2), 1), 1),
            )))

    def test_pieces_are_fixed_and_gaps_move(self):
        rng = random.Random(311)
        for _ in range(100):
            f = rand_plmap(rng)
            pieces = fixed_set(f)
            for lo, hi in pieces:
                assert f.apply(lo) == lo
                assert f.apply(hi) == hi
            for (_, hi0), (lo1, _) in zip(pieces, pieces[1:]):
                mid = (hi0 + lo1) / 2
                assert f.apply(mid) != mid


class TestConjugation:
    def test_chart_endpoints(self):
        theta = AffineChart(Fraction(1, 2), Fraction(2, 3))
        assert theta.apply(0) == Fraction(1, 2)
        assert theta.apply(1) == Fraction(2, 3)
        assert theta.invert(Fraction(7, 12)) == Fraction(1, 2)

    def test_bad_interval(self):
        for lo, hi in ((Fraction(2, 3), Fraction(1, 2)),
                       (Fraction(0), Fraction(1, 2)),
                       (Fraction(1, 4), Fraction(1))):
            with pytest.raises(BadInterval):
                AffineChart(lo, hi)

    def test_conjugating_chart_shift_gives_base_cell_shift(self):
        theta = AffineChart(Fraction(1, 2), Fraction(2, 3))
        assert theta.conjugate(T) == S

    def test_conjugate_fixes_complement(self):
        rng = random.Random(312)
        theta = AffineChart(Fraction(1, 3), Fraction(3, 4))
        conj = theta.conjugate(rand_pl_expr(rng))
        for _ in range(200):
            x = rand_interior(rng)
            if x <= theta.lo or x >= theta.hi:
                assert conj.apply(x) == x

    def test_conjugate_matches_formula(self):
        rng = random.Random(313)
        for _ in range(200):
            theta = AffineChart(Fraction(1, 5), Fraction(4, 5))
            f = rand_pl_expr(rng)
            u = rand_interior(rng)
            assert theta.conjugate(f).apply(theta.apply(u)) == theta.apply(f.apply(u))


class TestExpressions:
    def test_compose_is_pointwise(self):
        rng = random.Random(314)
        for _ in range(1000):
            f, g = rand_pl_expr(rng), rand_pl_expr(rng)
            x = rand_interior(rng)
            assert f.compose(g).apply(x) == f.apply(g.apply(x))

    def test_strictly_increasing(self):
        rng = random.Random(315)
        for _ in range(1000):
            f = rand_pl_expr(rng)
            x, y = rand_interior(rng), rand_interior(rng)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            assert f.apply(x) < f.apply(y)

    def test_inverse_roundtrip(self):
        rng = random.Random(316)
        for _ in range(300):
            f = rand_pl_expr(rng)
            x = rand_interior(rng)
            assert f.apply(f.inverse().apply(x)) == x

    def test_pl_merge_composition_oracle(self):
        rng = random.Random(317)
        for _ in range(300):
            f, g = rand_plmap(rng), rand_plmap(rng)
            merged = f.compose(g)
            x = rand_interior(rng)
            assert merged.apply(x) == IntervalMapExpr((f, g)).apply(x)
        f = rand_plmap(rng)
        assert f.compose(f.inverse()) == PLMap.identity()

    def test_powers(self):
        rng = random.Random(318)
        f = IntervalMapExpr((S,))
        x = rand_interior(rng)
        assert (f ** 3).apply(x) == f.apply(f.apply(f.apply(x)))
        assert (f ** 0).apply(x) == x
        assert (f ** -2).apply(f.apply(f.apply(x))) == x


class TestCellShifts:
    def test_base_cell(self):
        assert cell_shift(0, 1) == S
        assert S == ModelTranslation((Fraction(1, 2), Fraction(2, 3)), 1)

    def test_supports(self):
        for i in range(-5, 6):
            m = cell_shift(i)
            assert m.support == (anchor(i), anchor(i + 1))
            assert cell_width(i) == anchor(i + 1) - anchor(i)

    def test_conjugation_identity(self):
        # cell_shift(i, k) agrees pointwise with the conjugate of the base
        # cell shift by the i-th chart shift
        rng = random.Random(320)
        for _ in range(200):
            i = rng.randint(-4, 4)
            k = rng.randint(-3, 3)
            x = rand_interior(rng)
            conj = IntervalMapExpr((chart_shift(i), base_cell_shift(k), chart_shift(-i)))
            assert cell_shift(i, k).apply(x) == conj.apply(x)

    def test_midpoints(self):
        assert cell_midpoint(0) == Fraction(7, 12)
        for i in range(-6, 7):
            assert anchor(i) < cell_midpoint(i) < anchor(i + 1)
