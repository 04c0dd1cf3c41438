"""Dyadic chart, model translations, slopes, affine conjugation."""

import random
from fractions import Fraction
from math import gcd

import pytest
from helpers import (
    MAX_EXPR_FACTORS,
    AffineChart,
    IntervalMapExpr,
    cell_midpoint_oracle,
    cell_width,
    chart_shift_slope,
    germ_slope,
    pl_compose,
    pow2,
    rand_interior,
    rand_model,
    rand_pl_expr,
    rand_plmap,
    slope_quotient_oracle as quotient_oracle,
)

from nonsmooth.errors import (
    AccumulationPoint,
    BadInterval,
    OutOfDomain,
    Unsupported,
)
from nonsmooth.plmaps import (
    LEFT,
    RIGHT,
    ModelTranslation,
    PLMap,
    anchor,
    anchor_pair,
    base_cell_shift,
    cell_shift,
    chart_index,
    chart_index_pair,
    chart_shift,
    from_chart,
    midpoint_pair,
    to_chart,
)

T = chart_shift()
S = base_cell_shift()


class TestChart:
    def test_frozen_anchors(self):
        assert anchor(0) == Fraction(1, 2)
        assert anchor(1) == Fraction(2, 3)
        assert anchor(2) == Fraction(4, 5)
        assert anchor(-1) == Fraction(1, 3)
        assert anchor(-2) == Fraction(1, 5)

    def test_closed_forms_match_definitions(self):
        # the defining formulas, kept here as the reference
        def ref_anchor(i):
            return pow2(i) / (pow2(i) + 1)

        for i in range(-300, 301):
            assert anchor(i) == ref_anchor(i)
            assert cell_width(i) == ref_anchor(i + 1) - ref_anchor(i)

    def test_chart_index_frozen(self):
        assert chart_index(Fraction(1, 2)) == 0
        assert chart_index(Fraction(7, 12)) == 0
        assert chart_index(Fraction(2, 3)) == 1
        assert chart_index(Fraction(1, 3)) == -1
        assert chart_index(Fraction(999, 1000)) == 9

    def test_chart_index_brackets_point(self):
        rng = random.Random(301)
        points = [rand_interior(rng) for _ in range(1000)]
        points += [anchor(i) for i in range(-300, 301)]
        points += [rand_interior(rng, rng.randint(2, 1 << 200))
                   for _ in range(1000)]
        for x in points:
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

    def test_pair_forms_match_fraction_definitions(self):
        # from_chart and to_chart on integer pairs against their Fraction
        # definitions, over cells far from 0 and points with long pairs
        rng = random.Random(3402)
        for _ in range(400):
            q = rng.choice((1, 2, 3, 120, rng.randint(1, 10 ** 12)))
            t = Fraction(rng.randint(-300 * q, 300 * q), q)
            i = t.numerator // t.denominator
            x = anchor(i) + (t - i) * cell_width(i)
            assert from_chart(t) == x, t
            assert to_chart(x) == i + (x - anchor(i)) / cell_width(i) == t, t
            y = anchor(i) + rand_interior(rng) * cell_width(i)
            assert to_chart(y) == i + (y - anchor(i)) / cell_width(i), y

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
        assert IntervalMapExpr().apply(Fraction(1, 3)) == Fraction(1, 3)

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
        assert T.one_sided_slope(Fraction(7, 12), LEFT) == Fraction(4, 5)
        assert T.one_sided_slope(Fraction(7, 12), RIGHT) == Fraction(4, 5)
        assert T.one_sided_slope(Fraction(1, 2), RIGHT) == Fraction(4, 5)
        assert T.one_sided_slope(Fraction(1, 2), LEFT) == 1

    def test_identity_slope(self):
        assert IntervalMapExpr().one_sided_slope(Fraction(1, 3), LEFT) == 1

    def test_witness_slopes_frozen(self):
        # the one-sided slopes of powers of S at the base cell midpoint that
        # drive the derivative witness: first power with both sides < 1/2 is 4
        p0 = Fraction(*midpoint_pair(0))
        assert p0 == Fraction(7, 12)
        assert base_cell_shift(3).one_sided_slope(p0, RIGHT) == Fraction(16, 51)
        assert base_cell_shift(3).one_sided_slope(p0, LEFT) == Fraction(8, 15)
        assert base_cell_shift(4).one_sided_slope(p0, LEFT) == Fraction(16, 51)
        assert base_cell_shift(4).one_sided_slope(p0, RIGHT) == Fraction(32, 187)
        assert base_cell_shift(2).one_sided_slope(p0, RIGHT) == Fraction(8, 15)

    def test_chain_rule(self):
        rng = random.Random(307)
        tt = IntervalMapExpr((T, T))
        for _ in range(500):
            x = rand_interior(rng)
            lhs = tt.one_sided_slope(x, RIGHT)
            assert lhs == T.one_sided_slope(T.apply(x), RIGHT) * T.one_sided_slope(x, RIGHT)

    def test_against_difference_quotients(self):
        rng = random.Random(308)
        checked = 0
        while checked < 200:
            m = rand_pl_expr(rng)
            x = rand_interior(rng)
            side = LEFT if rng.random() < 0.5 else RIGHT
            try:
                want = m.one_sided_slope(x, side)
            except AccumulationPoint:
                continue
            assert quotient_oracle(m, x, side) == want
            checked += 1

    def test_chart_shift_slope_at_anchors(self):
        # an integer t is the anchor between two cells: the left slope is
        # the lower cell's width ratio, the right slope the upper cell's
        for j in range(-40, 41):
            for p in (-37, -3, -1, 0, 1, 2, 5, 40):
                for side in (LEFT, RIGHT):
                    assert (chart_shift_slope(j, p, side)
                            == chart_shift(p).one_sided_slope(anchor(j), side))
        assert chart_shift_slope(0, 1, LEFT) == 1
        assert chart_shift_slope(0, 1, RIGHT) == Fraction(4, 5)

    def test_chart_shift_slope_inside_cells(self):
        rng = random.Random(310)
        for _ in range(300):
            t = Fraction(rng.randint(-2000, 2000), rng.randint(2, 9))
            if t.denominator == 1:
                continue
            p = rng.randint(-60, 60)
            x = from_chart(t)
            for side in (LEFT, RIGHT):
                assert (chart_shift_slope(t, p, side)
                        == chart_shift(p).one_sided_slope(x, side))

    def test_chart_shift_slope_at_zz_sizes(self):
        # zz_slope_chain shifts by -i and i with |i| up to the truncation cap
        # of 5000; at an integer t the left slope is the lower cell's
        rng = random.Random(311)
        crossed = 0
        for _ in range(300):
            j = rng.randint(-5000, 5000)
            p = rng.randint(-5000, 5000)
            crossed += (j < 0) != (j + p < 0)
            for t in (Fraction(j), j + Fraction(1, 2)):
                for side in (LEFT, RIGHT):
                    cell = j - 1 if side == LEFT and t == j else j
                    assert (chart_shift_slope(t, p, side)
                            == cell_width(cell + p) / cell_width(cell)), (t, p)
        assert crossed > 50

    def test_chart_shift_slope_bad_side(self):
        with pytest.raises(ValueError):
            chart_shift_slope(Fraction(1, 2), 1, "up")

    def test_accumulation_point(self):
        with pytest.raises(AccumulationPoint):
            S.one_sided_slope(Fraction(1, 2), RIGHT)
        with pytest.raises(AccumulationPoint):
            S.one_sided_slope(Fraction(2, 3), LEFT)
        assert S.one_sided_slope(Fraction(1, 2), LEFT) == 1
        assert S.one_sided_slope(Fraction(2, 3), RIGHT) == 1

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
                want = m.one_sided_slope(x, RIGHT)
            except AccumulationPoint:
                continue
            assert germ_slope(m, x, RIGHT) == want


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
            merged = pl_compose(f, g)
            x = rand_interior(rng)
            assert merged.apply(x) == IntervalMapExpr((f, g)).apply(x)
        f = rand_plmap(rng)
        assert pl_compose(f, f.inverse()) == PLMap([(0, 0), (1, 1)])

    def test_powers(self):
        rng = random.Random(318)
        f = IntervalMapExpr((S,))
        x = rand_interior(rng)
        assert (f ** 3).apply(x) == f.apply(f.apply(f.apply(x)))
        assert (f ** 0).apply(x) == x
        assert (f ** -2).apply(f.apply(f.apply(x))) == x

    def test_power_cap(self):
        f = IntervalMapExpr((S, T))
        assert len((f ** (MAX_EXPR_FACTORS // 2)).factors) == MAX_EXPR_FACTORS
        for n in (MAX_EXPR_FACTORS // 2 + 1, -(MAX_EXPR_FACTORS // 2 + 1)):
            with pytest.raises(Unsupported):
                f ** n
        with pytest.raises(Unsupported):
            IntervalMapExpr((S,)) ** 10 ** 12


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
        assert Fraction(*midpoint_pair(0)) == Fraction(7, 12)
        for i in range(-6, 7):
            assert anchor(i) < Fraction(*midpoint_pair(i)) < anchor(i + 1)


class TestPairForms:
    """The integer forms of the chart: each pair is the object form's value
    in lowest terms, and the chart index reads an unreduced pair alike."""

    @staticmethod
    def cells():
        rng = random.Random(330)
        return list(range(-300, 301)) + [rng.randint(-5000, 5000)
                                         for _ in range(50)]

    def test_anchor_pair(self):
        for i in self.cells():
            a, b = anchor_pair(i)
            assert gcd(a, b) == 1 and b > 0
            assert Fraction(a, b) == anchor(i) == pow2(i) / (pow2(i) + 1)

    def test_midpoint_pair_is_the_half_sum_of_anchors(self):
        for i in self.cells():
            n, d = midpoint_pair(i)
            assert gcd(n, d) == 1 and d > 0
            want = cell_midpoint_oracle(i)
            assert (n, d) == (want.numerator, want.denominator), i
            assert Fraction(*midpoint_pair(i)) == want

    def test_chart_index_pair_ignores_scale(self):
        rng = random.Random(331)
        points = [rand_interior(rng) for _ in range(300)]
        points += [anchor(i) for i in range(-60, 61)]
        points += [cell_midpoint_oracle(i) for i in range(-60, 61)]
        points += [rand_interior(rng, rng.randint(2, 1 << 200))
                   for _ in range(300)]
        for x in points:
            n, m = x.numerator, x.denominator
            for k in range(1, 6):
                assert chart_index_pair(k * n, k * m) == chart_index(x), (x, k)
