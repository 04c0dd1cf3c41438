"""The ordered cover line: lifts, fixed-point certificates, compactification."""

import random
from fractions import Fraction

import pytest
from helpers import (
    displacement_growth_check,
    rand_cover,
    rand_lift,
    rand_rat,
    rand_torus_word_matrix,
)

from nonsmooth.cli import point_obj
from nonsmooth.cover import (
    COVER_BASEPOINT,
    TORUS_A,
    TORUS_B,
    CoverPoint,
    LiftedMap,
    compactify,
    cover_cmp,
    fixed_point_lift,
    lift_through,
    line_point,
    uncompactify,
)
from nonsmooth.errors import NoRealFixedPoint, OutOfDomain
from nonsmooth.projline import EQUAL, GREATER, LESS, MoebiusMap, ProjPoint

IDENTITY_LIFT = LiftedMap(MoebiusMap(1, 0, 0, 1), COVER_BASEPOINT)


def cp(t, sheet=0):
    return CoverPoint(ProjPoint.from_affine(Fraction(t)), sheet)


def fraction_compactify(x):
    # independent oracle: sheet + traversal coordinate, squashed into (0, 1)
    if x.base.is_infinite:
        w = Fraction(1, 2)
    else:
        t = x.base.affine()
        w = t / (2 * (1 + t)) if t >= 0 else Fraction(1, 2) + Fraction(1, 2 * (1 - t))
    lam = x.sheet + w
    return (lam / (1 + abs(lam)) + 1) / 2


def fraction_uncompactify(y):
    # independent oracle: invert the squashing, then the traversal coordinate
    mu = 2 * y - 1
    lam = mu / (1 - abs(mu))
    sheet = lam.numerator // lam.denominator
    w = lam - sheet
    if w < Fraction(1, 2):
        base = ProjPoint.from_affine(2 * w / (1 - 2 * w))
    elif w == Fraction(1, 2):
        base = ProjPoint.infinity()
    else:
        base = ProjPoint.from_affine(1 - 1 / (2 * w - 1))
    return CoverPoint(base, sheet)


def matmul2(m, n):
    # independent oracle: plain integer 2x2 product
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


class TestCoverOrder:
    def test_frozen_comparisons(self):
        assert cover_cmp(cp(Fraction(1, 2)), cp(Fraction(-1, 2))) == LESS
        inf0 = CoverPoint(ProjPoint.infinity(), 0)
        assert cover_cmp(inf0, cp(0, 1)) == LESS
        assert cp(0, 0) == cp(0, 0)
        assert cover_cmp(cp(3, 0), cp(3, -1)) == GREATER
        assert cp(0, 0) < cp(1, 0) < inf0 < cp(-1, 0) < cp(0, 1)

    def test_line_point_embedding_increasing(self):
        rng = random.Random(201)
        for _ in range(500):
            s, t = rand_rat(rng), rand_rat(rng)
            if s == t:
                assert line_point(s) == line_point(t)
            elif s < t:
                assert line_point(s) < line_point(t)
            else:
                assert line_point(s) > line_point(t)

    def test_rich_comparisons_agree_with_cover_cmp(self):
        rng = random.Random(213)
        for _ in range(2000):
            # few values, so equal pairs are common
            x, y = rand_cover(rng, lim=2, sheets=1), rand_cover(rng, lim=2, sheets=1)
            c = cover_cmp(x, y)
            assert (x < y) == (c == LESS)
            assert (x <= y) == (c != GREATER)
            assert (x > y) == (c == GREATER)
            assert (x >= y) == (c != LESS)
            assert (x == y) == (c == EQUAL)

    def test_serialization(self):
        x = cp(Fraction(-2, 3), 5)
        assert point_obj(x) == {"t": "-2/3", "sheet": 5}


class TestLiftedMaps:
    def test_identity_lift(self):
        ident = IDENTITY_LIFT
        assert ident.apply(COVER_BASEPOINT) == COVER_BASEPOINT
        rng = random.Random(202)
        for _ in range(50):
            x = rand_cover(rng)
            assert ident.apply(x) == x

    def test_fixed_point_lift_of_first_generator(self):
        lift, brackets = fixed_point_lift(TORUS_A)
        # frozen: basepoint [0:1] -> t = 1/2 on sheet 0
        assert lift.basepoint_image == cp(Fraction(1, 2), 0)
        # direct evaluation oracle for the displacement signs:
        # (1/2 + 1)/(1/2 + 2) = 3/5 > 1/2 and (1 + 1)/(1 + 2) = 2/3 < 1
        assert Fraction(3, 5) > Fraction(1, 2)
        assert Fraction(2, 3) < 1
        for bracket in brackets:
            assert bracket.sign_lo * bracket.sign_hi == -1

    def test_fixed_point_lift_of_second_generator(self):
        lift, brackets = fixed_point_lift(TORUS_B)
        assert lift.basepoint_image == cp(Fraction(-1, 2), -1)
        # some deck translate of a certificate bracket sits strictly inside
        # the fundamental window ((0, sheet 0), (0, sheet 1))
        window_lo, window_hi = cp(0, 0), cp(0, 1)
        placed = False
        for bracket in brackets:
            for k in range(-3, 4):
                moved = bracket.deck(k)
                if window_lo < moved.lo and moved.hi < window_hi:
                    placed = True
        assert placed

    def test_deck_equivariance_random(self):
        rng = random.Random(203)
        for _ in range(1000):
            f = rand_lift(rng)
            x = rand_cover(rng)
            assert f.apply(x.deck(1)) == f.apply(x).deck(1)

    def test_order_preservation_random(self):
        rng = random.Random(204)
        for _ in range(1000):
            f = rand_lift(rng)
            x, y = rand_cover(rng), rand_cover(rng)
            assert cover_cmp(f.apply(x), f.apply(y)) == cover_cmp(x, y)

    def test_compose_is_pointwise_composition(self):
        rng = random.Random(205)
        for _ in range(500):
            f, g = rand_lift(rng), rand_lift(rng)
            x = rand_cover(rng)
            assert f.compose(g).apply(x) == f.apply(g.apply(x))

    def test_inverse_roundtrip(self):
        rng = random.Random(206)
        for _ in range(500):
            f = rand_lift(rng)
            x = rand_cover(rng)
            assert f.inverse().apply(f.apply(x)) == x
        f = rand_lift(rng)
        assert f.inverse().inverse() == f

    def test_lift_cocycle(self):
        rng = random.Random(207)
        for _ in range(200):
            m, n = rand_torus_word_matrix(rng), rand_torus_word_matrix(rng)
            f = lift_through(m).deck(rng.randint(-2, 2))
            g = lift_through(n).deck(rng.randint(-2, 2))
            h = f.compose(g)
            assert h.moebius == m.compose(n)
            # same projective base means the two lifts differ by a deck power
            ref = lift_through(m.compose(n))
            assert h.basepoint_image.base == ref.basepoint_image.base

    def test_rejects_non_cover_input(self):
        with pytest.raises(OutOfDomain):
            IDENTITY_LIFT.apply(Fraction(1, 2))


class TestCommutator:
    def commutator_lift(self):
        a, _ = fixed_point_lift(TORUS_A)
        b, _ = fixed_point_lift(TORUS_B)
        return a.compose(b).compose(a.inverse().compose(b.inverse()))

    def test_matrix_frozen_against_integer_oracle(self):
        a = ((1, 1), (1, 2))
        b = ((1, -1), (-1, 2))
        a_inv = ((2, -1), (-1, 1))
        b_inv = ((2, 1), (1, 1))
        prod = matmul2(matmul2(a, b), matmul2(a_inv, b_inv))
        assert prod == ((-1, 0), (-6, -1))
        k = self.commutator_lift().moebius
        assert k.entries == (-1, 0, -6, -1)
        assert k.trace() == -2

    def test_basepoint_displacement_is_one(self):
        k = self.commutator_lift()
        assert k.apply(cp(0, 0)) == cp(0, 1)

    def test_deck_power_independence(self):
        a, _ = fixed_point_lift(TORUS_A)
        b, _ = fixed_point_lift(TORUS_B)
        k = self.commutator_lift()
        for j in range(-2, 3):
            for kk in range(-2, 3):
                aj, bk = a.deck(j), b.deck(kk)
                moved = aj.compose(bk).compose(aj.inverse().compose(bk.inverse()))
                assert moved == k

    def test_parabolic_fixed_lift_is_deck_shift_of_commutator(self):
        k = self.commutator_lift()
        fixed, brackets = fixed_point_lift(k.moebius)
        assert brackets[0].degenerate
        assert brackets[0].lo == cp(0, 0)
        assert fixed.apply(cp(0, 0)) == cp(0, 0)
        assert k == fixed.deck(1)

    def test_growth_check(self):
        k = self.commutator_lift()
        assert displacement_growth_check(k, cp(0, 0), 5)
        rng = random.Random(208)
        for _ in range(100):
            x = rand_cover(rng)
            assert displacement_growth_check(k, x, 1)
        assert not displacement_growth_check(IDENTITY_LIFT, cp(0, 0), 2)
        with pytest.raises(ValueError):
            displacement_growth_check(k, cp(0, 0), 0)


class TestFixedPointLiftEdgeCases:
    def test_elliptic_raises(self):
        with pytest.raises(NoRealFixedPoint):
            fixed_point_lift(MoebiusMap(0, -1, 1, 0))

    def test_translation_fixing_only_infinity_raises(self):
        with pytest.raises(NoRealFixedPoint):
            fixed_point_lift(MoebiusMap(1, 1, 0, 1))

    def test_identity_matrix(self):
        lift, brackets = fixed_point_lift(MoebiusMap(1, 0, 0, 1))
        assert lift == IDENTITY_LIFT
        assert brackets[0].degenerate

    def test_hyperbolic_with_rational_fixed_point(self):
        # t -> 2t fixes 0 and infinity; the root bracket straddles the cut
        lift, brackets = fixed_point_lift(MoebiusMap(2, 0, 0, 1))
        assert lift.apply(cp(0, 0)) == cp(0, 0)
        (bracket,) = brackets
        assert bracket.lo < cp(0, 0) < bracket.hi
        assert bracket.sign_lo * bracket.sign_hi == -1

    def test_random_hyperbolic_words(self):
        rng = random.Random(209)
        checked = 0
        while checked < 120:
            m = rand_torus_word_matrix(rng)
            if abs(m.trace()) <= 2 or m.c == 0:
                continue
            lift, brackets = fixed_point_lift(m)
            for bracket in brackets:
                assert bracket.sign_lo * bracket.sign_hi == -1
                assert cover_cmp(lift.apply(bracket.lo), bracket.lo) == bracket.sign_lo
                assert cover_cmp(lift.apply(bracket.hi), bracket.hi) == bracket.sign_hi
            checked += 1


class TestCompactify:
    def test_frozen_values(self):
        assert compactify(cp(0, 0)) == Fraction(1, 2)
        assert compactify(cp(0, 1)) == Fraction(3, 4)
        assert compactify(CoverPoint(ProjPoint.infinity(), 0)) == Fraction(2, 3)
        assert compactify(cp(1, 0)) == Fraction(3, 5)
        assert compactify(cp(Fraction(1, 2), 0)) == Fraction(4, 7)
        assert compactify(cp(Fraction(-1, 2), -1)) == Fraction(3, 7)
        assert compactify(cp(-1, -1)) == Fraction(2, 5)

    def test_strictly_monotone(self):
        rng = random.Random(210)
        for _ in range(1000):
            x, y = rand_cover(rng), rand_cover(rng)
            c = cover_cmp(x, y)
            vx, vy = compactify(x), compactify(y)
            assert ((vx < vy) - (vx > vy)) == -c or (c == 0 and vx == vy)

    def test_in_open_unit_interval(self):
        rng = random.Random(211)
        for _ in range(300):
            v = compactify(rand_cover(rng, sheets=20))
            assert 0 < v < 1

    def test_roundtrip(self):
        rng = random.Random(212)
        for _ in range(500):
            x = rand_cover(rng)
            assert uncompactify(compactify(x)) == x
        assert uncompactify(Fraction(1, 2)) == cp(0, 0)

    def test_matches_fraction_oracle(self):
        rng = random.Random(214)
        infinities = [CoverPoint(ProjPoint.infinity(), k) for k in range(-3, 4)]
        points = infinities + [rand_cover(rng, lim=40, sheets=30) for _ in range(1500)]
        for x in points:
            y = compactify(x)
            assert y == fraction_compactify(x)
            assert uncompactify(y) == fraction_uncompactify(y)
        # w = 1/2 exactly: the infinities of every sheet
        assert all(uncompactify(compactify(x)) == x for x in infinities)
        for _ in range(1500):
            b = rng.randint(2, 10 ** rng.randint(1, 12))
            y = Fraction(rng.randint(1, b - 1), b)
            assert uncompactify(y) == fraction_uncompactify(y)

    def test_out_of_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 7)):
            with pytest.raises(OutOfDomain):
                uncompactify(bad)
