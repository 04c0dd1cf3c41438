"""Blow-up probe: windows, rescaled systems, translation deviation, and
fixed-point persistence, with closed-form oracles for the germ examples."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from helpers import rand_interior, rand_plmap, sandwich_apply
import nonsmooth
from nonsmooth.cover import COVER_BASEPOINT, compactify
from nonsmooth.errors import (
    BadInterval,
    Degenerate,
    EmptyDisplacement,
    EmptyGridDomain,
    OutOfDomain,
    Unsupported,
)
from nonsmooth.groupact import (
    UNIT_INTERVAL,
    MarkedAction,
    Word,
    compactified_action,
    parse_word,
    punctured_torus_action,
)
from nonsmooth.plmaps import PLMap
from nonsmooth.renorm import (
    MoebiusGermMap,
    RescaledSystem,
    Window,
    build_windows,
    fixed_point_in_window,
    generator_deviation,
    germ_action,
    halving_germ,
    hull_displacement,
    parabolic_germ,
    rescale,
    translation_deviation,
)


def torus_windows(ns, grid=64):
    act = compactified_action(punctured_torus_action())
    pts = [compactify(COVER_BASEPOINT.deck(n)) for n in ns]
    return act, [rescale(w, act, grid) for w in build_windows(act, pts)]


def parabolic_system(i, grid=64):
    act = germ_action()
    w = build_windows(act, [Fraction(1, i)])[0]
    return rescale(w, act, grid)


class TestGermMaps:
    def test_frozen_values(self):
        g = parabolic_germ()
        assert g.apply(Fraction(1, 2)) == Fraction(1, 3)
        assert g.apply(1) == Fraction(1, 2)
        assert halving_germ().apply(Fraction(1, 2)) == Fraction(1, 4)

    def test_inverse_roundtrip(self):
        rng = random.Random(70)
        for g in (parabolic_germ(), halving_germ(), MoebiusGermMap(3, 1, 1, 2)):
            inv = g.inverse()
            for _ in range(200):
                x = rand_interior(rng)
                assert inv.apply(g.apply(x)) == x

    def test_pole_raises(self):
        with pytest.raises(OutOfDomain):
            parabolic_germ().apply(-1)
        with pytest.raises(OutOfDomain):
            parabolic_germ().inverse().apply(1)

    def test_orientation_validation(self):
        with pytest.raises(BadInterval):
            MoebiusGermMap(1, 0, 0, -1)
        with pytest.raises(BadInterval):
            MoebiusGermMap(1, 2, 2, 4)

    def test_projective_equality(self):
        assert MoebiusGermMap(2, 0, 0, 4) == halving_germ()
        assert parabolic_germ() != halving_germ()

    def test_equal_germs_hash_equal(self):
        scalings = {MoebiusGermMap(1, 0, 1, 1), MoebiusGermMap(2, 0, 2, 2),
                    MoebiusGermMap(-1, 0, -1, -1)}
        assert len(scalings) == 1
        assert MoebiusGermMap(Fraction(1, 2), 0, Fraction(1, 3), 1) == \
            MoebiusGermMap(3, 0, 2, 6)


class TestBuildWindows:
    def test_parabolic_hull(self):
        act = germ_action()
        w = build_windows(act, [Fraction(1, 10)])[0]
        assert w.point == Fraction(1, 10)
        assert w.hull == (Fraction(1, 11), Fraction(1, 10))
        assert w.length == Fraction(1, 110)
        assert w.unit == Fraction(1, 110)
        assert w.enlarged == (Fraction(4, 55), Fraction(1, 10))

    def test_torus_window_zero(self):
        act = compactified_action(punctured_torus_action())
        w = build_windows(act, [Fraction(1, 2)])[0]
        assert w.hull == (Fraction(3, 7), Fraction(4, 7))
        assert w.enlarged == (Fraction(2, 7), Fraction(5, 7))
        assert w.length == Fraction(1, 7)
        # images straddle the point, so the unit is smaller than the hull
        assert w.unit == Fraction(1, 14)

    def test_clamped_to_unit_interval(self):
        act = germ_action(halving_germ())
        w = build_windows(act, [Fraction(1, 1024)])[0]
        assert w.enlarged == (0, Fraction(1, 1024))

    def test_enlargement_one_gives_hull(self):
        act = germ_action()
        w = build_windows(act, [Fraction(1, 5)], enlargement=1)[0]
        assert w.enlarged == w.hull

    def test_identity_action_rejected(self):
        act = MarkedAction(("a",), (PLMap([(0, 0), (1, 1)]),), UNIT_INTERVAL)
        with pytest.raises(EmptyDisplacement):
            build_windows(act, [Fraction(1, 3)])

    def test_bad_enlargement(self):
        with pytest.raises(ValueError):
            build_windows(germ_action(), [Fraction(1, 5)], enlargement=Fraction(1, 2))

    def test_cover_action_unsupported(self):
        with pytest.raises(Unsupported):
            build_windows(punctured_torus_action(), [Fraction(1, 2)])

    def test_indices_follow_sequence(self):
        ws = build_windows(germ_action(), [Fraction(1, i) for i in (3, 5, 9)])
        assert [w.index for w in ws] == [0, 1, 2]

    def test_invariants_at_random_points(self):
        act = germ_action()
        rng = random.Random(71)
        for _ in range(300):
            p = rand_interior(rng)
            w = build_windows(act, [p])[0]
            assert w.hull[0] <= p <= w.hull[1]
            assert w.enlarged[0] <= w.hull[0] <= w.hull[1] <= w.enlarged[1]
            assert 0 <= w.enlarged[0] and w.enlarged[1] <= 1
            assert w.length > 0 and w.unit > 0

    def test_window_validation(self):
        with pytest.raises(BadInterval):
            Window(0, Fraction(1, 2), (Fraction(2, 3), Fraction(3, 4)),
                   (0, 1), Fraction(1, 12))
        with pytest.raises(BadInterval):
            Window(0, Fraction(1, 2), (Fraction(1, 3), Fraction(2, 3)),
                   (Fraction(2, 5), 1), Fraction(1, 3))
        with pytest.raises(BadInterval):
            Window(0, Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2)),
                   (0, 1), Fraction(1, 2))


class TestRescale:
    def test_parabolic_origin_displacement(self):
        for i in (10, 100, 1000):
            rs = parabolic_system(i)
            assert rs.displacement_at_0("a") == -1

    def test_normalization_invariant(self):
        _, systems = torus_windows(range(8))
        for rs in systems:
            assert max(abs(rs.displacement_at_0(n)) for n in rs.names) == 1

    def test_halving_domain(self):
        act = germ_action(halving_germ())
        w = build_windows(act, [Fraction(1, 64)])[0]
        rs = rescale(w, act)
        assert rs.domain == (-2, 0)
        assert rs.apply("a", Fraction(-1, 2)) == Fraction(-5, 4)

    def test_identity_generator_rescales_to_identity(self):
        act = MarkedAction(("a", "b"),
                           (parabolic_germ(), PLMap([(0, 0), (1, 1)])),
                           UNIT_INTERVAL)
        rs = rescale(build_windows(act, [Fraction(1, 7)])[0], act)
        lo, hi = rs.domain
        for k in range(9):
            x = lo + (hi - lo) * Fraction(k, 8)
            assert rs.apply("b", x) == x

    def test_strictly_increasing(self):
        rng = random.Random(72)
        _, systems = torus_windows((0, 2))
        systems.append(parabolic_system(12))
        for rs in systems:
            lo, hi = rs.domain
            for _ in range(200):
                x = lo + (hi - lo) * rand_interior(rng)
                y = lo + (hi - lo) * rand_interior(rng)
                if x == y:
                    continue
                if x > y:
                    x, y = y, x
                assert rs.apply("a", x) < rs.apply("a", y)

    def test_out_of_domain(self):
        rs = parabolic_system(10)
        with pytest.raises(OutOfDomain):
            rs.apply("a", 1)

    def test_bad_grid(self):
        act = germ_action()
        w = build_windows(act, [Fraction(1, 10)])[0]
        with pytest.raises(ValueError):
            rescale(w, act, grid=1)

    def test_wrong_unit_raises_under_optimize(self):
        # python -O strips bare asserts; the normalization check must not be one
        child = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from nonsmooth.renorm import Window, build_windows, germ_action, rescale
            act = germ_action()
            w = build_windows(act, [Fraction(1, 10)])[0]
            bad = Window(w.index, w.point, w.hull, w.enlarged, 2 * w.unit)
            print("optimize", sys.flags.optimize)
            try:
                rescale(bad, act)
            except AssertionError:
                print("raised")
        """)
        src = os.path.dirname(os.path.dirname(nonsmooth.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "optimize 1\nraised\n"


ZERO, ONE = Fraction(0), Fraction(1)


def rand_unit_germ(rng, lim=6):
    """A random orientation-preserving integer germ mapping [0, 1] into itself,
    with its pole outside [0, 1]."""
    while True:
        a, b, c, d = (rng.randint(-lim, lim) for _ in range(4))
        if a * d - b * c <= 0 or d == 0 or d * (c + d) <= 0:
            continue
        g = MoebiusGermMap(a, b, c, d)
        if 0 <= g.apply(ZERO) and g.apply(ONE) <= 1:
            return g


class TestConjugatedGerm:
    """The germ generators of a RescaledSystem are conjugated once per window;
    the affine sandwich of tests/helpers.py is their oracle."""

    def test_matches_sandwich_oracle(self):
        rng = random.Random(80)
        cases = 0
        while cases < 240:
            g = rand_unit_germ(rng)
            maps = (g,) if rng.random() < 0.7 else (g, rand_plmap(rng))
            act = MarkedAction(("a", "b")[:len(maps)], maps, UNIT_INTERVAL)
            try:
                w = build_windows(act, [rand_interior(rng, 97)],
                                  enlargement=rng.randint(1, 4))[0]
            except EmptyDisplacement:
                continue
            rs = RescaledSystem(w, act, 8)
            lo, hi = rs.domain
            assert rs.domain == ((w.enlarged[0] - w.point) / w.unit,
                                 (w.enlarged[1] - w.point) / w.unit)
            grid = rng.randint(2, 12)
            # both domain endpoints, the grid between them, random interior points
            xs = [lo + (hi - lo) * Fraction(k, grid) for k in range(grid + 1)]
            xs += [lo + (hi - lo) * rand_interior(rng) for _ in range(4)]
            for name, m in zip(act.names, maps):
                for x in xs:
                    assert rs.apply(name, x) == sandwich_apply(w, m, x)
                eps = (hi - lo) / 10 ** 6
                for x in (lo - eps, hi + eps):
                    with pytest.raises(OutOfDomain):
                        rs.apply(name, x)
            cases += 1

    def test_integer_apply_matches_fraction_formula(self):
        rng = random.Random(81)
        checked = 0
        while checked < 300:
            g = rand_unit_germ(rng, lim=9)
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            if rng.random() < 0.2:
                x = x.numerator
            den = g.c * Fraction(x) + g.d
            if den == 0:
                continue
            assert g.apply(x) == (g.a * Fraction(x) + g.b) / den
            checked += 1

    def test_pole_raises(self):
        rng = random.Random(82)
        seen = 0
        while seen < 50:
            g = rand_unit_germ(rng, lim=9)
            if g.c == 0:
                continue
            with pytest.raises(OutOfDomain):
                g.apply(Fraction(-g.d, g.c))
            seen += 1


class TestTranslationDeviation:
    def test_frozen_parabolic_values(self):
        assert translation_deviation(parabolic_system(100), 2, 64) \
            == Fraction(398, 10199)
        assert translation_deviation(parabolic_system(100), 2, 64) < Fraction(1, 25)
        assert translation_deviation(parabolic_system(1000), 2, 64) \
            == Fraction(3998, 1001999)

    def test_closed_form_oracle(self):
        # rescaled parabolic deviation is -x(2i+1+x)/((i+1)^2+x), derived by
        # conjugating x/(1+x) with x -> p + unit*x at p = 1/i by hand
        for i in (10, 100, 1000):
            rs = parabolic_system(i)
            lo, hi = max(rs.domain[0], -2), min(rs.domain[1], 2)
            expected = max(
                abs(-x * (2 * i + 1 + x) / ((i + 1) ** 2 + x))
                for k in range(65)
                for x in [lo + (hi - lo) * Fraction(k, 64)])
            assert translation_deviation(rs, 2, 64) == expected

    def test_nonincreasing_along_sequence(self):
        devs = [translation_deviation(parabolic_system(i), 2, 64)
                for i in (10, 20, 40, 80, 160)]
        assert all(a >= b for a, b in zip(devs, devs[1:]))

    def test_halving_deviation_is_half_radius(self):
        act = germ_action(halving_germ())
        rs = rescale(build_windows(act, [Fraction(1, 512)])[0], act)
        assert translation_deviation(rs, 1, 64) == Fraction(1, 2)
        assert translation_deviation(rs, 2, 64) == 1
        assert translation_deviation(rs, Fraction(1, 3), 10) == Fraction(1, 6)

    def test_exact_translation_gives_zero(self):
        # slope-1 middle piece: a genuine translation near the marked point
        g = PLMap([(0, 0), (Fraction(1, 8), Fraction(1, 4)),
                   (Fraction(5, 8), Fraction(3, 4)), (1, 1)])
        act = MarkedAction(("a",), (g,), UNIT_INTERVAL)
        rs = rescale(build_windows(act, [Fraction(1, 4)])[0], act)
        assert translation_deviation(rs, 2, 64) == 0
        assert translation_deviation(rs, 3, 64) == 0

    def test_empty_grid_domain(self):
        with pytest.raises(EmptyGridDomain):
            translation_deviation(parabolic_system(10), -1, 64)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            translation_deviation(parabolic_system(10), 2, 1)

    def test_max_over_generators(self):
        act = MarkedAction(("a", "b"), (parabolic_germ(), halving_germ()),
                           UNIT_INTERVAL)
        rs = rescale(build_windows(act, [Fraction(1, 30)])[0], act)
        assert translation_deviation(rs, 1, 32) == max(
            generator_deviation(rs, "a", 1, 32),
            generator_deviation(rs, "b", 1, 32))


class TestFixedPointPersistence:
    def test_parabolic_has_no_bracket(self):
        for i in (5, 50, 500):
            assert fixed_point_in_window(parabolic_system(i)) == {"a": None}

    def test_halving_keeps_its_fixed_point(self):
        # the contraction's fixed point sits exactly two units below the
        # marked point in every window
        act = germ_action(halving_germ())
        rs = rescale(build_windows(act, [Fraction(1, 256)])[0], act)
        assert fixed_point_in_window(rs) == {"a": (-2, -2)}

    def test_torus_windows_have_generator_brackets(self):
        _, systems = torus_windows(range(6))
        for rs in systems:
            brackets = fixed_point_in_window(rs)
            assert brackets["a"] is not None
            lo, hi = brackets["a"]
            if lo == hi:
                assert rs.apply("a", lo) == lo
            else:
                dlo = rs.apply("a", lo) - lo
                dhi = rs.apply("a", hi) - hi
                assert (dlo > 0) != (dhi > 0)
                span = rs.domain[1] - rs.domain[0]
                assert hi - lo <= span / rs.grid / 2 ** 12

    def test_identity_generator_degenerate(self):
        act = MarkedAction(("a", "b"),
                           (parabolic_germ(), PLMap([(0, 0), (1, 1)])),
                           UNIT_INTERVAL)
        rs = rescale(build_windows(act, [Fraction(1, 7)])[0], act)
        with pytest.raises(Degenerate):
            fixed_point_in_window(rs)


class TestHullDisplacement:
    def test_commutator_crosses_window_zero(self):
        _, systems = torus_windows((0,))
        assert hull_displacement(systems[0], parse_word("[a,b]")) == Fraction(7, 4)

    def test_commutator_crosses_every_window(self):
        _, systems = torus_windows((0, 1, 2, 10, 25))
        for rs in systems:
            assert hull_displacement(rs, parse_word("[a,b]")) >= 1

    def test_single_generator_moves_one_hull(self):
        rs = parabolic_system(9)
        assert hull_displacement(rs, Word.generator(0)) == 1
        assert hull_displacement(rs, Word.identity()) == 0
