"""Blow-up probe: windows, rescaled systems, translation deviation, and
fixed-point persistence, with closed-form oracles for the germ examples."""

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest

from helpers import (
    build_windows_oracle,
    compactified_lift_chain,
    counting_calls,
    displacements,
    fixed_point_oracle,
    generator_deviation_oracle,
    hull_displacement,
    integer_grid,
    rand_cover,
    rand_interior,
    rand_model,
    rand_plmap,
    rand_pos_rat,
    rand_proj,
    rand_rat,
    rand_sl2,
    rescaled_domain,
    sandwich_apply,
    translation_deviation,
    window_deviation_oracle,
    window_fixed_point_oracle,
    window_from_values,
    window_grid,
    window_oracle,
    window_values,
)
from test_fricke import PAIRS
import nonsmooth
from nonsmooth import cli, renorm
from nonsmooth.cover import (
    COVER_BASEPOINT,
    TORUS_A,
    TORUS_B,
    CoverPoint,
    compactify,
    compactify_triple,
    fixed_point_lift,
    uncompactify,
    uncompactify_triple,
)
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
    CompactifiedLift,
    MarkedAction,
    Word,
    compactified_action,
    orbit_sequence,
    parse_word,
    punctured_torus_action,
    zz_letter_action,
)
from nonsmooth.plmaps import ModelTranslation, PLMap
from nonsmooth.projline import (
    BASEPOINT,
    MoebiusMap,
    ProjPoint,
    traversal_cmp,
    traversal_cmp_pair,
)
from nonsmooth.rational import fmt_rat
from nonsmooth.renorm import (
    BISECTION_STEPS,
    MoebiusGermMap,
    RescaledSystem,
    build_windows,
    fixed_point_in_window,
    generator_deviation,
    germ_action,
    parabolic_germ,
)


def torus_windows(ns, grid=64):
    act = compactified_action(punctured_torus_action())
    pts = [compactify(COVER_BASEPOINT.deck(n)) for n in ns]
    return act, [RescaledSystem(w, act, grid) for w in build_windows(act, pts)]


def halving_action():
    """x -> x/2, a hyperbolic contraction at 0, as the letter a."""
    return MarkedAction(("a",), (MoebiusGermMap(1, 0, 0, 2),), UNIT_INTERVAL)


def parabolic_system(i, grid=64):
    act = germ_action()
    w = build_windows(act, [Fraction(1, i)])[0]
    return RescaledSystem(w, act, grid)


def build_windows_enlarged_by(k, act, p_seq):
    with mock.patch.object(renorm, "WINDOW_ENLARGEMENT", k):
        return build_windows(act, p_seq)


class TestGermMaps:
    def test_frozen_values(self):
        g = parabolic_germ()
        assert g.apply(Fraction(1, 2)) == Fraction(1, 3)
        assert g.apply(1) == Fraction(1, 2)
        assert MoebiusGermMap(1, 0, 0, 2).apply(Fraction(1, 2)) == Fraction(1, 4)

    def test_inverse_roundtrip(self):
        rng = random.Random(70)
        for g in (parabolic_germ(), MoebiusGermMap(1, 0, 0, 2),
                  MoebiusGermMap(3, 1, 1, 2)):
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
        assert MoebiusGermMap(2, 0, 0, 4) == MoebiusGermMap(1, 0, 0, 2)
        assert parabolic_germ() != MoebiusGermMap(1, 0, 0, 2)

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
        _, point, hull, enlarged, length, unit = window_values(w)
        assert point == Fraction(1, 10)
        assert hull == (Fraction(1, 11), Fraction(1, 10))
        assert length == Fraction(1, 110)
        assert unit == Fraction(1, 110)
        assert enlarged == (Fraction(4, 55), Fraction(1, 10))

    def test_torus_window_zero(self):
        act = compactified_action(punctured_torus_action())
        w = build_windows(act, [Fraction(1, 2)])[0]
        _, _, hull, enlarged, length, unit = window_values(w)
        assert hull == (Fraction(3, 7), Fraction(4, 7))
        assert enlarged == (Fraction(2, 7), Fraction(5, 7))
        assert length == Fraction(1, 7)
        # images straddle the point, so the unit is smaller than the hull
        assert unit == Fraction(1, 14)

    def test_clamped_to_unit_interval(self):
        act = halving_action()
        w = build_windows(act, [Fraction(1, 1024)])[0]
        assert window_values(w)[3] == (0, Fraction(1, 1024))

    def test_enlargement_one_gives_hull(self):
        act = germ_action()
        w = build_windows_enlarged_by(1, act, [Fraction(1, 5)])[0]
        _, _, hull, enlarged, _, _ = window_values(w)
        assert enlarged == hull

    def test_identity_action_rejected(self):
        act = MarkedAction(("a",), (PLMap([(0, 0), (1, 1)]),), UNIT_INTERVAL)
        with pytest.raises(EmptyDisplacement):
            build_windows(act, [Fraction(1, 3)])

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
            _, _, hull, enlarged, length, unit = window_values(w)
            assert hull[0] <= p <= hull[1]
            assert enlarged[0] <= hull[0] <= hull[1] <= enlarged[1]
            assert 0 <= enlarged[0] and enlarged[1] <= 1
            assert length > 0 and unit > 0

    def test_window_validation(self):
        with pytest.raises(BadInterval):
            window_from_values(0, Fraction(1, 2),
                               (Fraction(2, 3), Fraction(3, 4)),
                               (0, 1), Fraction(1, 12))
        with pytest.raises(BadInterval):
            window_from_values(0, Fraction(1, 2),
                               (Fraction(1, 3), Fraction(2, 3)),
                               (Fraction(2, 5), 1), Fraction(1, 3))
        with pytest.raises(BadInterval):
            window_from_values(0, Fraction(1, 2),
                               (Fraction(1, 2), Fraction(1, 2)),
                               (0, 1), Fraction(1, 2))


def window_fields(windows):
    return [window_values(w) for w in windows]


def windows_outcome(build, act, points):
    """The fields of the built windows, or the type and message of the
    error raised."""
    try:
        return window_fields(build(act, points))
    except (EmptyDisplacement, OutOfDomain) as exc:
        return type(exc), str(exc)


class TestBuildWindowsOnIntegers:
    """build_windows hulls on integer numerators over one denominator;
    build_windows_oracle, on Fractions through apply, is its oracle, field
    for field."""

    @staticmethod
    def actions(rng):
        # a model translation on most of [0, 1], so most points move
        model = ModelTranslation((Fraction(rng.randint(0, 2), 12),
                                  Fraction(rng.randint(10, 12), 12)),
                                 rng.choice((-3, -2, -1, 1, 2, 3)))
        return (germ_action(), compactified_action(punctured_torus_action()),
                MarkedAction(("a",), (rand_plmap(rng),), UNIT_INTERVAL),
                MarkedAction(("a",), (model,), UNIT_INTERVAL))

    def test_agrees_with_the_fraction_hull(self):
        rng = random.Random(433)
        for _ in range(25):
            for act in self.actions(rng):
                points = [rand_interior(rng) for _ in range(8)] + [
                    Fraction(rng.randint(1, 99), rng.randint(100, 10 ** 6))]
                for batch in [points] + [[p] for p in points]:
                    assert windows_outcome(build_windows, act, batch) \
                        == windows_outcome(build_windows_oracle, act, batch)

    def test_clamps_at_both_ends(self):
        # x -> x/2 at 1/1024 and x -> (x + 1)/2 at 1023/1024: three times
        # the shift overshoots 0 and 1
        halving = MarkedAction(("a",), (MoebiusGermMap(1, 0, 0, 2),),
                               UNIT_INTERVAL)
        to_one = MarkedAction(("a",), (MoebiusGermMap(1, 1, 0, 2),),
                              UNIT_INTERVAL)
        for act, p, end in ((halving, Fraction(1, 1024), 0),
                            (to_one, Fraction(1023, 1024), 1)):
            w, = build_windows(act, [p])
            assert window_fields([w]) \
                == window_fields(build_windows_oracle(act, [p]))
            _, _, hull, enlarged, _, _ = window_values(w)
            assert enlarged[end] == end != hull[end]

    def test_fixed_point_is_empty_displacement(self):
        g = PLMap([(0, 0), (Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(3, 4), Fraction(7, 8)), (1, 1)])
        act = MarkedAction(("a",), (g,), UNIT_INTERVAL)
        torus = compactified_action(punctured_torus_action())
        for act, p in ((act, Fraction(1, 2)), (torus, Fraction(0)),
                       (torus, Fraction(1))):
            expected = (EmptyDisplacement,
                        "every generator fixes the marked point %s" % (p,))
            for build in (build_windows, build_windows_oracle):
                assert windows_outcome(build, act, [Fraction(5, 8), p]) \
                    == expected

    def test_germ_pole_is_out_of_domain(self):
        # x -> x/(1 - x) has its pole at 1
        act = MarkedAction(("a",), (MoebiusGermMap(1, 0, -1, 1),),
                           UNIT_INTERVAL)
        for build in (build_windows, build_windows_oracle):
            assert windows_outcome(build, act, [Fraction(1, 3), Fraction(1)]) \
                == (OutOfDomain, "germ has a pole at 1")


def frame_actions():
    """The renorm action types whose windows the frame tests build, each
    with its advancing word and the interval its orbits start in."""
    support = (Fraction(1, 3), Fraction(3, 4))
    pl = PLMap([(0, 0), (Fraction(1, 3), Fraction(1, 2)), (1, 1)])
    out = {
        "germ": (germ_action(), "a", (0, 1)),
        "torus": (compactified_action(punctured_torus_action()), "[a,b]",
                  (0, 1)),
        "pl": (MarkedAction(("a",), (pl,), UNIT_INTERVAL), "a", (0, 1)),
    }
    for power in (1, -1, 7, -7):
        model = ModelTranslation(support, power)
        out["model%+d" % power] = (
            MarkedAction(("a",), (model,), UNIT_INTERVAL), "a", support)
    return out


def seeded_windows(seed, starts=3, length=5):
    """(kind, action, window) along seeded orbits of every frame action."""
    rng = random.Random(seed)
    for kind, (act, advance, (lo, hi)) in frame_actions().items():
        for _ in range(starts):
            start = lo + (hi - lo) * rand_interior(rng)
            points = orbit_sequence(act, act.parse(advance), start, length)
            for w in build_windows(act, points):
                yield kind, act, w


def made_window(*args):
    return window_fields([window_from_values(*args)])[0]


def window_outcome(make, *args):
    """The window fields that make returns, or the type and message of
    what it raises."""
    try:
        return make(*args)
    except (BadInterval, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestWindowFrame:
    """A Window checks its arguments on the integer numerators of its
    frame; window_oracle in tests/helpers.py, which checks them with
    Fraction comparisons, gives the same fields and the same BadInterval,
    message for message."""

    @staticmethod
    def check_frame(w):
        m, pn, e0, e1, un = w.frame
        _, point, hull, enlarged, length, unit = window_values(w)
        assert (Fraction(pn, m), (Fraction(e0, m), Fraction(e1, m)),
                Fraction(un, m)) == (point, enlarged, unit)
        assert m == lcm(*(x.denominator for x in
                          (point, *hull, *enlarged, unit)))
        assert length == hull[1] - hull[0]

    def test_seeded_orbit_windows(self):
        kinds = set()
        for kind, _, w in seeded_windows(351):
            self.check_frame(w)
            index, point, hull, enlarged, _, unit = window_values(w)
            args = (index, point, hull, enlarged, unit)
            assert window_outcome(made_window, *args) \
                == window_outcome(window_oracle, *args), kind
            kinds.add(kind)
        assert kinds == set(frame_actions())

    def test_every_argument_type_fraction_accepts(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        spellings = (
            (0, half, (quarter, Fraction(3, 4)), (0, 1), quarter),
            (1, "1/2", ("1/4", "3/4"), ("0", "1"), "1/4"),
            (2, 0.5, (0.25, 0.75), (0.0, 1.0), 0.25),
            (3, Decimal("0.5"), (Decimal("0.25"), Decimal("0.75")),
             (Decimal(0), Decimal(1)), Decimal("0.25")),
            (4, 1, (0, 1), (0, 1), 1),
            ("5", True, (False, 1), (0, 1), half),
            (6, half, [quarter, 1], [0, 1, 7], quarter),
        )
        for args in spellings:
            got = window_outcome(made_window, *args)
            assert got == window_outcome(window_oracle, *args), args
            self.check_frame(window_from_values(*args))

    def test_equality_boundaries_are_windows(self):
        q = [Fraction(k, 12) for k in range(13)]
        cases = (
            (q[3], (q[3], q[6]), (q[0], q[12])),   # pn == h0
            (q[6], (q[3], q[6]), (q[0], q[12])),   # pn == h1
            (q[4], (q[3], q[6]), (q[3], q[12])),   # e0 == h0
            (q[4], (q[3], q[6]), (q[0], q[6])),    # h1 == e1
            (q[3], (q[3], q[6]), (q[3], q[6])),    # all at once
        )
        for point, hull, enlarged in cases:
            args = (0, point, hull, enlarged, q[1])
            assert made_window(*args) == window_oracle(*args)
            self.check_frame(window_from_values(*args))

    def test_each_failing_condition_has_the_oracle_message(self):
        q = [Fraction(k, 12) for k in range(13)]
        cases = (
            (q[2], (q[3], q[6]), (q[0], q[12]), q[1]),   # point left of hull
            (q[7], (q[3], q[6]), (q[0], q[12]), q[1]),   # point right of hull
            (q[4], (q[3], q[6]), (q[4], q[12]), q[1]),   # e0 > h0
            (q[4], (q[3], q[6]), (q[0], q[5]), q[1]),    # h1 > e1
            (q[4], (q[4], q[4]), (q[0], q[12]), q[1]),   # empty hull
            (q[4], (q[6], q[3]), (q[0], q[12]), q[1]),   # reversed hull
            (q[4], (q[3], q[6]), (q[0], q[12]), 0),      # zero unit
            (q[4], (q[3], q[6]), (q[0], q[12]), -q[1]),  # negative unit
            (q[2], (q[3], q[6]), (q[4], q[5]), 0),       # all three
            (q[4], (q[3], q[6]), (q[4], q[12]), 0),      # the last two
            (q[4], (q[3], q[6]), (q[0], "1/0"), q[1]),   # not a rational
            (q[4], (q[3], q[6]), (q[0], q[12]), "x"),
        )
        messages = set()
        for args in cases:
            expected = window_outcome(window_oracle, 0, *args)
            assert window_outcome(made_window, 0, *args) == expected, args
            messages.add(expected[1])
        assert {"base point outside its hull",
                "hull outside the enlarged window",
                "window must have positive size"} <= messages


class TestRescale:
    def test_parabolic_origin_displacement(self):
        for i in (10, 100, 1000):
            rs = parabolic_system(i)
            assert rs.apply("a", 0) == -1

    def test_normalization_invariant(self):
        _, systems = torus_windows(range(8))
        for rs in systems:
            assert max(abs(rs.apply(n, 0)) for n in rs.names) == 1

    def test_halving_domain(self):
        act = halving_action()
        w = build_windows(act, [Fraction(1, 64)])[0]
        rs = RescaledSystem(w, act, 64)
        assert rescaled_domain(rs) == (-2, 0)
        assert rs.apply("a", Fraction(-1, 2)) == Fraction(-5, 4)

    def test_identity_generator_rescales_to_identity(self):
        act = MarkedAction(("a", "b"),
                           (parabolic_germ(), PLMap([(0, 0), (1, 1)])),
                           UNIT_INTERVAL)
        rs = RescaledSystem(build_windows(act, [Fraction(1, 7)])[0], act, 64)
        lo, hi = rescaled_domain(rs)
        for k in range(9):
            x = lo + (hi - lo) * Fraction(k, 8)
            assert rs.apply("b", x) == x

    def test_strictly_increasing(self):
        rng = random.Random(72)
        _, systems = torus_windows((0, 2))
        systems.append(parabolic_system(12))
        for rs in systems:
            lo, hi = rescaled_domain(rs)
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
            RescaledSystem(w, act, 1)

    def test_wrong_unit_raises_under_optimize(self):
        # python -O strips bare asserts; the normalization check must not be one
        child = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from nonsmooth.renorm import (
                RescaledSystem, Window, build_windows, germ_action)
            act = germ_action()
            w = build_windows(act, [Fraction(1, 10)])[0]
            m, pn, e0, e1, un = w.frame
            h0, h1 = w.hull
            bad = Window(w.index, pn, (h0, h1), (e0, e1), 2 * un, over=m)
            print("optimize", sys.flags.optimize)
            try:
                RescaledSystem(bad, act, 64)
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
    """RescaledSystem.apply on germ generators agrees with the affine sandwich
    of tests/helpers.py, and a germ applies to x = n/m exactly."""

    def test_matches_sandwich_oracle(self):
        rng = random.Random(80)
        cases = 0
        while cases < 240:
            g = rand_unit_germ(rng)
            maps = (g,) if rng.random() < 0.7 else (g, rand_plmap(rng))
            act = MarkedAction(("a", "b")[:len(maps)], maps, UNIT_INTERVAL)
            try:
                w = build_windows_enlarged_by(rng.randint(1, 4), act,
                                              [rand_interior(rng, 97)])[0]
            except EmptyDisplacement:
                continue
            rs = RescaledSystem(w, act, 8)
            lo, hi = rescaled_domain(rs)
            _, p, _, (e0, e1), _, u = window_values(w)
            assert rescaled_domain(rs) == ((e0 - p) / u, (e1 - p) / u)
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


def apply_outcome(f, *args):
    """What f returns, or the type and message of the OutOfDomain it
    raises."""
    try:
        return f(*args)
    except OutOfDomain as exc:
        return OutOfDomain, str(exc)


class TestRescaledApplyOnTheFrame:
    """RescaledSystem.apply forms the window point and rescales the value on
    the frame's integers; sandwich_apply in tests/helpers.py, the Fraction
    formula (g(p + u x) - p)/u, is its oracle on every window kind."""

    EPS = Fraction(1, 10 ** 30)

    def test_seeded_points_and_both_ends(self):
        rng = random.Random(352)
        kinds = set()
        for kind, act, w in seeded_windows(353, starts=2, length=3):
            rs = RescaledSystem(w, act, 64)
            lo, hi = rescaled_domain(rs)
            _, p, _, (e0, e1), _, u = window_values(w)
            assert (lo, hi) == ((e0 - p) / u, (e1 - p) / u)
            xs = [lo, hi, 0] + [lo + (hi - lo) * rand_interior(rng)
                                for _ in range(6)]
            for name, g in zip(act.names, act.maps):
                for x in xs:
                    assert apply_outcome(rs.apply, name, x) \
                        == apply_outcome(sandwich_apply, w, g, x), (kind, x)
                for x in (lo - self.EPS, hi + self.EPS):
                    with pytest.raises(OutOfDomain) as raised:
                        rs.apply(name, x)
                    assert str(raised.value) \
                        == "%s is outside the rescaled window" % (x,)
            kinds.add(kind)
        assert kinds == set(frame_actions())

    def test_unit_check_runs_the_object_chain_once_per_generator(self, capsys):
        act, systems = torus_windows(range(3))
        with counting_calls("apply", CompactifiedLift) as counts:
            for rs in systems:
                RescaledSystem(rs.window, act, 64)
        assert counts["CompactifiedLift"] == 3 * 2
        with counting_calls("apply", CompactifiedLift) as counts:
            assert cli.main(["renorm", "--action", "punctured-torus",
                             "--windows", "32", "--grid", "64",
                             "--start", "1/2"]) == 0
        capsys.readouterr()
        assert counts["CompactifiedLift"] == 64


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class TestNoFractionArithmetic:
    """A renorm window, its rescaled system and both statistics read the
    window's integer frame: none of them adds, subtracts, multiplies or
    divides a Fraction."""

    @pytest.mark.parametrize("kind, start", [("germ", Fraction(1, 3)),
                                             ("torus", Fraction(1, 2))])
    def test_one_window(self, monkeypatch, kind, start):
        act = frame_actions()[kind][0]
        radius = Fraction(2)
        counts = Counter()
        for op in FRACTION_ARITHMETIC:
            def counted(*args, _op=op, _f=getattr(Fraction, op)):
                counts[_op] += 1
                return _f(*args)
            monkeypatch.setattr(Fraction, op, counted)
        (w,) = build_windows(act, [start])
        rs = RescaledSystem(w, act, 64)
        brackets = fixed_point_in_window(rs)
        for name in rs.names:
            generator_deviation(rs, name, radius)
        library = dict(counts)
        # the count sees the Fraction formula of the rescaled map
        sandwich_apply(w, act.maps[0], 0)
        monkeypatch.undo()
        assert not library, library
        assert sum(counts.values()) == 4
        # the germ keeps one sign; the torus window converts a bracket for
        # each generator
        assert [b is not None for b in brackets.values()] \
            == [kind == "torus"] * len(rs.names)

    @pytest.mark.parametrize("kind, start", [("germ", Fraction(1, 3)),
                                             ("torus", Fraction(1, 2))])
    def test_window_builds_no_fraction(self, monkeypatch, kind, start):
        # a window holds integers only; its values as Fractions are
        # tests/helpers.window_values
        act = frame_actions()[kind][0]
        built = Counter()
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built[cls.__name__] += 1
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", counted)
        (w,) = build_windows(act, [start])
        library = dict(built)
        # the count sees the seven Fractions of the window's values
        window_values(w)
        monkeypatch.undo()
        assert not library, library
        assert built == {"Fraction": 7}


class TestWindowCoordinates:
    """generator_deviation and fixed_point_in_window evaluate each generator
    at the window points X = p + u x and rescale only the results; the
    oracles of tests/helpers.py take every value through
    RescaledSystem.apply instead, and the two must agree exactly."""

    RADII = (-Fraction(1, 3), 0, Fraction(1, 3), 2, 1000)

    def check(self, rs, rng):
        for name in rs.names:
            for radius in self.RADII:
                probe = RescaledSystem(rs.window, rs.act, rng.randint(2, 12))
                try:
                    expected = generator_deviation_oracle(probe, name, radius)
                except EmptyGridDomain:
                    with pytest.raises(EmptyGridDomain):
                        generator_deviation(probe, name, radius)
                    continue
                assert generator_deviation(probe, name, radius) == expected
        try:
            expected = fixed_point_oracle(rs)
        except Degenerate:
            with pytest.raises(Degenerate):
                fixed_point_in_window(rs)
            return 0
        assert fixed_point_in_window(rs) == expected
        return sum(b is not None for b in expected.values())

    def test_interval_generators_match_oracle(self):
        rng = random.Random(111)
        makers = (rand_unit_germ, rand_plmap, rand_model)
        cases = brackets = 0
        while cases < 300:
            maps = tuple(rng.choice(makers)(rng)
                         for _ in range(rng.randint(1, 2)))
            act = MarkedAction(("a", "b")[:len(maps)], maps, UNIT_INTERVAL)
            try:
                w = build_windows_enlarged_by(rng.randint(1, 4), act,
                                              [rand_interior(rng, 97)])[0]
            except EmptyDisplacement:
                continue
            brackets += self.check(RescaledSystem(w, act, rng.randint(2, 12)), rng)
            cases += 1
        assert brackets > 50

    def test_torus_windows_match_oracle(self):
        rng = random.Random(112)
        act = compactified_action(punctured_torus_action())
        brackets = 0
        for _ in range(40):
            w = build_windows_enlarged_by(rng.randint(1, 4), act,
                                          [compactify(rand_cover(rng))])[0]
            brackets += self.check(RescaledSystem(w, act, rng.randint(2, 12)), rng)
        assert brackets > 20


class TestPairForms:
    """A map's pair form agrees with its apply for every scaling of the pair:
    Fraction(*g.apply_pair(k n, k m)) == g.apply(n/m) for k >= 1, with a
    positive second entry."""

    def check(self, g, x, rng):
        n, m = x.as_integer_ratio()
        expected = g.apply(x)
        for k in (1, rng.randint(2, 50), rng.randint(51, 10 ** 9)):
            num, den = g.apply_pair(k * n, k * m)
            assert den > 0
            assert Fraction(num, den) == expected

    def test_germs(self):
        rng = random.Random(120)
        germs = [parabolic_germ(), parabolic_germ().inverse(),
                 MoebiusGermMap(1, 0, 0, 2)]
        germs += [rand_unit_germ(rng, lim=9) for _ in range(40)]
        checked = 0
        for g in germs:
            for x in [ZERO, ONE] + [rand_rat(rng, 30) for _ in range(20)]:
                if g.c * x + g.d == 0:
                    continue  # the pole: see test_pole_message_matches_apply
                self.check(g, x, rng)
                checked += 1
        assert checked > 800

    def test_compactified_lifts(self):
        rng = random.Random(121)
        act = compactified_action(punctured_torus_action())
        # the branch boundaries of uncompactify on each sheet: the base at
        # infinity (2r == d) and the basepoint, where the sheet changes (r == 0)
        infinities = [compactify(CoverPoint(ProjPoint.infinity(), s))
                      for s in range(-3, 4)]
        sheet_changes = [compactify(CoverPoint(BASEPOINT, s))
                         for s in range(-3, 4)]
        assert all(uncompactify(y).base.is_infinite for y in infinities)
        assert [uncompactify(y).sheet for y in sheet_changes] == list(range(-3, 4))
        interior = (infinities + sheet_changes
                    + [compactify(rand_cover(rng)) for _ in range(60)])
        for y in interior:
            n, m = y.as_integer_ratio()
            k = rng.randint(2, 10 ** 9)
            p, q, sheet = uncompactify_triple(k * n, k * m)
            assert CoverPoint(ProjPoint(p, q), sheet) == uncompactify(y)
            x = uncompactify(y)
            assert Fraction(*compactify_triple(
                x.base.num, x.base.den, x.sheet)) == y
        # the endpoints 0 and 1, which every lift fixes
        for g in act.maps + act.inverses:
            for y in [ZERO, ONE] + interior:
                self.check(g, y, rng)

    def test_pole_message_matches_apply(self):
        rng = random.Random(122)
        seen = 0
        while seen < 50:
            g = rand_unit_germ(rng, lim=9)
            if g.c == 0:
                continue
            pole = Fraction(-g.d, g.c)
            n, m = pole.as_integer_ratio()
            k = rng.randint(1, 1000)
            with pytest.raises(OutOfDomain) as via_apply:
                g.apply(pole)
            with pytest.raises(OutOfDomain) as via_pair:
                g.apply_pair(k * n, k * m)
            assert str(via_pair.value) == str(via_apply.value)
            seen += 1

    def test_pole_on_the_grid(self):
        # x -> x/(1 - 2x) has its pole at 1/2, a point of the 4-cell grid of
        # the window (0, 1) about 1/4
        act = MarkedAction(("a",), (MoebiusGermMap(1, 0, -2, 1),), UNIT_INTERVAL)
        w = window_from_values(0, Fraction(1, 4),
                               (Fraction(1, 4), Fraction(1, 2)), (0, 1),
                               Fraction(1, 4))
        rs = RescaledSystem(w, act, 4)
        for library, oracle in (
                (fixed_point_in_window, window_fixed_point_oracle),
                (lambda rs: generator_deviation(rs, "a", 3),
                 lambda rs: window_deviation_oracle(rs, "a", 3))):
            with pytest.raises(OutOfDomain) as via_pair:
                library(rs)
            with pytest.raises(OutOfDomain) as via_apply:
                oracle(rs)
            assert str(via_pair.value) == str(via_apply.value) \
                == "germ has a pole at 1/2"


class TestScanStopsEarly:
    """fixed_point_in_window stops at the first zero or sign change of the
    grid; a germ whose pole lies in the sampled interval still raises the
    germ's own message, on the grid or between its points."""

    @staticmethod
    def unit_window_system(g, p, grid=4):
        # the window (0, 1) about p, with unit |g(p) - p|
        act = MarkedAction(("a",), (g,), UNIT_INTERVAL)
        gp = g.apply(p)
        w = window_from_values(0, p, (min(p, gp), max(p, gp)), (0, 1),
                               abs(gp - p))
        return RescaledSystem(w, act, grid)

    def test_pole_inside_a_cell(self):
        # x -> (20x + 1)/(18 - 40x) has its pole at 9/20, strictly inside
        # the cell [1/4, 1/2] of the 4-cell grid of (0, 1), and no real
        # fixed point; the sign change across that cell is the pole
        g = MoebiusGermMap(20, 1, -40, 18)
        assert [Fraction(*q) for q in g.undefined_pairs()] == [Fraction(9, 20)]
        rs = self.unit_window_system(g, Fraction(1, 4))
        for library in (fixed_point_in_window,
                        lambda rs: generator_deviation(rs, "a", 3)):
            with pytest.raises(OutOfDomain) as raised:
                library(rs)
            assert str(raised.value) == "germ has a pole at 9/20"

    def test_pole_past_the_first_sign_change(self):
        # x -> (x + 1/8)/(3 - 4x): g(0) > 0, the displacement changes sign
        # at 1/4, and the pole 3/4 lies further right on the grid
        g = MoebiusGermMap(1, Fraction(1, 8), -4, 3)
        rs = self.unit_window_system(g, Fraction(1, 2))
        nums, den = integer_grid(*window_values(rs.window)[3], rs.grid)
        (v0, _), (v1, _) = displacements(g, nums[:2], den)
        assert v0 > 0 > v1
        with pytest.raises(OutOfDomain) as via_scan:
            fixed_point_in_window(rs)
        with pytest.raises(OutOfDomain) as via_oracle:
            window_fixed_point_oracle(rs)
        assert str(via_scan.value) == str(via_oracle.value) \
            == "germ has a pole at 3/4"

    def test_pole_outside_the_window(self):
        # x -> x/(1 - 2x) on the window (0, 1/4) about 1/8: the pole 1/2
        # lies in [0, 1] but not in the window, so nothing raises
        g = MoebiusGermMap(1, 0, -2, 1)
        act = MarkedAction(("a",), (g,), UNIT_INTERVAL)
        p = Fraction(1, 8)
        gp = g.apply(p)
        w = window_from_values(0, p, (p, gp), (0, Fraction(1, 4)), gp - p)
        rs = RescaledSystem(w, act, 4)
        assert fixed_point_in_window(rs) == window_fixed_point_oracle(rs)
        assert generator_deviation(rs, "a", 1) \
            == window_deviation_oracle(rs, "a", 1)

    def test_fixed_left_end_reads_on_to_a_moving_point(self):
        # g fixes 0, 1/4 and 1/2 and moves 3/4: the bracket is the left end,
        # read from the first four grid points, not the fifth
        g = PLMap([(0, 0), (Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(3, 4), Fraction(7, 8)), (1, 1)])
        p = Fraction(3, 4)
        rs = self.unit_window_system(g, p)
        expected = window_fixed_point_oracle(rs)
        assert expected == {"a": ((0 - p) * 8,) * 2}
        with counting_calls("apply", PLMap) as counts:
            assert fixed_point_in_window(rs) == expected
        assert counts["PLMap"] == 4

    def test_fixed_left_end_with_a_later_sign_change(self):
        # g fixes 1/4, the window's left end, then moves 1/2 up and 3/4 down
        g = PLMap([(0, 0), (Fraction(1, 4), Fraction(1, 4)),
                   (Fraction(1, 2), Fraction(5, 8)),
                   (Fraction(3, 4), Fraction(11, 16)), (1, 1)])
        act = MarkedAction(("a",), (g,), UNIT_INTERVAL)
        p = Fraction(1, 2)
        w = window_from_values(0, p, (p, Fraction(5, 8)),
                               (Fraction(1, 4), Fraction(3, 4)), Fraction(1, 8))
        rs = RescaledSystem(w, act, 4)
        expected = window_fixed_point_oracle(rs)
        assert expected == {"a": (Fraction(-2),) * 2}
        assert fixed_point_in_window(rs) == expected

    def test_every_point_fixed_is_degenerate(self):
        # g moves only the inside of the cell [1/4, 1/2], where the base
        # point 3/8 lies, and fixes every grid point
        g = PLMap([(0, 0), (Fraction(1, 4), Fraction(1, 4)),
                   (Fraction(3, 8), Fraction(7, 16)),
                   (Fraction(1, 2), Fraction(1, 2)), (1, 1)])
        rs = self.unit_window_system(g, Fraction(3, 8))
        with pytest.raises(Degenerate):
            window_fixed_point_oracle(rs)
        with counting_calls("apply", PLMap) as counts:
            with pytest.raises(Degenerate):
                fixed_point_in_window(rs)
        assert counts["PLMap"] == 5

    def test_torus_run_evaluates_each_scan_to_its_stop(self, capsys,
                                                       monkeypatch):
        # with CompactifiedLift's pieces hidden, so that both statistics
        # read one-point pieces, the benchmark's renorm-torus run at --start 1/2: each scan
        # reads the grid up to its first zero or sign change and bisects there;
        # build_windows (one point per generator) and generator_deviation
        # (the shift at p and a 65-point grid) read what they read before;
        # the orbit ([a,b], four letters per window after the first) is
        # counted apart, as it is drawn
        scanned = []
        orbit_calls = []

        def scan(rs):
            before = counts["CompactifiedLift"]
            out = fixed_point_in_window(rs)
            scanned.append((rs, counts["CompactifiedLift"] - before))
            return out

        def orbit(*args):
            points = orbit_sequence(*args)
            while True:
                before = counts["CompactifiedLift"]
                p = next(points, None)
                orbit_calls.append(counts["CompactifiedLift"] - before)
                if p is None:
                    return
                yield p

        monkeypatch.delattr(CompactifiedLift, "pieces_along")
        with counting_calls("apply_pair", CompactifiedLift) as counts, \
                mock.patch.object(cli, "fixed_point_in_window", scan), \
                mock.patch.object(cli, "orbit_sequence", orbit):
            assert cli.main(["renorm", "--action", "punctured-torus",
                             "--windows", "32", "--grid", "64",
                             "--start", "1/2"]) == 0
        capsys.readouterr()
        assert sum(orbit_calls) == 31 * 4
        total = counts["CompactifiedLift"] - sum(orbit_calls)
        in_scans = sum(used for _, used in scanned)
        assert len(scanned) == 32
        assert total - in_scans == 32 * 2 * (1 + 1 + 65)
        bound = 0
        for rs, _ in scanned:
            nums, den = integer_grid(*window_values(rs.window)[3], rs.grid)
            for g in rs.act.maps:
                signs = [(v > 0) - (v < 0)
                         for v, _ in displacements(g, nums, den)]
                stop = next((k for k, s in enumerate(signs) if s != signs[0]),
                            len(signs) - 1)
                bound += stop + 1 + BISECTION_STEPS
        assert in_scans <= bound
        # 9,216 with the full 65-point scan
        assert total == 6170


def sign_normalized(p, q):
    return q > 0 or (q == 0 and p > 0)


class TestIntegerForms:
    """Each integer step that CompactifiedLift.apply_pair fuses agrees with
    the object form that wraps it, at every positive scaling of its input:
    MoebiusMap.apply_pair, traversal_cmp_pair, LiftedMap.apply_triple,
    compactify_triple and uncompactify_triple.  Each returned pair is
    sign-normalized and scales with the input."""

    # the basepoint (r == 0 once compactified), infinity (2r == d) and one
    # point on each side of the cut
    BASES = (BASEPOINT, ProjPoint.infinity(), ProjPoint(1, 1), ProjPoint(-1, 1))

    @staticmethod
    def scales(rng):
        return (1, rng.randint(2, 50), rng.randint(51, 10 ** 9))

    def cover_points(self, rng):
        return ([CoverPoint(u, s) for s in range(-3, 4) for u in self.BASES]
                + [CoverPoint(rand_proj(rng), rng.randint(-3, 3))
                   for _ in range(60)])

    @staticmethod
    def lifts():
        # both torus lifts, their inverses and deck translates
        act = punctured_torus_action()
        return [f.deck(k) for f in act.maps + act.inverses for k in range(-2, 3)]

    def test_moebius_apply_pair(self):
        rng = random.Random(130)
        maps = [TORUS_A, TORUS_B, TORUS_A.inverse(), TORUS_B.inverse(),
                MoebiusMap(-1, -1, -1, -2)] + [rand_sl2(rng) for _ in range(30)]
        points = list(self.BASES) + [rand_proj(rng) for _ in range(30)]
        for m in maps:
            for u in points:
                base = m.apply_pair(u.num, u.den)
                for k in self.scales(rng):
                    r, s = m.apply_pair(k * u.num, k * u.den)
                    assert sign_normalized(r, s)
                    assert (r, s) == (k * base[0], k * base[1])
                    assert ProjPoint(r, s) == m.apply(u)

    def test_traversal_cmp_pair(self):
        rng = random.Random(131)
        points = list(self.BASES) + [rand_proj(rng) for _ in range(30)]
        infinite_sides = set()
        for u in points:
            for v in points:
                j, k = rng.choice(self.scales(rng)), rng.choice(self.scales(rng))
                assert traversal_cmp_pair(j * u.num, j * u.den, k * v.num,
                                          k * v.den) == traversal_cmp(u, v)
                infinite_sides.add((u.is_infinite, v.is_infinite))
        assert infinite_sides == {(False, False), (False, True),
                                  (True, False), (True, True)}

    def test_lifted_apply_triple(self):
        rng = random.Random(132)
        points = self.cover_points(rng)
        for f in self.lifts():
            for x in points:
                for k in self.scales(rng):
                    r, s, sheet = f.apply_triple(k * x.base.num,
                                                 k * x.base.den, x.sheet)
                    assert sign_normalized(r, s)
                    assert CoverPoint(ProjPoint(r, s), sheet) == f.apply(x)

    def test_compactify_triple(self):
        rng = random.Random(133)
        for x in self.cover_points(rng):
            for k in self.scales(rng):
                num, den = compactify_triple(k * x.base.num, k * x.base.den,
                                             x.sheet)
                assert den > 0
                assert Fraction(num, den) == compactify(x)

    def test_uncompactify_triple(self):
        rng = random.Random(134)
        for x in self.cover_points(rng):
            n, m = compactify(x).as_integer_ratio()
            for k in self.scales(rng):
                p, q, sheet = uncompactify_triple(k * n, k * m)
                assert sign_normalized(p, q)
                assert CoverPoint(ProjPoint(p, q), sheet) == uncompactify(
                    Fraction(n, m)) == x
                # the two branch boundaries keep their exact shape
                if x.base == BASEPOINT:
                    assert p == 0
                if x.base.is_infinite:
                    assert q == 0

    def test_outside_the_open_interval_is_one_message(self):
        rng = random.Random(135)
        lifts = compactified_action(punctured_torus_action()).maps
        for n, m in ((0, 1), (1, 1), (-1, 3), (4, 3), (2, 1), (-5, 1)):
            for k in self.scales(rng):
                with pytest.raises(OutOfDomain) as via_object:
                    uncompactify(Fraction(n, m))
                with pytest.raises(OutOfDomain) as via_triple:
                    uncompactify_triple(k * n, k * m)
                assert str(via_triple.value) == str(via_object.value)
                if 0 <= n <= m:
                    continue  # the endpoints, which every lift fixes
                for g in lifts:
                    with pytest.raises(OutOfDomain) as via_apply:
                        g.apply(Fraction(n, m))
                    with pytest.raises(OutOfDomain) as via_pair:
                        g.apply_pair(k * n, k * m)
                    assert str(via_pair.value) == str(via_apply.value) \
                        == str(via_object.value)


class TestKernelMatchesChain:
    """CompactifiedLift.apply_pair, one frame of integer steps, returns the
    tuple that the chain of the integer steps returns (tests/helpers.py),
    unreduced, at every scaling of its input, and raises the chain's
    OutOfDomain outside the closed unit interval."""

    forms = TestIntegerForms()

    def compactified_lifts(self):
        return [CompactifiedLift(f) for f in self.forms.lifts()]

    def test_every_point_and_scaling(self):
        rng = random.Random(140)
        pairs = [compactify(x).as_integer_ratio()
                 for x in self.forms.cover_points(rng)]
        pairs += [(0, 1), (1, 1)]
        checked = 0
        for g in self.compactified_lifts():
            # the points whose image lies over infinity, the middle half
            # of the traversal order
            inverse = g.lift.inverse()
            poles = [compactify(inverse.apply(CoverPoint(ProjPoint.infinity(),
                                                         s))).as_integer_ratio()
                     for s in range(-3, 4)]
            for n, m in pairs + poles:
                for k in self.forms.scales(rng):
                    assert g.apply_pair(k * n, k * m) == compactified_lift_chain(
                        g, k * n, k * m)
                    checked += 1
        assert checked == 20 * (7 * 4 + 60 + 2 + 7) * 3

    def test_outside_the_open_interval_is_the_chain_message(self):
        rng = random.Random(141)
        for g in self.compactified_lifts():
            for n, m in ((-1, 3), (4, 3), (2, 1), (-5, 1)):
                for k in self.forms.scales(rng):
                    with pytest.raises(OutOfDomain) as via_chain:
                        compactified_lift_chain(g, k * n, k * m)
                    with pytest.raises(OutOfDomain) as via_kernel:
                        g.apply_pair(k * n, k * m)
                    assert str(via_kernel.value) == str(via_chain.value) \
                        == "uncompactify needs a point strictly inside (0, 1)"


class TestOneEvaluationAtTheMarkedPoint:
    """A rescaled system keeps the displacements of the origin that its
    unit check computed, and the renorm CSV prints those: one
    RescaledSystem.apply per window and generator."""

    @staticmethod
    def run_renorm(capsys, *args):
        built = []

        def recording(*a):
            rs = RescaledSystem(*a)
            built.append(rs)
            return rs

        with counting_calls("apply", RescaledSystem) as counts, \
                mock.patch.object(cli, "RescaledSystem", recording):
            assert cli.main(["renorm", *args]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        return built, rows, counts["RescaledSystem"]

    def check_column(self, built, rows):
        by_window = {rs.window.index: rs for rs in built}
        assert len(rows) == sum(len(rs.names) for rs in built)
        for row in rows:
            index, name, shift = row.split(",")[:3]
            rs = by_window[int(index)]
            assert shift == fmt_rat(rs.apply(name, 0)) \
                == fmt_rat(rs.displacements_at_0[name])

    def test_torus_run(self, capsys):
        built, rows, applies = self.run_renorm(
            capsys, "--action", "punctured-torus", "--windows", "32",
            "--grid", "64", "--start", "1/2")
        # 128 when the column evaluated g(p) a second time
        assert len(built) == 32 and applies == 64
        self.check_column(built, rows)

    def test_germ_run(self, capsys):
        built, rows, applies = self.run_renorm(
            capsys, "--windows", "128", "--grid", "64")
        # 256 when the column evaluated g(p) a second time
        assert len(built) == 128 and applies == 128
        self.check_column(built, rows)


class TestNoCoverObjectsOnTheGrid:
    """The compactified torus grid and its bisection run on integers: they
    build no ProjPoint and no CoverPoint."""

    def test_grid_and_bisection(self):
        _, systems = torus_windows(range(4))
        bisected = 0
        for rs in systems:
            g = rs.act.maps[0]
            nums, den = integer_grid(*window_values(rs.window)[3], rs.grid)
            assert len(nums) == 65
            with counting_calls("__init__", ProjPoint, CoverPoint) as counts:
                displacements(g, nums, den)
                brackets = fixed_point_in_window(rs)
            assert not counts, counts
            bisected += sum(b is not None and b[0] != b[1]
                            for b in brackets.values())
        assert bisected >= 4

    def test_the_count_sees_the_object_path(self):
        g = compactified_action(punctured_torus_action()).maps[0]
        with counting_calls("__init__", ProjPoint, CoverPoint) as counts:
            g.apply(Fraction(1, 3))
        assert counts["ProjPoint"] >= 2 and counts["CoverPoint"] >= 2


class TestStatisticsReadThePairForm:
    """build_windows, generator_deviation and fixed_point_in_window evaluate
    a generator that has apply_pair only through it; RescaledSystem.apply is
    the one object-path evaluation left in renorm."""

    PAIR_FORMS = (CompactifiedLift, MoebiusGermMap)

    @staticmethod
    def cases():
        torus = compactified_action(punctured_torus_action())
        return [
            (torus, [compactify(COVER_BASEPOINT.deck(n)) for n in range(4)]),
            (germ_action(), [Fraction(1, i) for i in (2, 3, 50)]),
        ]

    def test_windows_deviation_and_brackets(self):
        for act, points in self.cases():
            with counting_calls("apply", *self.PAIR_FORMS) as counts:
                windows = build_windows(act, points)
            assert not counts, counts
            for w in windows:
                rs = RescaledSystem(w, act, 64)
                with counting_calls("apply", *self.PAIR_FORMS) as counts:
                    for name in rs.names:
                        generator_deviation(rs, name, 2)
                    fixed_point_in_window(rs)
                assert not counts, counts

    def test_the_count_sees_the_object_path(self):
        for act, points in self.cases():
            rs = RescaledSystem(build_windows(act, points)[0], act, 64)
            with counting_calls("apply", *self.PAIR_FORMS) as counts:
                rs.apply(rs.names[0], 0)
            assert sum(counts.values()) == 1, counts


class TestPairPathMatchesFractionLoops:
    """generator_deviation and fixed_point_in_window on integer pairs agree
    exactly with the loops over Fraction window points that they replaced
    (tests/helpers.py), on every action type, at grid 64 along orbits from
    the renorm benchmark's starts."""

    STARTS = (Fraction(1, 2), Fraction(2, 5), Fraction(6, 11))
    RADII = (0, Fraction(1, 3), 2, 1000)

    @staticmethod
    def actions():
        pl = PLMap([(0, 0), (Fraction(1, 3), Fraction(1, 2)), (1, 1)])
        model = ModelTranslation((Fraction(1, 3), Fraction(3, 4)), 2)
        return {
            "germ": (germ_action(), "a"),
            "torus": (compactified_action(punctured_torus_action()), "[a,b]"),
            "pl": (MarkedAction(("a",), (pl,), UNIT_INTERVAL), "a"),
            "model": (MarkedAction(("a",), (model,), UNIT_INTERVAL), "a"),
            "zz": (zz_letter_action(), "a"),
        }

    def test_every_action_type_at_grid_64(self):
        rng = random.Random(123)
        seen = set()
        for kind, (act, advance) in self.actions().items():
            for start in self.STARTS:
                points = orbit_sequence(act, act.parse(advance), start, 5)
                for w in build_windows(act, points):
                    rs = RescaledSystem(w, act, 64)
                    for name in rs.names:
                        for radius in self.RADII + (rand_pos_rat(rng),):
                            assert generator_deviation(rs, name, radius) \
                                == window_deviation_oracle(rs, name, radius)
                    try:
                        expected = window_fixed_point_oracle(rs)
                    except Degenerate:
                        with pytest.raises(Degenerate):
                            fixed_point_in_window(rs)
                        seen.add((kind, "degenerate"))
                        continue
                    assert fixed_point_in_window(rs) == expected
                    seen.update((kind, "none" if b is None else "bracket")
                                for b in expected.values())
        assert {("germ", "none"), ("torus", "bracket"),
                ("zz", "degenerate")} <= seen, seen


    def test_radius_grid_is_over_the_least_denominator(self):
        # the clamp runs on integers over a common denominator, and the
        # grid it samples has the numerators of the clamped Fraction ends
        grids = []

        def record(*args):
            grids.append(grid_over(*args))
            return grids[-1]

        grid_over = renorm._grid_over
        for kind, (act, advance) in self.actions().items():
            points = orbit_sequence(act, act.parse(advance), self.STARTS[0], 3)
            for w in build_windows(act, points):
                rs = RescaledSystem(w, act, 64)
                _, p, _, (e0, e1), _, u = window_values(w)
                for radius in self.RADII:
                    lo = max(e0, p - u * radius)
                    hi = min(e1, p + u * radius)
                    grids.clear()
                    with mock.patch.object(renorm, "_grid_over", record):
                        generator_deviation(rs, rs.names[0], radius)
                    assert grids == [integer_grid(lo, hi, 64)], kind

    def test_bisection_midpoint_is_an_exact_zero(self):
        # the PL map's one interior fixed point, 11/32, is no point of the
        # grid 1/4, 1/2, 3/4 but the third midpoint of its first cell
        z = Fraction(11, 32)
        g = PLMap([(0, 0), (Fraction(1, 8), Fraction(1, 4)), (z, z),
                   (Fraction(3, 4), Fraction(5, 8)), (1, 1)])
        act = MarkedAction(("a",), (g,), UNIT_INTERVAL)
        p = Fraction(1, 2)
        gp = g.apply(p)
        w = window_from_values(0, p, (gp, p),
                               (Fraction(1, 4), Fraction(3, 4)), p - gp)
        rs = RescaledSystem(w, act, 2)
        expected = window_fixed_point_oracle(rs)
        assert expected == {"a": ((z - p) / (p - gp),) * 2}
        assert fixed_point_in_window(rs) == expected


class ScannedMap:
    """g without its closed form: the pair form, the undefined points and
    the inverse of g, but no pieces_along, so the statistics read it as
    one-point pieces, one grid point at a time."""

    def __init__(self, g):
        self.g = g

    def apply(self, x):
        return self.g.apply(x)

    def apply_pair(self, n, m):
        return self.g.apply_pair(n, m)

    def undefined_pairs(self):
        return self.g.undefined_pairs()

    def inverse(self):
        return ScannedMap(self.g.inverse())


def outcome(stat, rs, *args):
    """What the statistic returns, or the type and message it raises."""
    try:
        return stat(rs, *args)
    except (OutOfDomain, Degenerate) as exc:
        return type(exc), str(exc)


class TestGermClosedForm:
    """On a Moebius germ both statistics read the closed form of its
    displacement along the grid (MoebiusGermMap.pieces_along): the
    bracket from a binary search on a quadratic, the deviation at the few
    points where a quadratic over a linear form can peak.  Both agree
    exactly with the Fraction oracles of tests/helpers.py and with the scan
    of the same germ behind ScannedMap, raise for the same poles with the
    same message, and reach every branch of the two lemmas."""

    GRIDS = (2, 3, 7, 64)
    RADII = (0, Fraction(1, 3), 2, 1000)
    IDENTITY = MoebiusGermMap(1, 0, 0, 1)

    @staticmethod
    def rand_germ(rng):
        # every other germ fixes two rationals of denominator at most 4,
        # which fall on grid points and share grid cells
        while True:
            if rng.random() < 0.5:
                a, b, c, d = (rng.randint(-30, 30) for _ in range(4))
            else:
                s1, s2 = rng.randint(1, 4), rng.randint(1, 4)
                r1, r2 = rng.randint(0, s1), rng.randint(0, s2)
                k, a = rng.choice((-1, 1)), rng.randint(-10, 10)
                b, c, d = -k * r1 * r2, k * s1 * s2, a - k * (s1 * r2 + s2 * r1)
            if a * d - b * c > 0 and max(map(abs, (a, b, c, d))) <= 30:
                return MoebiusGermMap(a, b, c, d)

    @staticmethod
    def rand_window(rng, g):
        # the window about p whose unit is |g(p) - p|: its enlarged ends
        # are 0 and 1, or the hull pushed out, or the pole of g
        p = Fraction(rng.randint(1, 11), 12)
        try:
            gp = g.apply(p)
        except OutOfDomain:
            return None
        if gp == p:
            return None
        h0, h1 = min(p, gp), max(p, gp)
        mode = rng.randrange(3)
        if mode == 0:
            e0, e1 = min(h0, 0), max(h1, 1)
        else:
            e0 = h0 - Fraction(rng.randint(0, 12), rng.randint(1, 12))
            e1 = h1 + Fraction(rng.randint(0, 12), rng.randint(1, 12))
        if mode == 2 and g.c:
            pole = Fraction(-g.d, g.c)
            if pole <= h0:
                e0 = pole
            elif pole >= h1:
                e1 = pole
        return window_from_values(0, p, (h0, h1), (e0, e1),
                                  gp - p if gp > p else p - gp)

    @staticmethod
    def two_roots_in_one_cell(g, rs):
        # Q(k) and Q(k + 1) share the sign of Q2, the vertex lies between
        # them and the discriminant is positive: both roots of Q lie
        # strictly inside the cell
        nums, den = integer_grid(*window_values(rs.window)[3], rs.grid)
        (q0, q1, q2), _ = g.pieces_along(nums[0], nums[1] - nums[0], den,
                                         rs.grid)[0][2]
        if not q2 or q1 * q1 - 4 * q0 * q2 <= 0:
            return False
        k = -q1 // (2 * q2)
        if Fraction(-q1, 2 * q2) == k:
            return False
        return all(q2 * (q0 + q1 * j + q2 * j * j) > 0 for j in (k, k + 1))

    @staticmethod
    def interior_peak(g, rs, radius):
        # the largest deviation over the radius grid lies strictly inside it
        _, p, _, (e0, e1), _, u = window_values(rs.window)
        lo = max(e0, p - u * radius)
        hi = min(e1, p + u * radius)
        shift = g.apply(p) - p
        devs = [abs(g.apply(x) - x - shift)
                for x in window_grid(lo, hi, rs.grid)]
        return max(devs) > max(devs[0], devs[-1])

    @staticmethod
    def pole_place(g, rs, lo, hi):
        # where the pole of g lies in [lo, hi]: at an end, on an inner grid
        # point, inside a cell, or nowhere in it
        if not g.c:
            return None
        pole = Fraction(-g.d, g.c)
        if not lo <= pole <= hi:
            return None
        if pole in (lo, hi):
            return "end"
        k = (pole - lo) / (hi - lo) * rs.grid
        return "grid" if k.denominator == 1 else "cell"

    def test_matches_the_oracles_and_the_scan(self):
        rng = random.Random(371)
        seen = Counter()
        cases = 0
        while cases < 1500:
            g = self.rand_germ(rng)
            w = self.rand_window(rng, g)
            if w is None:
                continue
            cases += 1
            maps = (g,) if rng.random() < 0.9 else (g, self.IDENTITY)
            names = ("a", "b")[:len(maps)]
            act = MarkedAction(names, maps, UNIT_INTERVAL)
            scanned = MarkedAction(names, tuple(map(ScannedMap, maps)),
                                   UNIT_INTERVAL)
            grid = rng.choice(self.GRIDS)
            rs = RescaledSystem(w, act, grid)
            rs_scan = RescaledSystem(w, scanned, grid)
            got = outcome(fixed_point_in_window, rs)
            assert got == outcome(fixed_point_in_window, rs_scan)
            place = self.pole_place(g, rs, *window_values(w)[3])
            if place is not None:
                assert got == (OutOfDomain, "germ has a pole at %s"
                               % (Fraction(-g.d, g.c),))
                for radius in self.RADII:
                    assert outcome(generator_deviation, rs, "a", radius) \
                        == outcome(generator_deviation, rs_scan, "a", radius)
                seen["pole at an end" if place == "end" else
                     "pole on the grid" if place == "grid" else
                     "pole inside a cell"] += 1
                continue
            assert got == outcome(window_fixed_point_oracle, rs)
            if got == (Degenerate, "generator b is the identity on the window"):
                seen["identity"] += 1
                continue
            bracket = got["a"]
            if bracket is not None:
                seen["zero on the grid" if bracket[0] == bracket[1]
                     else "bracket"] += 1
            if self.two_roots_in_one_cell(g, rs):
                seen["two roots in one cell"] += 1
            for radius in self.RADII:
                expected = window_deviation_oracle(rs, "a", radius)
                assert generator_deviation(rs, "a", radius) \
                    == generator_deviation(rs_scan, "a", radius) == expected
                if self.interior_peak(g, rs, radius):
                    seen["peak inside the grid"] += 1
        assert len(seen) == 8, seen

    def test_candidates_hold_both_sides_of_each_critical_point(self):
        # wherever R, the numerator of the derivative of Q/L, is zero or
        # changes sign on the grid (and Q/L is not constant), the grid
        # points on both sides are candidates; small coefficients put
        # roots next to integers, where isqrt's floor can be off by one
        rng = random.Random(372)
        near = checked = 0
        while checked < 2000:
            g = self.rand_germ(rng)
            last = rng.choice(self.GRIDS)
            n0, h, den = rng.randint(-20, 20), rng.randint(1, 3), rng.randint(1, 6)
            try:
                form = g.pieces_along(n0, h, den, last)[0][2]
            except OutOfDomain:
                continue
            (q0, q1, q2), (l0, l1) = form
            if any(l0 + l1 * j <= 0 for j in (0, last)):
                continue
            checked += 1
            got = renorm._extremum_candidates(form, last)
            r = [q2 * l1 * j * j + 2 * q2 * l0 * j + q1 * l0 - q0 * l1
                 for j in range(last + 1)]
            for j in range(last if any(r) else 0):
                if r[j] * r[j + 1] < 0 or r[j] == 0:
                    assert {j, j + 1} <= set(got), (form, last)
                    # by linear interpolation, the root lies within 1/4
                    # of j or of j + 1
                    near += 16 * min(r[j], r[j + 1], key=abs) ** 2 \
                        <= (r[j] - r[j + 1]) ** 2
            assert got == sorted(set(got)) and set(got) <= set(range(last + 1))
        assert near > 100

    def test_one_piece_matches_apply_pair(self):
        # on seeded grids whose span holds no pole, the germ is one piece:
        # its form gives (Q(i), L(i)) and its matrix apply_pair's tuple at
        # every grid point and at scaled points inside each cell
        rng = random.Random(373)
        seen = Counter()
        for last in (2, 7, 64, 200):
            checked = 0
            while checked < 60:
                g = self.rand_germ(rng)
                n0, h = rng.randint(-40, 40), rng.randint(1, 4)
                den = rng.randint(1, 12)
                nums = [n0 + j * h for j in range(last + 1)]
                if any(nums[0] * m <= n * den <= nums[-1] * m
                       for n, m in g.undefined_pairs()):
                    continue
                checked += 1
                (j0, j1, form, matrix), = g.pieces_along(n0, h, den, last)
                assert (j0, j1) == (0, last)
                entries = (g.a, g.b, g.c, g.d)
                assert matrix in (entries, tuple(-v for v in entries))
                seen["negated" if matrix != entries else "as stored"] += 1
                (q0, q1, q2), (l0, l1) = form
                a, b, c, d = matrix
                for i, n in enumerate(nums):
                    y, q = g.apply_pair(n, den)
                    assert (y, q) == (a * n + b * den, c * n + d * den)
                    assert (q, y * den - n * q) \
                        == (l0 + l1 * i, q0 + q1 * i + q2 * i * i)
                for n in nums[:-1]:
                    scale = 2 ** rng.randint(0, BISECTION_STEPS)
                    n, m = scale * n + rng.randint(0, scale) * h, scale * den
                    assert g.apply_pair(n, m) == (a * n + b * m, c * n + d * m)
        assert set(seen) == {"negated", "as stored"}, seen

    def test_germ_run_reads_a_few_points_per_window(self, capsys):
        # the benchmark's renorm-germ run at --start 1/2: per window, the
        # orbit step, the hull, the shift at the point and the deviation's
        # candidates, and a bisection where there is a bracket; about 134
        # per window when both statistics scanned the grid
        with counting_calls("apply_pair", MoebiusGermMap) as counts:
            assert cli.main(["renorm", "--windows", "128", "--grid", "64",
                             "--start", "1/2"]) == 0
        capsys.readouterr()
        assert counts["MoebiusGermMap"] <= 128 * (12 + BISECTION_STEPS)


class ScannedLift:
    """A compactified lift without its pieces: the pair form and the
    inverse of g, but no pieces_along, so the statistics read it as
    one-point pieces, one grid point at a time."""

    def __init__(self, g):
        self.g = g

    def apply(self, x):
        return self.g.apply(x)

    def apply_pair(self, n, m):
        return self.g.apply_pair(n, m)

    def inverse(self):
        return ScannedLift(self.g.inverse())


class TestCompactifiedLiftPieces:
    """CompactifiedLift.pieces_along cuts a grid at the breakpoints of the
    lift, and each piece reproduces apply_pair: its form at every point of
    the piece, its matrix at every point of the cells between them.  The
    breakpoints come from the object forms (the cover points over 0,
    infinity and their preimages, compactified), so the order of the
    integer offsets is checked too.  Both statistics read through the
    pieces agree with the scan of the same lift behind ScannedLift and with
    the Fraction oracles of tests/helpers.py."""

    GRIDS = (2, 7, 64, 200)

    @staticmethod
    def lifts():
        # the torus generators, their inverses, other deck powers of them,
        # and the fixed-point lifts of seeded pairs of the Fricke sweep
        act = compactified_action(punctured_torus_action())
        lifts = list(act.maps + act.inverses)
        lifts += [CompactifiedLift(g.lift.deck(k))
                  for g in act.maps for k in (-1, 2)]
        rng = random.Random(380)
        for pair in rng.sample(PAIRS, 4):
            for m in pair:
                g = CompactifiedLift(fixed_point_lift(MoebiusMap(*m))[0])
                lifts += [g, g.inverse()]
        return lifts

    @staticmethod
    def breakpoints(g, lo, hi):
        """g's breakpoints in [lo, hi], 0 < lo <= hi < 1, as Fractions: the
        compactified cover points over 0, infinity and their preimages
        under g's Moebius map, on the sheets of lo to hi."""
        inverse = g.lift.moebius.inverse()
        bases = {BASEPOINT, ProjPoint.infinity(), inverse.apply(BASEPOINT),
                 inverse.apply(ProjPoint.infinity())}
        points = (compactify(CoverPoint(b, k)) for b in bases
                  for k in range(uncompactify(lo).sheet,
                                 uncompactify(hi).sheet + 1))
        return sorted(x for x in points if lo <= x <= hi), len(bases)

    @staticmethod
    def rand_ends(rng):
        # ends of a grid of [0, 1]: clamped at 0, at 1, at both, or inside,
        # some of them far out on the sheets, where breakpoints crowd, and
        # some a few sheets wide
        def point():
            if rng.random() < 0.3:
                k = rng.choice((-1, 1)) * rng.randint(0, 40)
                return compactify(CoverPoint(BASEPOINT, k))
            return Fraction(rng.randint(1, 999), 1000)
        lo, hi = sorted((point(), point()))
        mode = rng.randrange(8)
        if mode == 0:
            lo = ZERO
        elif mode == 1:
            hi = Fraction(1)
        elif mode == 2:
            lo, hi = ZERO, Fraction(1)
        elif mode < 6:
            hi = lo + (hi - lo) / rng.randint(2, 20)
        return (lo, hi) if lo < hi else None

    def check_pieces(self, g, nums, den, seen, rng):
        n0, h, last = nums[0], nums[1] - nums[0], len(nums) - 1
        xs = [Fraction(n, den) for n in nums]
        inner = [x for x in xs if 0 < x < 1]
        cuts, offsets = self.breakpoints(g, inner[0], inner[-1])
        sheets = (uncompactify(inner[-1]).sheet
                  - uncompactify(inner[0]).sheet + 1)
        with counting_calls("apply_pair", CompactifiedLift) as counts:
            got = g.pieces_along(n0, h, den, last)
            assert counts["CompactifiedLift"] == 0
            assert (got is None) == (sheets * offsets > last + 1)
            if got is None:
                seen["fallback to the scan"] += 1
                return None
            pieces = list(got)
        seen["pieces"] += 1
        assert counts["CompactifiedLift"] == sum(
            1 if j0 == j1 else 2 for j0, j1, _, _ in pieces)
        # the pieces cover the grid in order
        assert [j0 for j0, _, _, _ in pieces] \
            == [0] + [j1 + 1 for _, j1, _, _ in pieces[:-1]]
        assert pieces[-1][1] == last
        seen["clamped at 0"] += xs[0] == 0
        seen["clamped at 1"] += xs[-1] == 1
        for j0, j1, ((q0, q1, q2), (l0, l1)), matrix in pieces:
            for i in range(j1 - j0 + 1):
                n = nums[j0 + i]
                y, q = g.apply_pair(n, den)
                assert (q, y * den - n * q) \
                    == (l0 + l1 * i, q0 + q1 * i + q2 * i * i)
            if j0 == j1:
                assert matrix is None
                x = xs[j0]
                # an end, a breakpoint, or the one point of its run, with
                # a breakpoint or an end of the grid or of [0, 1] at each
                # side (breakpoints crowd at 0 and 1)
                assert x in (0, 1) or x in cuts or (
                    (j0 == 0 or xs[j0 - 1] == 0
                     or any(xs[j0 - 1] <= c < x for c in cuts))
                    and (j0 == last or xs[j0 + 1] == 1
                         or any(x < c <= xs[j0 + 1] for c in cuts)))
                seen["breakpoint on a grid point"] += x in cuts
                continue
            # no breakpoint in the span; one at each side, or an end
            assert not any(xs[j0] <= c <= xs[j1] for c in cuts)
            assert j0 == 0 or xs[j0 - 1] == 0 \
                or any(xs[j0 - 1] <= c < xs[j0] for c in cuts)
            assert j1 == last or xs[j1 + 1] == 1 \
                or any(xs[j1] < c <= xs[j1 + 1] for c in cuts)
            a, b, c, d = matrix
            for j in range(j0, j1):
                scale = 2 ** rng.randint(0, BISECTION_STEPS)
                n, m = scale * nums[j] + rng.randint(0, scale) * h, scale * den
                assert g.apply_pair(n, m) == (a * n + b * m, c * n + d * m)
        return pieces

    def test_pieces_match_apply_pair(self):
        rng = random.Random(381)
        seen = Counter()
        for g in self.lifts():
            for _ in range(24):
                ends = self.rand_ends(rng)
                if ends is None:
                    continue
                nums, den = integer_grid(*ends, rng.choice(self.GRIDS))
                self.check_pieces(g, nums, den, seen, rng)
        assert set(seen) == {"fallback to the scan", "pieces",
                             "clamped at 0", "clamped at 1",
                             "breakpoint on a grid point"}, seen

    def test_statistics_match_the_scan_and_the_oracles(self):
        rng = random.Random(382)
        lifts = self.lifts()
        seen = Counter()
        cases = 0
        while cases < 120:
            maps = tuple(rng.sample(lifts, rng.choice((1, 2))))
            ends = self.rand_ends(rng)
            if ends is None:
                continue
            p = ends[0] + (ends[1] - ends[0]) * Fraction(rng.randint(1, 7), 8)
            images = [g.apply(p) for g in maps]
            unit = max(abs(y - p) for y in images)
            h0, h1 = min(p, *images), max(p, *images)
            if unit == 0 or h0 < ends[0] or h1 > ends[1]:
                continue
            cases += 1
            names = ("a", "b")[:len(maps)]
            w = window_from_values(0, p, (h0, h1), ends, unit)
            grid = rng.choice(self.GRIDS)
            rs = RescaledSystem(w, MarkedAction(names, maps, UNIT_INTERVAL),
                                grid)
            rs_scan = RescaledSystem(
                w, MarkedAction(names, tuple(map(ScannedLift, maps)),
                                UNIT_INTERVAL), grid)
            got = outcome(fixed_point_in_window, rs)
            assert got == outcome(fixed_point_in_window, rs_scan) \
                == outcome(window_fixed_point_oracle, rs)
            if isinstance(got, tuple):
                seen["identity on the grid"] += 1
                got = dict.fromkeys(names)
            nums, den = integer_grid(*ends, grid)
            for name, g in zip(names, maps):
                for radius in (0, Fraction(1, 2), 2, Fraction(13, 3)):
                    assert generator_deviation(rs, name, radius) \
                        == generator_deviation(rs_scan, name, radius) \
                        == window_deviation_oracle(rs, name, radius)
                bracket = got[name]
                pieces = self.check_pieces(g, nums, den, seen, rng)
                if bracket is None or bracket[0] == bracket[1] \
                        or pieces is None:
                    continue
                # the grid cell k - 1, k that holds the bracket
                _, p, _, _, _, u = window_values(w)
                x = p + u * bracket[0]
                k = next(k for k, n in enumerate(nums) if Fraction(n, den) > x)
                inside = any(j0 < k <= j1 for j0, j1, _, _ in pieces)
                seen["bracket inside a multi-point piece" if inside
                     else "bracket next to a breakpoint"] += 1
        assert {"bracket inside a multi-point piece",
                "bracket next to a breakpoint", "fallback to the scan",
                "clamped at 0", "clamped at 1"} <= set(seen), seen

    def test_torus_run_reads_each_piece_at_its_ends(self, capsys):
        # the benchmark's renorm-torus run at --start 1/2: 6,294 apply_pair
        # when both statistics scan the grid
        with counting_calls("apply_pair", CompactifiedLift) as counts:
            assert cli.main(["renorm", "--action", "punctured-torus",
                             "--windows", "32", "--grid", "64",
                             "--start", "1/2"]) == 0
        capsys.readouterr()
        assert counts["CompactifiedLift"] <= 2100


class TestTranslationDeviation:
    def test_frozen_parabolic_values(self):
        assert translation_deviation(parabolic_system(100, 64), 2) \
            == Fraction(398, 10199)
        assert translation_deviation(parabolic_system(100, 64), 2) < Fraction(1, 25)
        assert translation_deviation(parabolic_system(1000, 64), 2) \
            == Fraction(3998, 1001999)

    def test_closed_form_oracle(self):
        # rescaled parabolic deviation is -x(2i+1+x)/((i+1)^2+x), derived by
        # conjugating x/(1+x) with x -> p + unit*x at p = 1/i by hand
        for i in (10, 100, 1000):
            rs = parabolic_system(i)
            lo, hi = (max(rescaled_domain(rs)[0], -2),
                      min(rescaled_domain(rs)[1], 2))
            expected = max(
                abs(-x * (2 * i + 1 + x) / ((i + 1) ** 2 + x))
                for k in range(65)
                for x in [lo + (hi - lo) * Fraction(k, 64)])
            assert translation_deviation(rs, 2) == expected

    def test_nonincreasing_along_sequence(self):
        devs = [translation_deviation(parabolic_system(i, 64), 2)
                for i in (10, 20, 40, 80, 160)]
        assert all(a >= b for a, b in zip(devs, devs[1:]))

    def test_halving_deviation_is_half_radius(self):
        act = halving_action()
        w = build_windows(act, [Fraction(1, 512)])[0]
        rs = RescaledSystem(w, act, 64)
        assert translation_deviation(rs, 1) == Fraction(1, 2)
        assert translation_deviation(rs, 2) == 1
        assert translation_deviation(RescaledSystem(w, act, 10),
                                     Fraction(1, 3)) == Fraction(1, 6)

    def test_exact_translation_gives_zero(self):
        # slope-1 middle piece: a genuine translation near the marked point
        g = PLMap([(0, 0), (Fraction(1, 8), Fraction(1, 4)),
                   (Fraction(5, 8), Fraction(3, 4)), (1, 1)])
        act = MarkedAction(("a",), (g,), UNIT_INTERVAL)
        rs = RescaledSystem(build_windows(act, [Fraction(1, 4)])[0], act, 64)
        assert translation_deviation(rs, 2) == 0
        assert translation_deviation(rs, 3) == 0

    def test_empty_grid_domain(self):
        with pytest.raises(EmptyGridDomain):
            translation_deviation(parabolic_system(10, 64), -1)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            translation_deviation(parabolic_system(10, 1), 2)

    def test_max_over_generators(self):
        act = MarkedAction(("a", "b"),
                           (parabolic_germ(), MoebiusGermMap(1, 0, 0, 2)),
                           UNIT_INTERVAL)
        rs = RescaledSystem(build_windows(act, [Fraction(1, 30)])[0], act, 32)
        assert translation_deviation(rs, 1) == max(
            generator_deviation(rs, "a", 1),
            generator_deviation(rs, "b", 1))


class TestFixedPointPersistence:
    def test_parabolic_has_no_bracket(self):
        for i in (5, 50, 500):
            assert fixed_point_in_window(parabolic_system(i)) == {"a": None}

    def test_halving_keeps_its_fixed_point(self):
        # the contraction's fixed point sits exactly two units below the
        # marked point in every window
        act = halving_action()
        rs = RescaledSystem(build_windows(act, [Fraction(1, 256)])[0], act, 64)
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
                span = rescaled_domain(rs)[1] - rescaled_domain(rs)[0]
                assert hi - lo <= span / rs.grid / 2 ** 12

    def test_identity_generator_degenerate(self):
        act = MarkedAction(("a", "b"),
                           (parabolic_germ(), PLMap([(0, 0), (1, 1)])),
                           UNIT_INTERVAL)
        rs = RescaledSystem(build_windows(act, [Fraction(1, 7)])[0], act, 64)
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
        assert hull_displacement(rs, Word(((0, 1),))) == 1
        assert hull_displacement(rs, Word()) == 0
