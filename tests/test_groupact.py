"""Words, marked actions, orbits, and the finitely supported product action."""

import random
from fractions import Fraction
from math import gcd

import pytest
from helpers import (
    ZZGroupAction,
    cell_midpoint_oracle,
    parse_word_oracle,
    counting_calls,
    rand_cover,
    rand_interior,
    rand_model,
    rand_plmap,
    rand_word_letters,
    slope_quotient_oracle,
    word_eval_objects,
    zz_slope_chain,
    zz_slope_mid_oracle,
)

from nonsmooth import groupact
from nonsmooth.cover import COVER_BASEPOINT, CoverPoint, compactify
from nonsmooth.errors import OutOfDomain, WordSyntaxError
from nonsmooth.groupact import (
    COVER_LINE,
    MAX_WORD_LETTERS,
    UNIT_INTERVAL,
    CompactifiedLift,
    MarkedAction,
    Word,
    commutator,
    compactified_action,
    orbit_sequence,
    parse_word,
    punctured_torus_action,
    word_eval,
    zz_letter_action,
    zz_slope_mid,
)
from nonsmooth.plmaps import (
    LEFT,
    RIGHT,
    ModelTranslation,
    anchor,
    anchor_pair,
    cell_shift,
    chart_index,
    chart_shift,
    from_chart,
    midpoint_pair,
)
from nonsmooth.renorm import germ_action

A = Word(((0, 1),))
B = Word(((1, 1),))


def brute_reduce(letters):
    # quadratic-time oracle: remove one cancelling pair at a time
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for j in range(len(letters) - 1):
            (i1, e1), (i2, e2) = letters[j], letters[j + 1]
            if i1 == i2 and e1 == -e2:
                del letters[j:j + 2]
                changed = True
                break
    return tuple(letters)


class TestWord:
    def test_commutator_frozen(self):
        assert commutator(A, B).letters == ((0, 1), (1, 1), (0, -1), (1, -1))
        assert commutator(A, A) == Word()

    def test_reduction_against_oracle(self):
        rng = random.Random(401)
        for _ in range(1000):
            letters = rand_word_letters(rng, length=10)
            assert Word(letters).letters == brute_reduce(letters)

    def test_reduction_idempotent_and_shorter(self):
        rng = random.Random(402)
        for _ in range(500):
            letters = rand_word_letters(rng)
            w = Word(letters)
            assert Word(w.letters) == w
            assert len(w.letters) <= len(letters)

    def test_group_identities(self):
        rng = random.Random(403)
        for _ in range(300):
            w = Word(rand_word_letters(rng))
            v = Word(rand_word_letters(rng))
            assert (w * v).inverse() == v.inverse() * w.inverse()
            assert w * w.inverse() == Word()
            assert w ** 3 == w * w * w
            assert w ** -2 == (w * w).inverse()

    def test_exponent_sums(self):
        w = parse_word("abab")
        assert w.exponent_sum(0) == 2
        assert w.exponent_sum(1) == 2
        assert commutator(A, B).exponent_sum(0) == 0

    def test_serialization(self):
        w = parse_word("abA")
        assert w.letters == ((0, 1), (1, 1), (0, -1))
        assert w.to_string() == "abA"


def well_formed(rng, depth):
    # a random word in the parser's grammar, nested at most four deep
    r = rng.random()
    if depth > 3 or r < 0.4:
        text = rng.choice("aAbB")
    elif r < 0.7:
        text = "(%s)" % "".join(well_formed(rng, depth + 1)
                                for _ in range(rng.randint(0, 3)))
    else:
        text = "[%s,%s]" % (well_formed(rng, depth + 1),
                            well_formed(rng, depth + 1))
    if rng.random() < 0.3:
        text += rng.choice(("^", " ^ ")) + str(rng.randint(-3, 3))
    return text


def parse_outcome(parse, text):
    try:
        return parse(text).letters
    except WordSyntaxError as exc:
        return str(exc)


class TestParser:
    def test_basic_forms(self):
        assert parse_word("abAB") == commutator(A, B)
        assert parse_word("[a,b]") == commutator(A, B)
        assert parse_word("a^3") == A * A * A
        assert parse_word("a^-2") == (A * A).inverse()
        assert parse_word("(ab)^2") == A * B * A * B
        assert parse_word("[a,b]^2") == commutator(A, B) * commutator(A, B)
        assert parse_word(" a\tb ") == A * B
        assert parse_word("") == Word()
        assert parse_word("aA") == Word()

    def test_nested(self):
        w = parse_word("[a,[a,b]]")
        k = commutator(A, B)
        assert w == commutator(A, k)
        assert parse_word("(a[a,b])^-1") == (A * k).inverse()

    def test_errors(self):
        # a power's digits are ASCII: superscripts and other scripts' digits
        # pass str.isdigit but are errors
        for bad in ("c", "a^", "a^x", "[ab]", "[a,b", "(ab", "ab)", "a]", "2a",
                    "a^\u00b2", "a^\u0661", "a^\u0663b"):
            with pytest.raises(WordSyntaxError):
                parse_word(bad)

    def test_letter_cap(self):
        # a sequence is capped on its freely reduced letters so far plus
        # the next atom, before the two cancel
        half = MAX_WORD_LETTERS // 2
        word = parse_word("a^%d" % MAX_WORD_LETTERS)
        assert len(word.letters) == MAX_WORD_LETTERS
        for ok in ("a" * MAX_WORD_LETTERS, "aA" * MAX_WORD_LETTERS,
                   "(a^%d)(a^%d)" % (half, half), "a^%dA" % (MAX_WORD_LETTERS - 1)):
            parse_word(ok)
        for big in ("a^99999999999", "A^-99999999999", "(a^1000)^1000",
                    "(a^1000000)^1000000", "[a^60000,b^60000]",
                    "a" * (MAX_WORD_LETTERS + 1), "(a^%d)(a^%d)" % (half, half + 1),
                    "a^%d" % (half + 1) + "b" * half, "a^%dA" % MAX_WORD_LETTERS):
            with pytest.raises(WordSyntaxError):
                parse_word(big)

    @pytest.mark.parametrize("text, expanded, expected", [
        ("ab" * 10000, 20000, lambda: (A * B) ** 10000),
        ("(" + "[ab,bA]" * 2500 + ")A", 8 * 2500 + 1,
         lambda: commutator(A * B, B * A.inverse()) ** 2500 * A.inverse()),
    ], ids=("flat", "nested"))
    def test_parse_time_is_linear(self, monkeypatch, text, expanded, expected):
        # expanded: letters of the word before free reduction; a parser
        # that re-reduces its whole prefix per atom feeds the reduction a
        # number of letters quadratic in it, and fails here early
        fed = [0]
        reduce = groupact._reduce

        def counted(letters, *rest):
            letters = list(letters)
            fed[0] += len(letters)
            assert fed[0] <= 10 * expanded, "parse is not linear"
            return reduce(letters, *rest)

        monkeypatch.setattr(groupact, "_reduce", counted)
        w = parse_word(text)
        monkeypatch.undo()
        assert w == expected()

    def test_flat_letters_are_reduced_once(self, monkeypatch):
        fed = [0]
        reduce = groupact._reduce

        def counted(letters, *rest):
            letters = list(letters)
            fed[0] += len(letters)
            return reduce(letters, *rest)

        monkeypatch.setattr(groupact, "_reduce", counted)
        w = parse_word("ab" * 10000)
        monkeypatch.undo()
        assert fed[0] == 20000
        assert w == (A * B) ** 10000

    def test_matches_recursive_oracle(self):
        # the same letters, or the same WordSyntaxError message, as the
        # recursive-descent parser, on random strings over the grammar's
        # characters and on random well-formed words, all within the depth
        # the oracle's recursion reaches
        rng = random.Random(405)
        texts = ["".join(rng.choice("aAbBc()[],^-+0123 \t")
                         for _ in range(rng.randint(0, 14)))
                 for _ in range(95_000)]
        texts += [well_formed(rng, 0) for _ in range(5_000)]
        for depth in (100, 300):
            texts += ["(" * depth + "a" + ")" * depth,
                      "(" * depth + "a",
                      "[" * depth + "a" + ",b]" * depth,
                      "[" * depth + "a" + ",]" * depth,
                      "(a^2" * depth + ")" * depth]
        for text in texts:
            assert parse_outcome(parse_word, text) == \
                parse_outcome(parse_word_oracle, text), text

    def test_deep_nesting(self):
        # no depth is too deep: 10,000 groups parse, and the letter cap is
        # the only bound
        assert parse_word("(" * 10000 + "[a,b]" + ")" * 10000) == parse_word("[a,b]")
        assert parse_word("[" * 10000 + "a" + ",]" * 10000) == Word()
        assert parse_word("(a" * 10000 + ")" * 10000) == A ** 10000
        # an even number of inversions, one per level
        assert parse_word("(" * 10000 + "ab" + ")^-1" * 10000) == A * B
        with pytest.raises(WordSyntaxError, match="missing"):
            parse_word("(" * 10000 + "a")
        with pytest.raises(WordSyntaxError, match="cap"):
            parse_word("[" * 10000 + "a" + ",b]" * 10000)

    def test_roundtrip(self):
        rng = random.Random(404)
        for _ in range(300):
            w = Word(rand_word_letters(rng))
            assert parse_word(w.to_string()) == w


class TestTorusAction:
    def test_normalization_record(self):
        act = punctured_torus_action()
        assert act.domain == COVER_LINE
        assert act.names == ("a", "b")
        assert act.meta["orientation_normalization"] == "identity"

    def test_commutator_moves_basepoint_one_sheet(self):
        act = punctured_torus_action()
        image = word_eval(act, parse_word("[a,b]"), COVER_BASEPOINT)
        assert image == COVER_BASEPOINT.deck(1)

    def test_empty_word(self):
        act = punctured_torus_action()
        rng = random.Random(405)
        for _ in range(50):
            x = rand_cover(rng)
            assert word_eval(act, Word(), x) == x

    def test_word_then_inverse(self):
        act = punctured_torus_action()
        rng = random.Random(406)
        for _ in range(500):
            w = Word(rand_word_letters(rng))
            x = rand_cover(rng)
            assert word_eval(act, w.inverse(), word_eval(act, w, x)) == x

    def test_homomorphism(self):
        act = punctured_torus_action()
        rng = random.Random(407)
        for _ in range(1000):
            w = Word(rand_word_letters(rng))
            v = Word(rand_word_letters(rng))
            x = rand_cover(rng)
            assert word_eval(act, w * v, x) == word_eval(act, w, word_eval(act, v, x))

    def test_domain_tags(self):
        act = punctured_torus_action()
        with pytest.raises(OutOfDomain):
            word_eval(act, A, Fraction(1, 2))
        with pytest.raises(OutOfDomain):
            word_eval(zz_letter_action(), A, COVER_BASEPOINT)
        # an interval action takes and gives only points of [0,1]: the
        # germ's inverse letter maps 3/4 to 3
        for word, x in ((A, Fraction(5)), (A, Fraction(-2)),
                        (A.inverse(), Fraction(3, 4))):
            with pytest.raises(OutOfDomain):
                word_eval(germ_action(), word, x)

    def test_commutator_orbit_climbs_sheets(self):
        act = punctured_torus_action()
        orbit = list(orbit_sequence(act, parse_word("[a,b]"), COVER_BASEPOINT, 10))
        assert len(orbit) == 11
        for n, point in enumerate(orbit):
            assert point == COVER_BASEPOINT.deck(n)

    def test_identity_orbit_constant(self):
        act = punctured_torus_action()
        orbit = list(orbit_sequence(act, Word(), COVER_BASEPOINT, 5))
        assert orbit == [COVER_BASEPOINT] * 6


class TestIntervalLetters:
    def test_chart_orbit_hits_anchors(self):
        act = zz_letter_action()
        orbit = orbit_sequence(act, A, Fraction(1, 2), 6)
        for n, x in enumerate(orbit):
            assert x == anchor(n)

    def test_letter_bindings(self):
        act = zz_letter_action()
        assert word_eval(act, B, Fraction(7, 12)) == Fraction(11, 18)
        assert word_eval(act, A, Fraction(1, 2)) == Fraction(2, 3)

    def test_homomorphism(self):
        act = zz_letter_action()
        rng = random.Random(408)
        for _ in range(1000):
            w = Word(rand_word_letters(rng))
            v = Word(rand_word_letters(rng))
            x = rand_interior(rng)
            assert word_eval(act, w * v, x) == word_eval(act, w, word_eval(act, v, x))


class TestCompactifiedAction:
    def test_frozen_images(self):
        act = compactified_action(punctured_torus_action())
        assert act.domain == UNIT_INTERVAL
        assert act.meta["coordinates"] == "compactified"
        half = Fraction(1, 2)
        assert word_eval(act, A, half) == Fraction(4, 7)
        assert word_eval(act, B, half) == Fraction(3, 7)
        assert word_eval(act, parse_word("[a,b]"), half) == Fraction(3, 4)

    def test_endpoints_fixed(self):
        act = compactified_action(punctured_torus_action())
        for m in act.maps:
            assert m.apply(0) == 0
            assert m.apply(1) == 1

    def test_conjugate_of_cover_action(self):
        cover_act = punctured_torus_action()
        act = compactified_action(cover_act)
        rng = random.Random(409)
        for _ in range(300):
            w = Word(rand_word_letters(rng))
            x = rand_cover(rng)
            assert word_eval(act, w, compactify(x)) == compactify(word_eval(cover_act, w, x))

    def test_inverse_roundtrip(self):
        act = compactified_action(punctured_torus_action())
        lift = act.maps[0]
        assert isinstance(lift, CompactifiedLift)
        rng = random.Random(410)
        for _ in range(100):
            x = compactify(rand_cover(rng))
            assert lift.inverse().apply(lift.apply(x)) == x


def outcome(f, *args):
    """f's value, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (OutOfDomain, WordSyntaxError) as exc:
        return type(exc), str(exc)


def interval_actions(rng):
    """The interval actions an orbit runs on: the germ, the compactified
    torus, the zz letters, one PL map, a PL map with a model translation,
    and the germ with a PL map, whose words switch between pair letters
    and Fraction letters."""
    return (germ_action(), compactified_action(punctured_torus_action()),
            zz_letter_action(),
            MarkedAction(("a",), (rand_plmap(rng),), UNIT_INTERVAL),
            MarkedAction(("a", "b"), (rand_plmap(rng), rand_model(rng)),
                         UNIT_INTERVAL),
            MarkedAction(("a", "b"), (germ_action().maps[0], rand_plmap(rng)),
                         UNIT_INTERVAL))


class TestWordEvalOnPairs:
    """word_eval on an interval action moves the point through the pair
    forms; word_eval_objects, one apply per letter, is its oracle."""

    def test_agrees_with_the_object_path(self):
        rng = random.Random(432)
        for _ in range(20):
            for act in interval_actions(rng):
                for _ in range(20):
                    w = Word(rand_word_letters(rng, len(act.maps), 8))
                    x = rng.choice((rand_interior(rng), Fraction(0),
                                    Fraction(1), Fraction(rng.randint(1, 99),
                                                          rng.randint(100, 10 ** 6))))
                    assert outcome(word_eval, act, w, x) \
                        == outcome(word_eval_objects, act, w, x)

    def test_long_power_keeps_the_reduced_points(self):
        # a^300 on the compactified torus: each letter's input is the
        # reduced point the object path reaches, so no step is larger
        act = compactified_action(punctured_torus_action())
        w = act.parse("a^300")
        x = Fraction(1, 2)
        seen = {"pairs": [], "objects": []}
        apply_pair, apply = CompactifiedLift.apply_pair, CompactifiedLift.apply

        def record_pair(self, n, m):
            seen["pairs"].append((n, m))
            return apply_pair(self, n, m)

        def record_object(self, y):
            seen["objects"].append(y.as_integer_ratio())
            return apply(self, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CompactifiedLift, "apply_pair", record_pair)
            mp.setattr(CompactifiedLift, "apply", record_object)
            y = word_eval(act, w, x)
            assert seen["objects"] == []
            z = word_eval_objects(act, w, x)
        assert y == z
        assert seen["pairs"] == seen["objects"]
        assert len(seen["pairs"]) == 300
        assert (y.numerator.bit_length(), y.denominator.bit_length()) \
            == (z.numerator.bit_length(), z.denominator.bit_length()) \
            == (418, 419)

    def test_fraction_letters_take_no_pair_round_trip(self, monkeypatch):
        # a letter without its own pair form applies to the Fraction; the
        # Fraction fallback of pair_form serves the renorm grid alone
        def refuse(g):
            raise AssertionError("a round trip through a pair")

        monkeypatch.setattr(groupact, "pair_form", refuse)
        act = zz_letter_action()
        w = act.parse("a^3bAB^2")
        x = Fraction(7, 12)
        assert word_eval(act, w, x) == word_eval_objects(act, w, x)

    def test_germ_pole_after_a_step(self):
        # A sends 1/2 to 1, where A has its pole
        act = germ_action()
        A = act.parse("A")
        assert word_eval(act, A, Fraction(1, 2)) == 1
        for f in (word_eval, word_eval_objects):
            with pytest.raises(OutOfDomain, match="^germ has a pole at 1$"):
                f(act, act.parse("AA"), Fraction(1, 2))

    def test_torus_orbit_builds_no_objects(self):
        act = compactified_action(punctured_torus_action())
        with counting_calls("apply", CompactifiedLift) as counts:
            orbit = list(orbit_sequence(act, act.parse("[a,b]"),
                                        Fraction(1, 2), 20))
        assert counts["CompactifiedLift"] == 0
        assert orbit == [compactify(COVER_BASEPOINT.deck(n)) for n in range(21)]


def rand_support(rng, span=5, power=3):
    table = {}
    for _ in range(rng.randint(0, 4)):
        table[rng.randint(-span, span)] = rng.randint(-power, power)
    return table


class TestZZAction:
    def test_frozen_single_cell(self):
        z = ZZGroupAction({0: 1})
        assert z.apply(Fraction(7, 12)) == Fraction(11, 18)

    def test_empty_support_is_identity(self):
        z = ZZGroupAction({})
        rng = random.Random(411)
        for _ in range(100):
            x = rand_interior(rng)
            assert z.apply(x) == x

    def test_anchors_fixed(self):
        rng = random.Random(412)
        for _ in range(20):
            z = ZZGroupAction(rand_support(rng))
            for i in range(-20, 21):
                assert z.apply(anchor(i)) == anchor(i)
            assert z.apply(Fraction(0)) == 0
            assert z.apply(Fraction(1)) == 1

    def test_restriction_to_cell(self):
        z = ZZGroupAction({2: 3, -1: -2})
        rng = random.Random(413)
        for _ in range(200):
            x = rand_interior(rng)
            assert z.apply(x) == ZZGroupAction({2: 3}).apply(ZZGroupAction({-1: -2}).apply(x))

    def test_composition_adds_supports(self):
        rng = random.Random(414)
        for _ in range(500):
            f, g = rand_support(rng), rand_support(rng)
            zf, zg = ZZGroupAction(f), ZZGroupAction(g)
            both = zf.compose(zg)
            x = rand_interior(rng)
            assert both.apply(x) == zf.apply(zg.apply(x))
            assert both == ZZGroupAction({i: f.get(i, 0) + g.get(i, 0)
                                     for i in set(f) | set(g)})

    def test_cell_shifts_commute(self):
        rng = random.Random(415)
        for _ in range(200):
            i = rng.randint(-4, 4)
            j = rng.randint(-4, 4)
            if i == j:
                continue
            si, sj = cell_shift(i, rng.randint(1, 3)), cell_shift(j, rng.randint(1, 3))
            x = rand_interior(rng)
            assert si.apply(sj.apply(x)) == sj.apply(si.apply(x))

    def test_inverse(self):
        rng = random.Random(416)
        for _ in range(200):
            z = ZZGroupAction(rand_support(rng))
            x = rand_interior(rng)
            assert z.inverse().apply(z.apply(x)) == x

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            ZZGroupAction({0: 1}).apply(Fraction(3, 2))

    def test_apply_pair_agrees_with_apply(self):
        rng = random.Random(419)
        for _ in range(60):
            z = ZZGroupAction(rand_support(rng))
            points = [Fraction(0), Fraction(1)]
            points += [rand_interior(rng) for _ in range(10)]
            points += [rand_interior(rng, rng.randint(2, 1 << 80))
                       for _ in range(5)]
            points += [anchor(i) for i in range(-8, 9)]
            points += [cell_midpoint_oracle(i) for i in range(-7, 7)]
            for x in points:
                want = z.apply(x)
                n, m = z.apply_pair(x.numerator, x.denominator)
                assert gcd(n, m) == 1 and Fraction(n, m) == want, (z, x)
                k = rng.randint(2, 5)
                assert Fraction(*z.apply_pair(k * x.numerator,
                                              k * x.denominator)) == want

    def test_apply_pair_returns_a_fixed_pair_as_given(self):
        # the anchor check compares the pair it passes in, unreduced or not
        rng = random.Random(420)
        for _ in range(20):
            z = ZZGroupAction(rand_support(rng))
            for i in range(-8, 9):
                a, b = anchor_pair(i)
                for k in range(1, 6):
                    assert z.apply_pair(k * a, k * b) == (k * a, k * b)
            for k in range(1, 6):
                assert z.apply_pair(0, k) == (0, k)
                assert z.apply_pair(k, k) == (k, k)


class TestZZGroupIsSmoothable:
    """The exact facts behind the README's account of the zz group: the
    letters generate Z wr Z, whose base group is the cell tables, and the
    Moebius map M(x) = 2x/(1 + x) carries each anchor to the next, which
    with phi = id gives the part of the C-infinity conjugacy that rationals
    can check."""

    @staticmethod
    def moebius_power(i, x):
        # M^i, with M(x) = 2x/(1 + x) and M^-1(y) = y/(2 - y)
        for _ in range(abs(i)):
            x = 2 * x / (1 + x) if i > 0 else x / (2 - x)
        return x

    def h0_piece(self, i, x):
        """h_0 = M^i o a^-i, the piece of cell i, at a point of that cell."""
        return self.moebius_power(i, chart_shift(-i).apply(x))

    def h0(self, x):
        return self.h0_piece(chart_index(x), x)

    @staticmethod
    def seeded_points(rng, cells):
        # points of each cell, its left anchor among them, in chart terms
        return [from_chart(i + Fraction(rng.randint(0, 719), 720))
                for i in cells for _ in range(20)]

    def test_moebius_map_shifts_the_anchors(self):
        for i in range(-300, 301):
            n, m = anchor_pair(i)
            num, den = 2 * n, m + n
            g = gcd(num, den)
            assert (num // g, den // g) == anchor_pair(i + 1), i

    def test_h0_conjugates_the_chart_shift_to_the_moebius_map(self):
        rng = random.Random(1401)
        a = chart_shift()
        for x in self.seeded_points(rng, range(-5, 6)):
            assert self.h0(a.apply(x)) == self.moebius_power(1, self.h0(x)), x

    def test_h0_is_increasing_and_continuous_at_the_anchors(self):
        rng = random.Random(1402)
        points = sorted(set(self.seeded_points(rng, range(-5, 6))))
        images = [self.h0(x) for x in points]
        assert all(u < v for u, v in zip(images, images[1:]))
        for i in range(-5, 7):
            c = anchor(i)
            assert self.h0_piece(i, c) == self.h0_piece(i - 1, c) == c, i

    def test_conjugated_letter_is_the_cell_shift(self):
        act = zz_letter_action()
        rng = random.Random(1403)
        for i in range(-5, 6):
            w = A ** i * B * A ** -i
            for _ in range(20):
                x = rand_interior(rng)
                assert word_eval(act, w, x) == cell_shift(i).apply(x), (i, x)

    def test_tables_commute_and_have_no_torsion(self):
        rng = random.Random(1404)
        identity = ZZGroupAction({})
        for _ in range(300):
            f = ZZGroupAction(rand_support(rng))
            g = ZZGroupAction(rand_support(rng))
            assert f.compose(g) == g.compose(f)
            if f == identity:
                continue
            power = f
            for k in range(1, 6):
                assert power != identity, (f, k)
                i = min(power.table)
                mid = Fraction(*midpoint_pair(i))
                assert power.apply(mid) != mid, (f, k)
                power = power.compose(f)


class TestZZSlopeMid:
    def test_frozen_witness_slopes(self):
        # minimal power with slope below one half at the cell midpoint is 4
        assert zz_slope_mid(3) == Fraction(8, 15)
        assert zz_slope_mid(4) == Fraction(16, 51)
        assert zz_slope_mid(0) == 1

    def test_cell_independence(self):
        for i in (-2000, -200, -16, -5, 0, 5, 16, 200, 2000, 4999):
            assert zz_slope_chain(i, 4) == Fraction(16, 51)

    def test_matches_point_walk_oracle(self):
        rng = random.Random(418)
        cells = [rng.randint(-5000, 5000) for _ in range(30)]
        for i in cells:
            for k in range(-8, 9):
                z = ZZGroupAction({i: k})
                assert zz_slope_mid(k) == zz_slope_mid_oracle(z, i), (i, k)
        for i in (0, 1, -1, 37, -37, 1000, -1000, 4999):
            for k in (1, 3, 4):
                z = ZZGroupAction({i: k})
                assert zz_slope_mid(k) == zz_slope_mid_oracle(z, i), (i, k)

    def test_no_cell_sized_point(self, monkeypatch):
        # the outer chart shifts are width ratios, so the PL maps only ever
        # see points of cell 0; the interval-point walk feeds them points of
        # about 2|i| bits
        def widest(fn):
            def wrapped(self, x, *rest):
                x = Fraction(x)
                seen.append(max(x.numerator.bit_length(), x.denominator.bit_length()))
                return fn(self, x, *rest)
            return wrapped

        for name in ("apply", "one_sided_slope"):
            monkeypatch.setattr(ModelTranslation, name,
                                widest(getattr(ModelTranslation, name)))
        z = ZZGroupAction({4000: 4})
        seen = []
        assert zz_slope_chain(4000, 4) == Fraction(16, 51)
        assert seen and max(seen) <= 64, seen
        seen = []
        assert zz_slope_mid_oracle(z, 4000) == Fraction(16, 51)
        assert max(seen) > 7000

    def test_against_difference_quotients(self):
        rng = random.Random(417)
        for _ in range(40):
            i = rng.randint(-4, 4)
            k = rng.randint(-3, 3)
            if k == 0:
                continue
            z = ZZGroupAction({i: k})
            p = Fraction(*midpoint_pair(i))
            m = cell_shift(i, k)
            want = max(slope_quotient_oracle(m, p, LEFT),
                       slope_quotient_oracle(m, p, RIGHT))
            assert zz_slope_mid(k) == want


class TestActionValidation:
    def test_rejects_mismatched_binding(self):
        from nonsmooth.errors import Unsupported
        with pytest.raises(Unsupported):
            MarkedAction(("a", "b"), (cell_shift(0, 1),), UNIT_INTERVAL)
        with pytest.raises(Unsupported):
            MarkedAction(("a",), (cell_shift(0, 1),), "plane")

    def test_unit_interval_points(self):
        # a point of [0, 1] comes back as a Fraction, the same object when
        # it is one; a point outside names the side it lies on
        act = zz_letter_action()
        half = Fraction(1, 2)
        assert act.check_point(half) is half
        for x, expected in ((0, 0), (1, 1), ("0", 0), ("1", 1),
                            ("3/7", Fraction(3, 7)), ("6/14", Fraction(3, 7)),
                            (True, 1), (0.25, Fraction(1, 4))):
            got = act.check_point(x)
            assert got == expected and type(got) is Fraction, x
        for x, side in ((-1, "below 0"), ("-1/1000", "below 0"),
                        (Fraction(-1, 3), "below 0"), (2, "above 1"),
                        ("1001/1000", "above 1"), (Fraction(4, 3), "above 1")):
            with pytest.raises(OutOfDomain) as raised:
                act.check_point(x)
            assert str(raised.value) == "a point %s is outside [0,1]" % side
