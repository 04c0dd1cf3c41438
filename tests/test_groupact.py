"""Words, marked actions, orbits, and the finitely supported product action."""

import random
from fractions import Fraction

import pytest
from helpers import (
    parse_word_oracle,
    rand_cover,
    rand_interior,
    rand_word_letters,
    slope_quotient_oracle,
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
    ZZAction,
    commutator,
    compactified_action,
    orbit_sequence,
    parse_word,
    punctured_torus_action,
    word_eval,
    zz_letter_action,
    zz_slope_mid,
)
from nonsmooth.plmaps import LEFT, RIGHT, ModelTranslation, anchor, cell_midpoint, cell_shift

A = Word.generator(0)
B = Word.generator(1)


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
        assert commutator(A, A) == Word.identity()

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
            assert len(w) <= len(letters)

    def test_group_identities(self):
        rng = random.Random(403)
        for _ in range(300):
            w = Word(rand_word_letters(rng))
            v = Word(rand_word_letters(rng))
            assert (w * v).inverse() == v.inverse() * w.inverse()
            assert w * w.inverse() == Word.identity()
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
        assert parse_word("") == Word.identity()
        assert parse_word("aA") == Word.identity()

    def test_nested(self):
        w = parse_word("[a,[a,b]]")
        k = commutator(A, B)
        assert w == commutator(A, k)
        assert parse_word("(a[a,b])^-1") == (A * k).inverse()

    def test_errors(self):
        for bad in ("c", "a^", "a^x", "[ab]", "[a,b", "(ab", "ab)", "a]", "2a"):
            with pytest.raises(WordSyntaxError):
                parse_word(bad)

    def test_letter_cap(self):
        # a sequence is capped on its freely reduced letters so far plus
        # the next atom, before the two cancel
        half = MAX_WORD_LETTERS // 2
        assert len(parse_word("a^%d" % MAX_WORD_LETTERS)) == MAX_WORD_LETTERS
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
        assert parse_word("[" * 10000 + "a" + ",]" * 10000) == Word.identity()
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
            assert word_eval(act, Word.identity(), x) == x

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

    def test_commutator_orbit_climbs_sheets(self):
        act = punctured_torus_action()
        orbit = list(orbit_sequence(act, parse_word("[a,b]"), COVER_BASEPOINT, 10))
        assert len(orbit) == 11
        for n, point in enumerate(orbit):
            assert point == COVER_BASEPOINT.deck(n)

    def test_identity_orbit_constant(self):
        act = punctured_torus_action()
        orbit = list(orbit_sequence(act, Word.identity(), COVER_BASEPOINT, 5))
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


def rand_support(rng, span=5, power=3):
    table = {}
    for _ in range(rng.randint(0, 4)):
        table[rng.randint(-span, span)] = rng.randint(-power, power)
    return table


class TestZZAction:
    def test_frozen_single_cell(self):
        z = ZZAction({0: 1})
        assert z.apply(Fraction(7, 12)) == Fraction(11, 18)

    def test_empty_support_is_identity(self):
        z = ZZAction({})
        rng = random.Random(411)
        for _ in range(100):
            x = rand_interior(rng)
            assert z.apply(x) == x

    def test_anchors_fixed(self):
        rng = random.Random(412)
        for _ in range(20):
            z = ZZAction(rand_support(rng))
            for i in range(-20, 21):
                assert z.apply(anchor(i)) == anchor(i)
            assert z.apply(Fraction(0)) == 0
            assert z.apply(Fraction(1)) == 1

    def test_restriction_to_cell(self):
        z = ZZAction({2: 3, -1: -2})
        rng = random.Random(413)
        for _ in range(200):
            x = rand_interior(rng)
            assert z.apply(x) == ZZAction({2: 3}).apply(ZZAction({-1: -2}).apply(x))

    def test_composition_adds_supports(self):
        rng = random.Random(414)
        for _ in range(500):
            f, g = rand_support(rng), rand_support(rng)
            zf, zg = ZZAction(f), ZZAction(g)
            both = zf.compose(zg)
            x = rand_interior(rng)
            assert both.apply(x) == zf.apply(zg.apply(x))
            assert both == ZZAction({i: f.get(i, 0) + g.get(i, 0)
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
            z = ZZAction(rand_support(rng))
            x = rand_interior(rng)
            assert z.inverse().apply(z.apply(x)) == x

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            ZZAction({0: 1}).apply(Fraction(3, 2))


class TestZZSlopeMid:
    def test_frozen_witness_slopes(self):
        # minimal power with slope below one half at the cell midpoint is 4
        assert zz_slope_mid(ZZAction({0: 3}), 0) == Fraction(8, 15)
        assert zz_slope_mid(ZZAction({0: 4}), 0) == Fraction(16, 51)
        assert zz_slope_mid(ZZAction({}), 0) == 1

    def test_cell_independence(self):
        for i in (-2000, -200, -16, -5, 0, 5, 16, 200, 2000, 4999):
            assert zz_slope_mid(ZZAction({i: 4}), i) == Fraction(16, 51)

    def test_matches_point_walk_oracle(self):
        rng = random.Random(418)
        cells = [rng.randint(-5000, 5000) for _ in range(30)]
        for i in cells:
            for k in range(-8, 9):
                z = ZZAction({i: k})
                assert zz_slope_mid(z, i) == zz_slope_mid_oracle(z, i), (i, k)
        for i in (0, 1, -1, 37, -37, 1000, -1000, 4999):
            for k in (1, 3, 4):
                z = ZZAction({i: k})
                assert zz_slope_mid(z, i) == zz_slope_mid_oracle(z, i), (i, k)

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
        z = ZZAction({4000: 4})
        seen = []
        assert zz_slope_mid(z, 4000) == Fraction(16, 51)
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
            z = ZZAction({i: k})
            p = cell_midpoint(i)
            m = cell_shift(i, k)
            want = max(slope_quotient_oracle(m, p, LEFT),
                       slope_quotient_oracle(m, p, RIGHT))
            assert zz_slope_mid(z, i) == want


class TestActionValidation:
    def test_rejects_mismatched_binding(self):
        from nonsmooth.errors import Unsupported
        with pytest.raises(Unsupported):
            MarkedAction(("a", "b"), (cell_shift(0, 1),), UNIT_INTERVAL)
        with pytest.raises(Unsupported):
            MarkedAction(("a",), (cell_shift(0, 1),), "plane")
