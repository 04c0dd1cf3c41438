"""Certificate layer: order comparisons, interleaving and domination tables,
slope characters, and the half-slope witness for the abelian action."""

import random
from fractions import Fraction

import pytest

from helpers import (
    rand_word_letters,
    row_obj,
    slope_quotient_oracle,
    word_expr,
    zz_expr,
)
from nonsmooth import obstruction
from nonsmooth.cli import domination_obj, interleaving_obj, point_obj, witness_obj
from nonsmooth.cover import COVER_BASEPOINT, CoverPoint, cover_cmp, line_point
from nonsmooth.errors import (
    BracketOutsideWindow,
    DegenerateSequence,
    NotCommutatorClass,
    NotFixed,
    SearchExhausted,
    Unsupported,
)
from nonsmooth.groupact import (
    COVER_LINE,
    UNIT_INTERVAL,
    MarkedAction,
    Word,
    ZZAction,
    parse_word,
    punctured_torus_action,
    word_eval,
    zz_letter_action,
    zz_slope_mid,
)
from nonsmooth.obstruction import (
    DominationCertificate,
    ZZWitness,
    ZZWitnessEntry,
    certify_domination,
    certify_interleaving,
    is_commutator_class_trivial,
    order_cmp,
    slope_character,
    zz_witness,
)
from nonsmooth.plmaps import (
    LEFT,
    RIGHT,
    IntervalMapExpr,
    base_cell_shift,
    cell_midpoint,
    cell_shift,
    chart_shift,
    germ_slope,
)
from nonsmooth.projline import EQUAL, GREATER, LESS

PT = COVER_BASEPOINT
A = Word.generator(0)
B = Word.generator(1)
K = parse_word("[a,b]")


def cp(t, sheet=0):
    return line_point(t).deck(sheet - line_point(t).sheet)


class TestOrderCmp:
    def test_equal_on_same_word(self):
        act = punctured_torus_action()
        r = order_cmp(act, A, A, PT)
        assert r.ordering == EQUAL
        assert r.name == "Equal"
        assert r.image1 == r.image2 == cp(Fraction(1, 2), 0)

    def test_generator_below_double_commutator(self):
        act = punctured_torus_action()
        r = order_cmp(act, A, K * K, PT)
        assert r.name == "Less"
        assert r.image1 == cp(Fraction(1, 2), 0)
        assert r.image2 == PT.deck(2)

    def test_inverse_generator_below_double_commutator(self):
        act = punctured_torus_action()
        r = order_cmp(act, A.inverse(), K * K, PT)
        assert r.name == "Less"
        assert r.image1 == cp(-1, -1)

    def test_inverse_a_below_b(self):
        act = punctured_torus_action()
        r = order_cmp(act, A.inverse(), B, PT)
        assert r.name == "Less"
        assert r.image1 == cp(-1, -1)
        assert r.image2 == cp(Fraction(-1, 2), -1)

    def test_interval_comparison(self):
        r = order_cmp(zz_letter_action(), A, B, Fraction(7, 12))
        assert r.name == "Greater"
        assert r.image1 == Fraction(11, 15)
        assert r.image2 == Fraction(11, 18)

    def test_stabilizer_gives_equal(self):
        # the base cell shift fixes everything outside (1/2, 2/3)
        r = order_cmp(zz_letter_action(), B, Word.identity(), Fraction(1, 4))
        assert r.ordering == EQUAL

    def test_left_multiplication_invariance(self):
        act = punctured_torus_action()
        rng = random.Random(60)
        for _ in range(500):
            w1 = Word(rand_word_letters(rng))
            w2 = Word(rand_word_letters(rng))
            g = Word(rand_word_letters(rng, length=3))
            before = order_cmp(act, w1, w2, PT).ordering
            after = order_cmp(act, g * w1, g * w2, PT).ordering
            assert before == after

    def test_to_obj(self):
        act = punctured_torus_action()
        r = order_cmp(act, A.inverse(), B, PT)
        assert r.name == "Less"
        assert point_obj(r.image1) == {"t": "-1", "sheet": -1}
        assert point_obj(r.image2) == {"t": "-1/2", "sheet": -1}


class TestCommutatorClass:
    def test_trivial_classes(self):
        assert is_commutator_class_trivial(Word.identity())
        assert is_commutator_class_trivial(K)
        assert is_commutator_class_trivial(K * K)
        assert is_commutator_class_trivial(parse_word("aabAAB"))

    def test_nontrivial_classes(self):
        assert not is_commutator_class_trivial(A)
        assert not is_commutator_class_trivial(parse_word("ab"))
        assert not is_commutator_class_trivial(parse_word("abAb"))

    def test_random_commutators_are_trivial(self):
        rng = random.Random(61)
        for _ in range(300):
            w1 = Word(rand_word_letters(rng))
            w2 = Word(rand_word_letters(rng))
            assert is_commutator_class_trivial(
                w1 * w2 * w1.inverse() * w2.inverse())


class TestInterleaving:
    def test_frozen_certificate(self):
        cert = certify_interleaving(punctured_torus_action())
        assert cert.window == (PT, PT.deck(1))
        (na, ba, ka), (nb, bb, kb) = cert.entries
        assert (na, nb) == ("a", "b")
        assert ka == kb == 0
        assert (ba.lo, ba.hi) == (cp(Fraction(19, 32), 0), cp(Fraction(3, 4), 0))
        assert (ba.sign_lo, ba.sign_hi) == (1, -1)
        assert (bb.lo, bb.hi) == (cp(Fraction(23, 16), 0), cp(Fraction(13, 8), 0))
        assert (bb.sign_lo, bb.sign_hi) == (-1, 1)

    def test_first_bracket_refines_coarse_one(self):
        # the bracket for a sits strictly inside the unit-width sign change
        # bracket (t=1/2, t=1) on sheet zero
        act = punctured_torus_action()
        cert = certify_interleaving(act)
        _, ba, _ = cert.entries[0]
        coarse_lo, coarse_hi = cp(Fraction(1, 2), 0), cp(1, 0)
        assert cover_cmp(coarse_lo, ba.lo) == LESS
        assert cover_cmp(ba.hi, coarse_hi) == LESS
        a = act.maps[0]
        assert cover_cmp(a.apply(coarse_lo), coarse_lo) == GREATER
        assert cover_cmp(a.apply(coarse_hi), coarse_hi) == LESS

    def test_brackets_alternate_inside_window(self):
        cert = certify_interleaving(punctured_torus_action())
        _, ba, _ = cert.entries[0]
        _, bb, _ = cert.entries[1]
        assert cover_cmp(ba.hi, bb.lo) == LESS

    def test_shifted_window(self):
        act = punctured_torus_action()
        base_cert = certify_interleaving(act)
        cert = certify_interleaving(act, window_base=PT.deck(3))
        assert cert.window == (PT.deck(3), PT.deck(4))
        for (name, bracket, shift), (_, base_bracket, _) in zip(
                cert.entries, base_cert.entries):
            assert shift == 3
            assert bracket.lo == base_bracket.lo.deck(3)
            assert bracket.hi == base_bracket.hi.deck(3)

    def test_window_beyond_scan_range(self):
        act = punctured_torus_action()
        with pytest.raises(BracketOutsideWindow):
            certify_interleaving(act, window_base=PT.deck(10))

    def test_deck_shifted_binding_is_rejected(self):
        act = punctured_torus_action()
        shifted = MarkedAction(("a", "b"),
                               (act.maps[0].deck(1), act.maps[1]), COVER_LINE)
        with pytest.raises(BracketOutsideWindow):
            certify_interleaving(shifted)

    def test_interval_action_unsupported(self):
        with pytest.raises(Unsupported):
            certify_interleaving(zz_letter_action())

    def test_to_obj(self):
        obj = interleaving_obj(certify_interleaving(punctured_torus_action()))
        assert obj["window"] == [{"t": "0", "sheet": 0}, {"t": "0", "sheet": 1}]
        assert obj["brackets"][0] == {
            "generator": "a",
            "lo": {"t": "19/32", "sheet": 0},
            "hi": {"t": "3/4", "sheet": 0},
            "sign_lo": 1,
            "sign_hi": -1,
            "deck_shift": 0,
        }
        assert "every window" in obj["periodicity_note"]


class TestDomination:
    def cert(self, depth=10):
        act = punctured_torus_action()
        return certify_domination(act, K * K, (PT, K), depth)

    def test_valid_at_depth_ten(self):
        cert = self.cert(10)
        assert isinstance(cert, DominationCertificate)
        assert cert.valid
        assert cert.structural
        assert cert.flags == ("StructurallyExtended",)
        assert len(cert.rows) == 44

    def test_row_schedule(self):
        cert = self.cert(10)
        schedule = [(r.m, r.generator, r.sign) for r in cert.rows]
        assert schedule == [(m, g, s)
                            for m in range(11)
                            for g in ("a", "b")
                            for s in (1, -1)]

    def test_row_contents_by_deck_translation(self):
        cert = self.cert(10)
        moved0 = {
            ("a", 1): cp(Fraction(1, 2), 0),
            ("a", -1): cp(-1, -1),
            ("b", 1): cp(Fraction(-1, 2), -1),
            ("b", -1): cp(1, 0),
        }
        for r in cert.rows:
            assert r.moved == moved0[(r.generator, r.sign)].deck(r.m)
            assert r.dominator == PT.deck(r.m + 2)
            assert r.ordering == LESS
            assert r.bracket_route == "Less"

    def test_depth_zero(self):
        cert = self.cert(0)
        assert len(cert.rows) == 4
        assert cert.valid and cert.structural
        assert cert.flags == ("ShallowDepth", "StructurallyExtended")

    def test_rows_are_depth_monotone(self):
        shallow = self.cert(4)
        deep = self.cert(9)
        head = [row_obj(r) for r in deep.rows[:len(shallow.rows)]]
        assert head == [row_obj(r) for r in shallow.rows]

    def test_non_deck_advancing_word_drops_structure(self):
        act = punctured_torus_action()
        cert = certify_domination(act, K * K, (PT, A), 6)
        assert cert.valid
        assert not cert.structural
        assert cert.flags == ()
        assert cert.interleaving is None
        assert all(r.bracket_route is None for r in cert.rows)

    def test_identity_dominator_is_invalid(self):
        act = punctured_torus_action()
        cert = certify_domination(act, Word.identity(), (PT, K), 2)
        assert not cert.valid
        assert not cert.structural
        assert cert.flags == ()

    def test_nonzero_class_rejected(self):
        act = punctured_torus_action()
        with pytest.raises(NotCommutatorClass):
            certify_domination(act, A, (PT, K), 2)

    def test_fixed_base_rejected(self):
        act = punctured_torus_action()
        with pytest.raises(DegenerateSequence):
            certify_domination(act, K * K, (PT, Word.identity()), 2)

    def test_negative_depth_rejected(self):
        act = punctured_torus_action()
        with pytest.raises(ValueError):
            certify_domination(act, K * K, (PT, K), -1)

    def test_interval_action_goes_through_generic_route(self):
        # the abelian commutator fixes 1/4, so nothing dominates there
        cert = certify_domination(
            zz_letter_action(), K * K, (Fraction(1, 4), A), 3)
        assert not cert.valid
        assert not cert.structural
        assert len(cert.rows) == 16

    def test_to_obj(self):
        cert = self.cert(1)
        obj = domination_obj(cert)
        assert obj["dominating_word"] == "abABabAB"
        assert obj["advancing_word"] == "abAB"
        assert obj["valid"] is True
        assert obj["flags"] == ["StructurallyExtended"]
        assert row_obj(cert.rows[0])["ordering"] == "Less"
        assert obj["interleaving"]["brackets"][0]["generator"] == "a"


class TestSlopeCharacter:
    def action(self):
        return MarkedAction(("s", "d"), (cell_shift(0, 1), cell_shift(0, 2)),
                            UNIT_INTERVAL)

    def test_frozen_right_table(self):
        sig = slope_character(self.action(), Fraction(1, 2))
        assert sig.side == RIGHT
        assert sig.table == {"s": Fraction(2), "d": Fraction(4)}

    def test_frozen_left_table(self):
        sig = slope_character(self.action(), Fraction(2, 3), side=LEFT)
        assert sig.table == {"s": Fraction(1, 2), "d": Fraction(1, 4)}

    def test_word_multiplicativity(self):
        act = self.action()
        sig = slope_character(act, Fraction(1, 2))
        rng = random.Random(62)
        for _ in range(200):
            w = Word(rand_word_letters(rng))
            expected = germ_slope(word_expr(act, w), Fraction(1, 2), RIGHT)
            assert sig.of_word(w, act.names) == expected

    def test_commutators_have_unit_slope(self):
        act = self.action()
        sig = slope_character(act, Fraction(1, 2))
        rng = random.Random(63)
        for _ in range(200):
            w1 = Word(rand_word_letters(rng))
            w2 = Word(rand_word_letters(rng))
            k = w1 * w2 * w1.inverse() * w2.inverse()
            assert sig.of_word(k, act.names) == 1

    def test_moving_generator_rejected(self):
        with pytest.raises(NotFixed):
            slope_character(zz_letter_action(), Fraction(1, 2))

    def test_cover_action_unsupported(self):
        with pytest.raises(Unsupported):
            slope_character(punctured_torus_action(), Fraction(1, 2))

    def test_to_obj(self):
        ch = slope_character(self.action(), Fraction(1, 2))
        assert (ch.point, ch.side, ch.table) == (Fraction(1, 2), "right",
                                                 {"d": 4, "s": 2})


def per_cell_search(truncation, cap):
    """Reference: the least-power search run on every cell, each slope taken
    as the larger one-sided slope of the cell's full chain."""
    entries = []
    for i in range(-truncation, truncation + 1):
        p = cell_midpoint(i)
        rejected = None
        for n in range(1, cap + 1):
            chain = IntervalMapExpr((chart_shift(i), base_cell_shift(n),
                                     chart_shift(-i)))
            slope = max(chain.one_sided_slope(p, LEFT),
                        chain.one_sided_slope(p, RIGHT))
            if slope < Fraction(1, 2):
                entries.append(ZZWitnessEntry(i, n, slope,
                                              rejected if n > 1 else None))
                break
            rejected = slope
        else:
            raise SearchExhausted("cell %d" % i)
    return entries


class TestZZWitness:
    @pytest.mark.parametrize("truncation, cap", [(16, 64), (4, 4)])
    def test_matches_per_cell_search(self, truncation, cap):
        w = zz_witness(truncation, cap=cap)
        want = per_cell_search(truncation, cap)
        assert len(w.entries) == len(want)
        for got, ref in zip(w.entries, want):
            assert got == ref
        assert w.support == {e.index: e.power for e in want}

    @pytest.mark.parametrize("skew, power, rejected_power, probes", [
        # every power reports the next one up, so the least power drops to 3
        (lambda k: k + 1, 3, 3, [4, 3, 1, 2, 3]),
        # only power 3 is off, so the shared power holds but its rejected
        # slope must come from cell 3's own search
        (lambda k: 2 if k == 3 else k, 4, 2, [4, 3, 1, 2, 3, 4]),
    ], ids=("power", "power-before"))
    def test_disagreeing_cell_gets_its_own_search(self, monkeypatch, skew,
                                                  power, rejected_power,
                                                  probes):
        calls = []

        def skewed(z, i):
            calls.append((i, z.table.get(i, 0)))
            if i == 3:
                z = ZZAction({3: skew(z.table[3])})
            return zz_slope_mid(z, i)

        monkeypatch.setattr(obstruction, "zz_slope_mid", skewed)
        w = zz_witness(4)
        by_cell = {e.index: e for e in w.entries}
        rejected = zz_slope_mid(ZZAction({0: rejected_power}), 0)
        assert by_cell[3] == ZZWitnessEntry(3, power, Fraction(16, 51),
                                            rejected)
        assert all(e.power == 4 for i, e in by_cell.items() if i != 3)
        assert [k for i, k in calls if i == 3] == probes
        assert w.support[3] == power and w.valid

    def test_disagreeing_cell_can_exhaust(self, monkeypatch):
        def flat_on_cell_3(z, i):
            return Fraction(1) if i == 3 else zz_slope_mid(z, i)

        monkeypatch.setattr(obstruction, "zz_slope_mid", flat_on_cell_3)
        with pytest.raises(SearchExhausted, match="cell 3 "):
            zz_witness(4)

    def test_frozen_powers_and_slopes(self):
        w = zz_witness(4)
        assert w.truncation == 4 and w.cap == 64
        assert len(w.entries) == 9
        for e in w.entries:
            assert e.power == 4
            assert e.slope == Fraction(16, 51)
            assert e.rejected_slope == Fraction(8, 15)
        assert w.support == {i: 4 for i in range(-4, 5)}
        assert w.anchors_checked == (-6, 6)
        assert w.anchors_fixed
        assert w.valid

    def test_single_cell(self):
        w = zz_witness(0)
        assert [e.index for e in w.entries] == [0]
        assert w.anchors_checked == (-2, 2)
        assert w.valid

    def test_low_cap_exhausts(self):
        with pytest.raises(SearchExhausted):
            zz_witness(2, cap=3)
        assert zz_witness(2, cap=4).valid

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            zz_witness(-1)
        with pytest.raises(ValueError):
            zz_witness(1, cap=0)

    def test_slopes_match_difference_quotients(self):
        w = zz_witness(3)
        for i in (-3, 2):
            entry = next(e for e in w.entries if e.index == i)
            mid = cell_midpoint(i)
            chosen = max(
                slope_quotient_oracle(zz_expr(ZZAction({i: entry.power})),
                                      mid, side)
                for side in (LEFT, RIGHT))
            assert chosen == entry.slope
            prior = max(
                slope_quotient_oracle(zz_expr(ZZAction({i: entry.power - 1})),
                                      mid, side)
                for side in (LEFT, RIGHT))
            assert prior == entry.rejected_slope
            assert prior >= Fraction(1, 2)

    def test_validity_requires_fixed_anchors(self):
        entry = ZZWitnessEntry(0, 4, Fraction(16, 51), Fraction(8, 15))
        broken = ZZWitness(0, 64, [entry], {0: 4}, (-2, 2), False)
        assert not broken.valid

    def test_to_obj(self):
        obj = witness_obj(zz_witness(1))
        assert obj["support"] == {"-1": 4, "0": 4, "1": 4}
        assert obj["entries"][1]["midpoint"] == "7/12"
        assert obj["entries"][1]["slope"] == "16/51"
        assert obj["valid"] is True
        assert "derivative" in obj["narrative"]

    def test_product_moves_midpoints(self):
        # sanity: the witness product is not the identity near its support
        w = zz_witness(2)
        product = ZZAction(w.support)
        for i in range(-2, 3):
            assert product.apply(cell_midpoint(i)) != cell_midpoint(i)
