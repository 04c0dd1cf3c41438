"""Certificate layer: order comparisons, interleaving and domination tables,
slope characters, and the half-slope witness for the abelian action."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from helpers import (
    ExpandedRows,
    IntervalMapExpr,
    NotFixed,
    ZZGroupAction,
    ZZWitnessEntry,
    certify_domination_oracle,
    counting_calls,
    entry_obj,
    germ_slope,
    rand_cover,
    rand_word_letters,
    row_obj,
    slope_character,
    slope_quotient_oracle,
    support_obj,
    witness_entries,
    witness_support,
    word_expr,
    zz_entry_chain,
    zz_expr,
    zz_slope_chain,
)
import nonsmooth
from nonsmooth import groupact, obstruction
from nonsmooth.cli import domination_obj, interleaving_obj, point_obj, witness_obj
from nonsmooth.cover import COVER_BASEPOINT, CoverPoint, cover_cmp, line_point
from nonsmooth.errors import (
    BracketOutsideWindow,
    DegenerateSequence,
    NotCommutatorClass,
    SearchExhausted,
    Unsupported,
)
from nonsmooth.groupact import (
    COVER_LINE,
    UNIT_INTERVAL,
    MarkedAction,
    Word,
    parse_word,
    punctured_torus_action,
    word_eval,
    zz_letter_action,
    zz_slope_mid,
)
from nonsmooth.obstruction import (
    DeckRows,
    DominationCertificate,
    DominationRow,
    ZZWitness,
    certify_domination,
    certify_interleaving,
    is_commutator_class_trivial,
    order_cmp,
    zz_witness,
)
from nonsmooth.plmaps import (
    LEFT,
    RIGHT,
    ModelTranslation,
    ZZAction,
    anchor_pair,
    base_cell_shift,
    cell_shift,
    chart_shift,
    midpoint_pair,
)
from nonsmooth.projline import EQUAL, GREATER, LESS
from nonsmooth.record import Record

PT = COVER_BASEPOINT
A = Word(((0, 1),))
B = Word(((1, 1),))
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
        r = order_cmp(zz_letter_action(), B, Word(), Fraction(1, 4))
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
        assert is_commutator_class_trivial(Word())
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
        cert = certify_interleaving(punctured_torus_action(), PT)
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
        cert = certify_interleaving(act, PT)
        _, ba, _ = cert.entries[0]
        coarse_lo, coarse_hi = cp(Fraction(1, 2), 0), cp(1, 0)
        assert cover_cmp(coarse_lo, ba.lo) == LESS
        assert cover_cmp(ba.hi, coarse_hi) == LESS
        a = act.maps[0]
        assert cover_cmp(a.apply(coarse_lo), coarse_lo) == GREATER
        assert cover_cmp(a.apply(coarse_hi), coarse_hi) == LESS

    def test_brackets_alternate_inside_window(self):
        cert = certify_interleaving(punctured_torus_action(), PT)
        _, ba, _ = cert.entries[0]
        _, bb, _ = cert.entries[1]
        assert cover_cmp(ba.hi, bb.lo) == LESS

    def test_shifted_window(self):
        act = punctured_torus_action()
        base_cert = certify_interleaving(act, PT)
        cert = certify_interleaving(act, PT.deck(3))
        assert cert.window == (PT.deck(3), PT.deck(4))
        for (name, bracket, shift), (_, base_bracket, _) in zip(
                cert.entries, base_cert.entries):
            assert shift == 3
            assert bracket.lo == base_bracket.lo.deck(3)
            assert bracket.hi == base_bracket.hi.deck(3)

    def test_window_beyond_scan_range(self):
        act = punctured_torus_action()
        with pytest.raises(BracketOutsideWindow):
            certify_interleaving(act, PT.deck(10))

    def test_deck_shifted_binding_is_rejected(self):
        act = punctured_torus_action()
        shifted = MarkedAction(("a", "b"),
                               (act.maps[0].deck(1), act.maps[1]), COVER_LINE)
        with pytest.raises(BracketOutsideWindow):
            certify_interleaving(shifted, PT)

    def test_interval_action_unsupported(self):
        with pytest.raises(Unsupported):
            certify_interleaving(zz_letter_action(), PT)

    def test_to_obj(self):
        obj = interleaving_obj(certify_interleaving(punctured_torus_action(), PT))
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
        assert len(ExpandedRows(cert.rows)) == 44

    def test_row_schedule(self):
        cert = self.cert(10)
        schedule = [(r.m, r.generator, r.sign) for r in ExpandedRows(cert.rows)]
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
        for r in ExpandedRows(cert.rows):
            assert r.moved == moved0[(r.generator, r.sign)].deck(r.m)
            assert r.dominator == PT.deck(r.m + 2)
            assert r.ordering == LESS
            assert r.bracket_route == "Less"

    def test_depth_zero(self):
        cert = self.cert(0)
        assert len(ExpandedRows(cert.rows)) == 4
        assert cert.valid and cert.structural
        assert cert.flags == ("ShallowDepth", "StructurallyExtended")

    def test_rows_are_depth_monotone(self):
        shallow = self.cert(4)
        deep = self.cert(9)
        shallow_rows = ExpandedRows(shallow.rows)
        head = [row_obj(r) for r in ExpandedRows(deep.rows)[:len(shallow_rows)]]
        assert head == [row_obj(r) for r in shallow_rows]

    def test_identity_dominator_is_invalid(self):
        act = punctured_torus_action()
        cert = certify_domination(act, Word(), (PT, K), 2)
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
            certify_domination(act, K * K, (PT, Word()), 2)

    def test_negative_depth_rejected(self):
        act = punctured_torus_action()
        with pytest.raises(ValueError):
            certify_domination(act, K * K, (PT, K), -1)

    def test_interval_action_unsupported(self):
        with pytest.raises(Unsupported):
            certify_domination(zz_letter_action(), K * K, (Fraction(1, 4), A), 3)

    def test_to_obj(self):
        cert = self.cert(1)
        obj = domination_obj(cert)
        assert obj["dominating_word"] == "abABabAB"
        assert obj["advancing_word"] == "abAB"
        assert obj["valid"] is True
        assert obj["flags"] == ["StructurallyExtended"]
        assert row_obj(ExpandedRows(cert.rows)[0])["ordering"] == "Less"
        assert obj["interleaving"]["brackets"][0]["generator"] == "a"


def oracle_cases():
    """(base, advancing word) pairs: the deck step [a,b] from a lift of the
    basepoint, and advancing words that are no deck step, [a,b] from other
    points among them (seeded)."""
    act = punctured_torus_action()
    rng = random.Random(2020)
    cases = [(PT, K), (PT.deck(-2), K), (PT, A), (PT, B), (PT, K * K),
             (cp(Fraction(1, 2)), K)]
    cases += [(rand_cover(rng), K) for _ in range(3)]
    deck_steps = [word_eval(act, w, p) == p.deck(1) for p, w in cases]
    assert deck_steps == [True, True] + [False] * (len(cases) - 2)
    return cases


class TestDeckRows:
    """The certificate against the per-row loop it derives from step 0."""

    @pytest.mark.parametrize("h", [K * K, K ** 3, Word()],
                             ids=("[a,b]^2", "[a,b]^3", "empty"))
    @pytest.mark.parametrize("case", oracle_cases(),
                             ids=lambda c: "%s@%s,%d" % (
                                 c[1].to_string("ab"), point_obj(c[0])["t"],
                                 c[0].sheet))
    def test_matches_per_row_oracle(self, case, h):
        act = punctured_torus_action()
        deck = case[1] == K and case[0].base == PT.base
        if not deck:
            # the oracle tabulates any advancing word; the library only a
            # one-sheet deck step
            with pytest.raises(Unsupported):
                certify_domination(act, h, case, 60)
            return
        for depth in range(61):
            cert = certify_domination(act, h, case, depth)
            oracle = certify_domination_oracle(act, h, case, depth)
            assert tuple(ExpandedRows(cert.rows)) == oracle.rows
            for field in DominationCertificate.__slots__:
                if field != "rows":
                    assert getattr(cert, field) == getattr(oracle, field), field
            assert isinstance(cert.rows, DeckRows)
            assert cert.structural == (deck and h != Word())
            if h == Word():
                assert not cert.valid

    def test_rows_as_a_sequence(self):
        act = punctured_torus_action()
        deck_rows = certify_domination(act, K * K, (PT, K), 12).rows
        rows = ExpandedRows(deck_rows)
        expected = certify_domination_oracle(act, K * K, (PT, K), 12).rows
        assert isinstance(deck_rows, DeckRows)
        assert len(rows) == len(expected) == 52
        assert tuple(rows) == expected
        assert [r for r in rows] == list(expected)
        assert rows[0] == expected[0] and rows[-1] == expected[-1]
        assert [rows[i] for i in range(-52, 52)] == [
            expected[i] for i in range(-52, 52)]
        for k in (0, 1, 3, 4, 5, 27, 51, 52, 60, -1, -5):
            assert rows[:k] == expected[:k]
            assert rows[k:] == expected[k:]
        assert rows[::-3] == expected[::-3]
        assert rows[5:40:7] == expected[5:40:7]
        for i in (52, -53):
            with pytest.raises(IndexError):
                rows[i]

    def test_a_missed_route_stops_the_routes_of_later_steps(self):
        # as the per-row loop stops routing at its first miss
        period = tuple(
            DominationRow(0, g, s, cp(Fraction(1, 2)), PT.deck(2), LESS, route)
            for (g, s), route in zip(
                (("a", 1), ("a", -1), ("b", 1), ("b", -1)),
                ("Less", "Greater", None, None)))
        deck_rows = DeckRows(period, 3)
        rows = ExpandedRows(deck_rows)
        assert not deck_rows.carries_routes
        assert rows[:4] == period
        assert all(r.bracket_route is None for r in rows[4:])
        assert [r.moved.sheet for r in rows] == [m for m in range(4)
                                                 for _ in range(4)]


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
        p = Fraction(*midpoint_pair(i))
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
    def test_matches_per_cell_search(self, monkeypatch, truncation, cap):
        monkeypatch.setattr(obstruction, "ZZ_SEARCH_CAP", cap)
        w = zz_witness(truncation)
        want = per_cell_search(truncation, cap)
        assert len(witness_entries(w)) == len(want)
        for got, ref in zip(witness_entries(w), want):
            assert got == ref
        assert witness_support(w) == {e.index: e.power for e in want}

    @pytest.mark.parametrize("truncation", [0, 50])
    def test_one_search_on_cell_0(self, monkeypatch, truncation):
        # the witness probes each power once, whatever its truncation, and
        # each probe costs one base cell shift
        applied, powers = [], []
        apply = ModelTranslation.apply
        slope_mid = obstruction.zz_slope_mid

        def counted_apply(self, x):
            applied.append(self.power)
            return apply(self, x)

        def probed(k):
            powers.append(k)
            return slope_mid(k)

        monkeypatch.setattr(ModelTranslation, "apply", counted_apply)
        monkeypatch.setattr(obstruction, "zz_slope_mid", probed)
        w = zz_witness(truncation)
        assert w.valid and powers == [1, 2, 3, 4]
        assert applied == powers

    def test_matches_cell_chain_oracle(self):
        # the cell lemma against each cell's own chain: every entry of the
        # truncations 0 to 60, and of 200 seeded cells of truncation 5000,
        # is the entry of that cell's own search
        chain = {i: zz_entry_chain(i, obstruction.ZZ_SEARCH_CAP)
                 for i in range(-60, 61)}
        for truncation in range(61):
            cells = range(-truncation, truncation + 1)
            assert (witness_entries(zz_witness(truncation))
                    == tuple(map(chain.get, cells)))
        rng = random.Random(2601)
        seeded = [rng.randint(-5000, 5000) for _ in range(200)]
        entries = witness_entries(zz_witness(5000))
        for i in seeded:
            assert entries[i + 5000] == zz_entry_chain(
                i, obstruction.ZZ_SEARCH_CAP), i
        for i in list(chain) + seeded:
            for k in range(9):
                assert zz_slope_chain(i, k) == zz_slope_mid(k), (i, k)

    @pytest.mark.parametrize("s", [Fraction(0), Fraction(1)], ids=("s=0", "s=1"))
    def test_premise_failure_raises(self, monkeypatch, s):
        # a base link whose image leaves the interior of cell 0 voids the
        # lemma for its power, and the witness stops there
        base_link = groupact.zz_base_link

        def moved(k):
            return (s,) + base_link(k)[1:] if k == 3 else base_link(k)

        monkeypatch.setattr(groupact, "zz_base_link", moved)
        with pytest.raises(AssertionError, match="the power 3 "):
            zz_witness(4)

    def test_premise_failure_raises_under_optimize(self):
        # python -O strips bare asserts; the premise check must not be one
        child = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from nonsmooth import groupact
            from nonsmooth.obstruction import zz_witness
            base_link = groupact.zz_base_link
            groupact.zz_base_link = lambda k: (
                (Fraction(0),) + base_link(k)[1:] if k == 2 else base_link(k))
            print("optimize", sys.flags.optimize)
            try:
                zz_witness(1)
            except AssertionError as exc:
                print("raised", "the power 2 " in str(exc))
        """)
        src = os.path.dirname(os.path.dirname(nonsmooth.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "optimize 1\nraised True\n"

    def test_frozen_powers_and_slopes(self):
        w = zz_witness(4)
        assert w.truncation == 4 and w.cap == 64
        assert len(witness_entries(w)) == 9
        for e in witness_entries(w):
            assert e.power == 4
            assert e.slope == Fraction(16, 51)
            assert e.rejected_slope == Fraction(8, 15)
        assert witness_support(w) == {i: 4 for i in range(-4, 5)}
        assert w.anchors_checked == (-6, 6)
        assert w.anchors_fixed
        assert w.valid

    def test_builds_no_per_cell_record(self):
        # the witness states the cell lemma's one entry, so the records it
        # builds do not grow with the truncation
        def built(truncation):
            with counting_calls("__init__", Record) as counts:
                assert zz_witness(truncation).valid
            return counts["Record"]

        assert built(50) == built(500)

    def test_single_cell(self):
        w = zz_witness(0)
        assert [e.index for e in witness_entries(w)] == [0]
        assert w.anchors_checked == (-2, 2)
        assert w.valid

    def test_low_cap_exhausts(self, monkeypatch):
        monkeypatch.setattr(obstruction, "ZZ_SEARCH_CAP", 3)
        with pytest.raises(SearchExhausted):
            zz_witness(2)
        monkeypatch.setattr(obstruction, "ZZ_SEARCH_CAP", 4)
        assert zz_witness(2).valid

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            zz_witness(-1)

    def test_slopes_match_difference_quotients(self):
        w = zz_witness(3)
        for i in (-3, 2):
            entry = next(e for e in witness_entries(w) if e.index == i)
            mid = Fraction(*midpoint_pair(i))
            chosen = max(
                slope_quotient_oracle(zz_expr(ZZGroupAction({i: entry.power})),
                                      mid, side)
                for side in (LEFT, RIGHT))
            assert chosen == entry.slope
            prior = max(
                slope_quotient_oracle(zz_expr(ZZGroupAction({i: entry.power - 1})),
                                      mid, side)
                for side in (LEFT, RIGHT))
            assert prior == entry.rejected_slope
            assert prior >= Fraction(1, 2)

    def test_validity_requires_fixed_anchors(self):
        broken = ZZWitness(0, 64, 4, Fraction(16, 51), Fraction(8, 15),
                           (-2, 2), False)
        assert not broken.valid

    @pytest.mark.parametrize("index", [-5, 0, 5])
    def test_a_moved_anchor_voids_the_witness(self, monkeypatch, index):
        # the check reads every anchor of [lo, hi] = [-5, 5] through
        # apply_pair, so a product that moves any one of them is caught
        moved = anchor_pair(index)
        apply_pair = ZZAction.apply_pair

        def moving(self, n, m):
            return (n, m + 1) if (n, m) == moved else apply_pair(self, n, m)

        monkeypatch.setattr(ZZAction, "apply_pair", moving)
        w = zz_witness(3)
        assert w.anchors_checked == (-5, 5)
        assert not w.anchors_fixed
        assert not w.valid

    @pytest.mark.parametrize("truncation", [0, 3, 50])
    def test_each_checked_anchor_is_built_once(self, truncation):
        # apply_pair recognises an anchor by the chart identity, so the
        # 2T + 5 anchors of the check are the only anchor pairs built;
        # each module that binds anchor_pair is counted
        holders = [m for m in (groupact, obstruction)
                   if hasattr(m, "anchor_pair")]
        with counting_calls("anchor_pair", *holders) as counts:
            w = zz_witness(truncation)
        assert w.valid
        assert sum(counts.values()) == 2 * truncation + 5, counts

    def test_to_obj(self):
        w = zz_witness(1)
        obj = witness_obj(w)
        assert support_obj(w) == {"-1": 4, "0": 4, "1": 4}
        assert entry_obj(witness_entries(w)[1])["midpoint"] == "7/12"
        assert entry_obj(witness_entries(w)[1])["slope"] == "16/51"
        assert obj["valid"] is True
        assert "derivative" in obj["narrative"]

    def test_product_moves_midpoints(self):
        # sanity: the witness product is not the identity near its support
        w = zz_witness(2)
        product = ZZGroupAction(witness_support(w))
        for i in range(-2, 3):
            mid = Fraction(*midpoint_pair(i))
            assert product.apply(mid) != mid
