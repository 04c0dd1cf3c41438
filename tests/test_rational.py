"""Wire format for exact rationals: parse/format round trips and the integer
long-division decimal rendering."""

import random
from fractions import Fraction

import pytest

from nonsmooth.rational import Rat, fmt_rat, parse_rat, rat_to_decimal


class TestParse:
    def test_integers_and_fractions(self):
        assert parse_rat("3") == 3
        assert parse_rat("-7") == -7
        assert parse_rat("+2/6") == Fraction(1, 3)
        assert parse_rat(" -19/32 ") == Fraction(-19, 32)

    @pytest.mark.parametrize("bad", ["", "1.5", "1/-2", "a/b", "1/0x2",
                                     "2 /3", "1e3", "/3", "1/"])
    def test_rejects_non_literals(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rat("1/0")

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(300):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert parse_rat(fmt_rat(q)) == q


class TestFormat:
    def test_lowest_terms(self):
        assert fmt_rat(Fraction(4, 8)) == "1/2"
        assert fmt_rat(Fraction(-6, 3)) == "-2"
        assert fmt_rat(Rat(0)) == "0"


class TestDecimal:
    def test_frozen_renderings(self):
        assert rat_to_decimal(Fraction(1, 3)) == "0.333333333333"
        assert rat_to_decimal(Fraction(-1, 8), 3) == "-0.125"
        assert rat_to_decimal(Fraction(7, 2), 0) == "3"
        assert rat_to_decimal(Fraction(398, 10199), 6) == "0.039023"

    def test_truncates_toward_zero(self):
        assert rat_to_decimal(Fraction(2, 3), 2) == "0.66"
        assert rat_to_decimal(Fraction(-2, 3), 2) == "-0.66"

    def test_places_validated(self):
        with pytest.raises(ValueError):
            rat_to_decimal(Fraction(1), -1)

    def test_truncation_error_bound(self):
        rng = random.Random(42)
        for _ in range(300):
            q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            places = rng.randint(0, 9)
            approx = Fraction(rat_to_decimal(q, places))
            assert 0 <= abs(q) - abs(approx) < Fraction(1, 10**places)
            assert approx == 0 or (approx < 0) == (q < 0)
