"""Exact rational scalars and their wire format.

All certified arithmetic in this package runs on fractions.Fraction. Floats
appear nowhere, not even in report rendering: decimal columns are produced by
integer long division so byte-identical output does not depend on platform
float formatting.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rat(text: str) -> Fraction:
    """Parse "n" or "n/d" (d positive) into an exact rational."""
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def fmt_rat(q: Fraction) -> str:
    """Render in lowest terms as "n" or "n/d"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_to_decimal(q: Fraction, places: int = 12) -> str:
    """Fixed-point decimal rendering with exactly `places` fractional digits.

    Rounds toward zero; deterministic across platforms because only integer
    arithmetic is used.
    """
    if places < 0:
        raise ValueError("places must be nonnegative")
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    whole, rem = divmod(n, d)
    digits = rem * 10**places // d
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(digits).zfill(places)}"
