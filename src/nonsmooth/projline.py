"""The rational projective line and its orientation-preserving symmetries.

Points are primitive homogeneous integer pairs [p : q]; maps are two-by-two
integer matrices of positive determinant acting projectively. A fixed
traversal order (finite nonnegative coordinates increasing, then the point at
infinity, then negative coordinates increasing) cuts the circle at [0 : 1]
and makes it searchable; the cover module stacks copies of this cut circle
into an ordered line.

Fixed points of a map are the roots of an explicit integer quadratic, and
they are located by exact sign-change bisection so that every bracket is a
machine-checkable certificate rather than a floating-point estimate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateQuadratic
from .record import Record

LESS, EQUAL, GREATER = -1, 0, 1
_ORDERING_NAMES = {LESS: "Less", EQUAL: "Equal", GREATER: "Greater"}


def ordering_name(c: int) -> str:
    return _ORDERING_NAMES[c]


class ProjPoint(Record):
    """A point [p : q] of the projective line over the rationals.

    Stored in the primitive form gcd(p, q) = 1 with q > 0, or as (1, 0) for
    the point at infinity.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if num == 0 and den == 0:
            raise ValueError("[0 : 0] is not a projective point")
        g = gcd(num, den)
        num //= g
        den //= g
        if den < 0 or (den == 0 and num < 0):
            num, den = -num, -den
        Record.__init__(self, num, den)

    @staticmethod
    def from_affine(t) -> "ProjPoint":
        t = Fraction(t)
        return ProjPoint(t.numerator, t.denominator)

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(1, 0)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def affine(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("the point at infinity has no affine coordinate")
        return Fraction(self.num, self.den)


BASEPOINT = ProjPoint(0, 1)


def traversal_cmp_pair(p: int, q: int, r: int, s: int) -> int:
    """The traversal order with basepoint [0 : 1], on the integer pairs
    [p : q] and [r : s].

    Finite t >= 0 come first (increasing), then infinity, then finite t < 0
    (increasing): the cyclic order of the circle cut open. Points in one
    half compare by cross-multiplication. Each pair must be sign-normalized
    (second entry >= 0, and first entry > 0 when the second is 0) but need
    not be reduced: the half and the sign of the cross product are
    invariant under positive scaling, and two infinities cross-multiply to
    zero.
    """
    hu = 1 if q == 0 else (0 if p >= 0 else 2)
    hv = 1 if s == 0 else (0 if r >= 0 else 2)
    if hu != hv:
        return LESS if hu < hv else GREATER
    d = p * s - r * q
    return (d > 0) - (d < 0)


def traversal_cmp(u: ProjPoint, v: ProjPoint) -> int:
    return traversal_cmp_pair(u.num, u.den, v.num, v.den)


def _clear_to_int(entries):
    # scale rational entries to integers with content one, preserving sign
    fracs = [Fraction(e) for e in entries]
    m = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (m // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("all entries vanish")
    return tuple(v // g for v in ints)


def canonical_entries(entries):
    """The one representative of a projective class of matrices: integer
    entries with content one whose first nonzero entry is positive."""
    ints = _clear_to_int(entries)
    if next(v for v in ints if v) < 0:
        ints = tuple(-v for v in ints)
    return ints


class MoebiusMap(Record):
    """[[a, b], [c, d]] with positive determinant, acting by
    [p : q] -> [a p + b q : c p + d q].

    Entries are normalized to integers with content one; the sign of the
    representative is preserved as constructed, and equality is projective
    (scalar multiples are the same map).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = _clear_to_int((a, b, c, d))
        if a * d - b * c <= 0:
            raise ValueError("determinant must be positive")
        Record.__init__(self, a, b, c, d)

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> int:
        return self.a + self.d

    def __eq__(self, other) -> bool:
        return (isinstance(other, MoebiusMap)
                and canonical_entries(self.entries) == canonical_entries(other.entries))

    def __hash__(self):
        return hash(canonical_entries(self.entries))

    def apply_pair(self, p: int, q: int):
        """The image of [p : q] as the sign-normalized pair (r, s): s >= 0,
        and r > 0 when s == 0. It is not reduced; scaling [p : q] by k > 0
        scales the image by k."""
        r, s = self.a * p + self.b * q, self.c * p + self.d * q
        return (r, s) if s > 0 or (s == 0 and r > 0) else (-r, -s)

    def apply(self, u: ProjPoint) -> ProjPoint:
        return ProjPoint(*self.apply_pair(u.num, u.den))

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return MoebiusMap(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)


def fixed_quadratic(m: MoebiusMap):
    """Coefficients (c, d - a, -b) of the quadratic whose roots are the
    finite fixed points of t -> (a t + b)/(c t + d)."""
    return (Fraction(m.c), Fraction(m.d - m.a), Fraction(-m.b))


def _refine(quad, lo, hi, den, s_lo, max_width):
    """Shrink the sign-change interval [lo/den, hi/den] by midpoint
    bisection, on integers: each step doubles den, so the midpoint is the
    numerator of the two old ends' sum, and at n/den the integer quadratic
    quad = (a, b, c) has the sign of a n^2 + b n den + c den^2.

    An exact zero at a probe point is a rational root; it is returned as a
    small symmetric bracket whose endpoints keep the surrounding signs.
    """
    a, b, c = quad
    wn, wd = max_width.as_integer_ratio()
    while (hi - lo) * wd > wn * den:
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        v = (a * mid + b * den) * mid + c * den * den
        if v == 0:
            # half the distance to either end, at most max_width/2, over 4 den wd
            w = min((hi - lo) * wd, 2 * wn * den)
            return tuple(Fraction(4 * mid * wd + e * w, 4 * den * wd) for e in (-1, 1))
        lo, hi = (mid, hi) if (v > 0) == (s_lo > 0) else (lo, mid)
    return Fraction(lo, den), Fraction(hi, den)


def bracket_roots(coeffs, max_width=Fraction(1)):
    """Isolate the real roots of a t^2 + b t + c in rational brackets.

    Each simple root comes back as an open interval (lo, hi) on which the
    quadratic changes exact sign; brackets are pairwise disjoint and listed
    left to right. A double root is rational and is returned as a degenerate
    pair (r, r), since no sign change exists there. Raises
    DegenerateQuadratic when all coefficients vanish.
    """
    a, b, c = (Fraction(v) for v in coeffs)
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    if a == b == c == 0:
        raise DegenerateQuadratic("all coefficients vanish")
    # a positive multiple with integer coefficients: the same roots and signs
    a, b, c = _clear_to_int((a, b, c))
    if a == 0:
        if b == 0:
            return []
        root, w = Fraction(-c, b), max_width / 2
        return [(root - w, root + w)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    vertex = Fraction(-b, 2 * a)
    if disc == 0:
        return [(vertex, vertex)]
    # the classical root bound; with |a| >= 1 it is at least Cauchy's
    # 1 + max(|b|, |c|)/|a|, which every root lies strictly inside, so no
    # root sits at -bound or bound
    bound = 1 + max(abs(a), abs(b), abs(c))
    s_out = 1 if a > 0 else -1
    s_mid = -s_out  # sign at the vertex when disc > 0
    v, den = vertex.as_integer_ratio()
    left = _refine((a, b, c), -bound * den, v, den, s_out, max_width)
    right = _refine((a, b, c), v, bound * den, den, s_mid, max_width)
    return [left, right]
