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
from math import gcd

from .errors import DegenerateQuadratic
from .rational import fmt_rat
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
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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

    def coordinate(self) -> str:
        """The affine coordinate as reports write it: "inf" or a rational."""
        return "inf" if self.is_infinite else fmt_rat(self.affine())

    def __repr__(self):
        return f"ProjPoint({self.coordinate()})"


BASEPOINT = ProjPoint(0, 1)


def traversal_cmp(u: ProjPoint, v: ProjPoint) -> int:
    """The traversal order with basepoint [0 : 1], on the integer pairs.

    Finite t >= 0 come first (increasing), then infinity, then finite t < 0
    (increasing): the cyclic order of the circle cut open. Points in one
    half compare by cross-multiplication; denominators are nonnegative, and
    two infinities cross-multiply to zero.
    """
    hu = 1 if u.den == 0 else (0 if u.num >= 0 else 2)
    hv = 1 if v.den == 0 else (0 if v.num >= 0 else 2)
    if hu != hv:
        return LESS if hu < hv else GREATER
    d = u.num * v.den - v.num * u.den
    return (d > 0) - (d < 0)


def _clear_to_int(entries):
    # scale rational entries to integers with content one, preserving sign
    fracs = [Fraction(e) for e in entries]
    m = 1
    for f in fracs:
        m = m * f.denominator // gcd(m, f.denominator)
    ints = [int(f * m) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
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

    def __repr__(self):
        return f"MoebiusMap{self.entries}"

    def apply(self, u: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * u.num + self.b * u.den, self.c * u.num + self.d * u.den)

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


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _eval_quad(a, b, c, t):
    return (a * t + b) * t + c


def _refine(a, b, c, lo, hi, s_lo, max_width):
    """Shrink a sign-change interval by midpoint bisection.

    An exact zero at a probe point is a rational root; it is returned as a
    small symmetric bracket whose endpoints keep the surrounding signs.
    """
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        s = _sign(_eval_quad(a, b, c, mid))
        if s == 0:
            w = min((mid - lo) / 2, (hi - mid) / 2, max_width / 2)
            return (mid - w, mid + w)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


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
    if a == 0 and b == 0:
        if c == 0:
            raise DegenerateQuadratic("all coefficients vanish")
        return []
    if a == 0:
        root = -c / b
        w = max_width / 2
        return [(root - w, root + w)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    vertex = -b / (2 * a)
    if disc == 0:
        return [(vertex, vertex)]
    # integer-cleared coefficients give the classical root bound
    ia, ib, ic = _clear_to_int((a, b, c))
    bound = Fraction(1 + max(abs(ia), abs(ib), abs(ic)))
    while _eval_quad(a, b, c, bound) == 0 or _eval_quad(a, b, c, -bound) == 0:
        bound += 1
    s_out = _sign(a)
    s_mid = -s_out  # sign at the vertex when disc > 0
    left = _refine(a, b, c, -bound, vertex, s_out, max_width)
    right = _refine(a, b, c, vertex, bound, s_mid, max_width)
    return [left, right]
