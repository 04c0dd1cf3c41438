"""An ordered line covering the projective circle, and lifts of its maps.

Stacking one copy of the cut circle per integer sheet produces a totally
ordered line; the deck map adds one to the sheet. Every positive-determinant
Moebius map admits order-preserving lifts, any two of which differ by an
integer deck power, so a lift is pinned down by a single value: the image of
the sheet-zero basepoint.

For a map with real fixed points there is exactly one lift whose displacement
changes sign, and that sign change across a rational bracket is a certificate
that the lift has fixed points. The two concrete hyperbolic generators below
give a lifted two-generator action whose commutator acts as the deck map on
the basepoint orbit; that exact unit displacement is what the obstruction
module builds its order certificates on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from .errors import NoRealFixedPoint, OutOfDomain
from .projline import (
    BASEPOINT,
    GREATER,
    LESS,
    MoebiusMap,
    ProjPoint,
    bracket_roots,
    fixed_quadratic,
    traversal_cmp,
)
from .record import Record

# hyperbolic generators of the lifted two-generator (punctured-torus) action
TORUS_A = MoebiusMap(1, 1, 1, 2)
TORUS_B = MoebiusMap(1, -1, -1, 2)


@total_ordering
class CoverPoint(Record):
    """A point of the cover: a circle point together with its sheet index.

    The cover order is lexicographic in (sheet, traversal position).
    """

    __slots__ = ("base", "sheet")

    def __init__(self, base: ProjPoint, sheet: int):
        if not isinstance(sheet, int):
            raise TypeError("sheet must be an int")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sheet", sheet)

    def deck(self, k: int) -> "CoverPoint":
        return CoverPoint(self.base, self.sheet + k)

    def __lt__(self, other):
        return cover_cmp(self, other) == LESS

    def __repr__(self):
        return f"CoverPoint(t={self.base.coordinate()}, sheet={self.sheet})"


COVER_BASEPOINT = CoverPoint(BASEPOINT, 0)


def cover_cmp(x: CoverPoint, y: CoverPoint) -> int:
    if x.sheet != y.sheet:
        return LESS if x.sheet < y.sheet else GREATER
    return traversal_cmp(x.base, y.base)


def line_point(t) -> CoverPoint:
    """Embed the affine real line into the cover around the sheet-zero
    basepoint: t >= 0 lands on sheet 0, t < 0 just below it on sheet -1.

    The embedding is strictly increasing, so rational root brackets transport
    to correctly ordered cover brackets even when they contain t = 0.
    """
    t = Fraction(t)
    return CoverPoint(ProjPoint.from_affine(t), 0 if t >= 0 else -1)


class LiftedMap(Record):
    """The order-preserving lift of a Moebius map determined by the image of
    the sheet-zero basepoint.

    Deck equivariance F(x + 1) = F(x) + 1 holds by construction: the image of
    a sheet-n point is placed in the half-open fundamental window
    [F(basepoint of sheet n), F(basepoint of sheet n) + 1).
    """

    __slots__ = ("moebius", "basepoint_image")

    def __init__(self, moebius: MoebiusMap, basepoint_image: CoverPoint):
        if basepoint_image.base != moebius.apply(BASEPOINT):
            raise ValueError("basepoint image does not project to M(basepoint)")
        Record.__init__(self, moebius, basepoint_image)

    def apply(self, x: CoverPoint) -> CoverPoint:
        if not isinstance(x, CoverPoint):
            raise OutOfDomain("lifted maps act on cover points")
        image_base = self.moebius.apply(x.base)
        v0 = self.basepoint_image
        sheet = v0.sheet + x.sheet
        if traversal_cmp(image_base, v0.base) == LESS:
            sheet += 1
        return CoverPoint(image_base, sheet)

    def compose(self, other: "LiftedMap") -> "LiftedMap":
        return LiftedMap(
            self.moebius.compose(other.moebius), self.apply(other.basepoint_image)
        )

    def inverse(self) -> "LiftedMap":
        m = self.moebius.inverse()
        v0 = self.basepoint_image
        n = -v0.sheet - (0 if v0.base == BASEPOINT else 1)
        return LiftedMap(m, CoverPoint(m.apply(BASEPOINT), n))

    def deck(self, k: int) -> "LiftedMap":
        return LiftedMap(self.moebius, self.basepoint_image.deck(k))

    def __repr__(self):
        return f"LiftedMap({self.moebius!r}, {self.basepoint_image!r})"


def identity_lift() -> LiftedMap:
    return LiftedMap(MoebiusMap(1, 0, 0, 1), COVER_BASEPOINT)


def lift_through(m: MoebiusMap, sheet: int = 0) -> LiftedMap:
    """The lift sending the basepoint into the given sheet (a reference lift;
    all lifts of m are its deck translates)."""
    return LiftedMap(m, CoverPoint(m.apply(BASEPOINT), sheet))


class CoverBracket(Record):
    """Two cover points with exactly evaluated displacement signs under some
    lift. Opposite signs certify a fixed point strictly between them; a
    degenerate bracket (lo == hi, signs 0) records an exact rational fixed
    point."""

    __slots__ = ("lo", "hi", "sign_lo", "sign_hi")

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def deck(self, k: int) -> "CoverBracket":
        return CoverBracket(self.lo.deck(k), self.hi.deck(k), self.sign_lo, self.sign_hi)

    def __repr__(self):
        return f"CoverBracket({self.lo!r}, {self.hi!r}, {self.sign_lo}, {self.sign_hi})"


class FixedPointCertificate(Record):
    """Certificate attached to a fixed-point lift: one bracket per isolated
    fixed point, displacement signs evaluated exactly under that lift."""

    __slots__ = ("matrix", "brackets")


def _displacement_sign(f: LiftedMap, x: CoverPoint) -> int:
    return cover_cmp(f.apply(x), x)


def fixed_point_lift(m: MoebiusMap, max_width=Fraction(1, 4)):
    """The unique deck representative of m with fixed points on the cover.

    Returns (lift, certificate). For a hyperbolic m the certificate brackets
    each carry a strict displacement sign change; for a parabolic m the
    (rational) double fixed point is certified exactly with a degenerate
    bracket; a scalar m yields the identity lift. Maps whose only fixed point
    is the point at infinity have no root in the affine fixed quadratic and
    raise NoRealFixedPoint, as do elliptic maps.
    """
    coeffs = fixed_quadratic(m)
    if coeffs == (0, 0, 0):
        lift = identity_lift()
        bracket = CoverBracket(COVER_BASEPOINT, COVER_BASEPOINT, 0, 0)
        return lift, FixedPointCertificate(m, (bracket,))
    roots = bracket_roots(coeffs, max_width=max_width)
    if not roots:
        raise NoRealFixedPoint(f"no real fixed point to bracket for {m!r}")

    if roots[0][0] == roots[0][1]:
        # parabolic: rational double root, displacement vanishes only there
        fixed = line_point(roots[0][0])
        ref = lift_through(m)
        image = ref.apply(fixed)
        if image.base != fixed.base:
            raise AssertionError("double root is not fixed by the map")
        lift = ref.deck(fixed.sheet - image.sheet)
        bracket = CoverBracket(fixed, fixed, 0, 0)
        return lift, FixedPointCertificate(m, (bracket,))

    endpoints = [(line_point(lo), line_point(hi)) for lo, hi in roots]
    ref = lift_through(m)
    candidates = set()
    for x in endpoints[0]:
        center = x.sheet - ref.apply(x).sheet
        candidates.update((center - 1, center, center + 1))
    found = []
    for j in sorted(candidates):
        lift = ref.deck(j)
        s_lo = _displacement_sign(lift, endpoints[0][0])
        s_hi = _displacement_sign(lift, endpoints[0][1])
        if s_lo * s_hi == -1:
            found.append((lift, s_lo, s_hi))
    if len(found) != 1:
        raise AssertionError(f"expected one sign-changing deck power, got {len(found)}")
    lift, s_lo, s_hi = found[0]
    brackets = [CoverBracket(endpoints[0][0], endpoints[0][1], s_lo, s_hi)]
    for x_lo, x_hi in endpoints[1:]:
        t_lo = _displacement_sign(lift, x_lo)
        t_hi = _displacement_sign(lift, x_hi)
        if t_lo * t_hi != -1:
            raise AssertionError("secondary bracket lost its sign change")
        brackets.append(CoverBracket(x_lo, x_hi, t_lo, t_hi))
    return lift, FixedPointCertificate(m, tuple(brackets))


def displacement_growth_check(f: LiftedMap, x: CoverPoint, n: int) -> bool:
    """Exact check that the n-th iterate of f pushes x above x + (n - 1)
    deck units."""
    if n < 1:
        raise ValueError("n must be positive")
    cur = x
    for _ in range(n):
        cur = f.apply(cur)
    return cover_cmp(cur, x.deck(n - 1)) == GREATER


def compactify(x: CoverPoint) -> Fraction:
    """Strictly increasing embedding of the cover into (0, 1).

    The cover first maps to the real line by sheet + n/d, where n/d is the
    traversal coordinate of the base [p : q], a strictly increasing [0, 1)
    parametrization of the cut circle: t/(2(1 + t)) for t >= 0 (1/2 at
    infinity) and 1/2 + 1/(2(1 - t)) for t < 0. The line point lam/d is then
    squashed into the open unit interval by (lam/(d + |lam|) + 1)/2;
    endpoints 0 and 1 compactify the two ends.
    """
    p, q = x.base.num, x.base.den
    n, d = (p, 2 * (p + q)) if p >= 0 else (2 * q - p, 2 * (q - p))
    lam = x.sheet * d + n
    return Fraction(lam + d + abs(lam), 2 * (d + abs(lam)))


def uncompactify(y) -> CoverPoint:
    """Exact inverse of compactify on (0, 1)."""
    y = Fraction(y)
    a, b = y.numerator, y.denominator
    if not (0 < a < b):
        raise OutOfDomain("uncompactify needs a point strictly inside (0, 1)")
    # the line point m/d, its sheet, and w = r/d in [0, 1)
    m = 2 * a - b
    d = b - abs(m)
    sheet, r = divmod(m, d)
    if 2 * r <= d:
        base = ProjPoint(2 * r, d - 2 * r)  # [d : 0] is infinity
    else:
        base = ProjPoint(2 * (r - d), 2 * r - d)
    return CoverPoint(base, sheet)
