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

The cover embeds increasingly into (0, 1) (compactify, uncompactify), where
CompactifiedLift views a lift; no other module reads a point back out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

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
    traversal_cmp_pair,
)
from .record import Record

# hyperbolic generators of the lifted two-generator (punctured-torus) action
TORUS_A = MoebiusMap(1, 1, 1, 2)
TORUS_B = MoebiusMap(1, -1, -1, 2)
# Widest bracket fixed_point_lift certifies around a hyperbolic fixed point.
LIFT_BRACKET_WIDTH = Fraction(1, 4)
# The one message for a point that uncompactify cannot read.
_OUTSIDE_OPEN_INTERVAL = "uncompactify needs a point strictly inside (0, 1)"


@total_ordering
class CoverPoint(Record):
    """A point of the cover: a circle point together with its sheet index.

    The cover order is lexicographic in (sheet, traversal position).
    """

    __slots__ = ("base", "sheet")

    def __init__(self, base: ProjPoint, sheet: int):
        if not isinstance(sheet, int):
            raise TypeError("sheet must be an int")
        Record.__init__(self, base, sheet)

    def deck(self, k: int) -> "CoverPoint":
        return CoverPoint(self.base, self.sheet + k)

    def __lt__(self, other):
        return cover_cmp(self, other) == LESS


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

    def apply_triple(self, p: int, q: int, sheet: int):
        """The image of the cover point over [p : q] on the given sheet, as
        a triple (r, s, sheet) whose pair is sign-normalized, not reduced."""
        r, s = self.moebius.apply_pair(p, q)
        v0 = self.basepoint_image
        sheet += v0.sheet
        if traversal_cmp_pair(r, s, v0.base.num, v0.base.den) == LESS:
            sheet += 1
        return r, s, sheet

    def apply(self, x: CoverPoint) -> CoverPoint:
        if not isinstance(x, CoverPoint):
            raise OutOfDomain("lifted maps act on cover points")
        r, s, sheet = self.apply_triple(x.base.num, x.base.den, x.sheet)
        return CoverPoint(ProjPoint(r, s), sheet)

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


def lift_through(m: MoebiusMap) -> LiftedMap:
    """The lift sending the basepoint into sheet 0 (a reference lift; all
    lifts of m are its deck translates)."""
    return LiftedMap(m, CoverPoint(m.apply(BASEPOINT), 0))


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


def _displacement_sign(f: LiftedMap, x: CoverPoint) -> int:
    return cover_cmp(f.apply(x), x)


def fixed_point_lift(m: MoebiusMap):
    """The unique deck representative of m with fixed points on the cover.

    Returns (lift, brackets): one bracket per isolated fixed point, its
    displacement signs evaluated exactly under the lift. For a hyperbolic m
    each bracket carries a strict displacement sign change; for a parabolic
    m the (rational) double fixed point is certified exactly with a
    degenerate bracket; a scalar m yields the identity lift. Maps whose only
    fixed point is the point at infinity have no root in the affine fixed
    quadratic and raise NoRealFixedPoint, as do elliptic maps.
    """
    coeffs = fixed_quadratic(m)
    if coeffs == (0, 0, 0):
        lift = LiftedMap(MoebiusMap(1, 0, 0, 1), COVER_BASEPOINT)
        bracket = CoverBracket(COVER_BASEPOINT, COVER_BASEPOINT, 0, 0)
        return lift, (bracket,)
    roots = bracket_roots(coeffs, max_width=LIFT_BRACKET_WIDTH)
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
        return lift, (bracket,)

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
    return lift, tuple(brackets)


def compactify_triple(p: int, q: int, sheet: int):
    """Strictly increasing embedding of the cover into (0, 1): the image of
    the point over [p : q] on the given sheet, as an integer pair (num, den)
    with den > 0.

    The cover first maps to the real line by sheet + n/d, where n/d is the
    traversal coordinate of the base [p : q], a strictly increasing [0, 1)
    parametrization of the cut circle: t/(2(1 + t)) for t >= 0 (1/2 at
    infinity) and 1/2 + 1/(2(1 - t)) for t < 0. The line point lam/d is then
    squashed into the open unit interval by (lam/(d + |lam|) + 1)/2;
    endpoints 0 and 1 compactify the two ends. The pair [p : q] must be
    sign-normalized (q >= 0, and p > 0 when q == 0) but need not be
    reduced: scaling it by k > 0 scales n, d, lam and the result by k.
    """
    n, d = (p, 2 * (p + q)) if p >= 0 else (2 * q - p, 2 * (q - p))
    lam = sheet * d + n
    return lam + d + abs(lam), 2 * (d + abs(lam))


def compactify(x: CoverPoint) -> Fraction:
    return Fraction(*compactify_triple(x.base.num, x.base.den, x.sheet))


def uncompactify_triple(a: int, b: int):
    """Exact inverse of compactify on (0, 1), at the point a/b with b > 0,
    as a triple (p, q, sheet) whose pair [p : q] is sign-normalized.

    The pair a/b need not be reduced: m, d and r below all scale with it,
    the sheet and the test 2r <= d do not, and [p : q] scales with it.
    """
    if not (0 < a < b):
        raise OutOfDomain(_OUTSIDE_OPEN_INTERVAL)
    # the line point m/d, its sheet, and w = r/d in [0, 1)
    m = 2 * a - b
    d = b - abs(m)
    sheet, r = divmod(m, d)
    if 2 * r <= d:
        return 2 * r, d - 2 * r, sheet  # [d : 0] is infinity
    return 2 * (r - d), 2 * r - d, sheet


def uncompactify(y) -> CoverPoint:
    p, q, sheet = uncompactify_triple(*Fraction(y).as_integer_ratio())
    return CoverPoint(ProjPoint(p, q), sheet)


class CompactifiedLift(Record):
    """A lift of the covered line viewed inside (0,1), endpoints fixed.

    `apply_pair` maps n/m, m > 0, to an unreduced pair (num, den), den > 0,
    in one frame of plain integer steps, so no ProjPoint or CoverPoint is
    built.  It returns what the chain uncompactify_triple,
    LiftedMap.apply_triple and compactify_triple returns, tuple for tuple,
    and raises the same OutOfDomain.  `apply` composes the object forms of
    the same steps, which the benchmark traces as layers.

    Lemma: between two consecutive breakpoints, apply_pair(n, m) is
    (A n + B m, C n + D m) for fixed integers A, B, C, D.  A breakpoint is
    a point whose cover point lies, on any sheet, over one of four circle
    points: 0, infinity, M^-1(0) or M^-1(infinity), with M the lift's
    Moebius map; its line point is k + tau, k an integer and tau that
    circle point's traversal coordinate, one of `offsets`.  Every branch
    of apply_pair flips only at a breakpoint:
    - the sign of t and the divmod sheet of uncompactify flip where the
      line point is an integer, over 0;
    - the half 2r <= d flips over infinity;
    - the sign normalization of the image [x : y] flips where y = 0, over
      M^-1(infinity), and its half hx where x or y is 0, over M^-1(0) or
      M^-1(infinity);
    - the image comes before the basepoint image M(0) in the traversal
      order until it passes M(0), over 0, an input sheet cut, or crosses
      the cut at 0, over M^-1(0);
    - compactify's x >= 0 flips over M^-1(0) or M^-1(infinity), and |lam|
      where the output line point is 0, whose base is 0, over M^-1(0).
    So between two breakpoints every branch and the output sheet are
    fixed, each step is an integer linear map of the one before, and so is
    their composite; a scaling of (n, m) scales the pair, as each step
    keeps it unreduced.  At a breakpoint itself the pair may follow either
    neighbour's formula, or neither, at a different scale.
    """

    __slots__ = ("lift", "offsets")

    def __init__(self, lift):
        # the traversal coordinates of 0, infinity, M^-1(0) = [-b : a] and
        # M^-1(infinity) = [d : -c], reduced, without repeats, in order
        mo = lift.moebius
        offsets = set()
        for p, q in ((0, 1), (1, 0), (-mo.b, mo.a), (mo.d, -mo.c)):
            if q < 0 or (q == 0 and p < 0):
                p, q = -p, -q
            n, d = (p, 2 * (p + q)) if p >= 0 else (2 * q - p, 2 * (q - p))
            k = gcd(n, d)
            offsets.add((n // k, d // k))
        over = lcm(*(d for _, d in offsets))
        Record.__init__(self, lift, tuple(sorted(
            offsets, key=lambda tau: tau[0] * (over // tau[1]))))

    def apply_pair(self, n, m):
        if n == 0 or n == m:
            return n, m
        if not 0 < n < m:
            raise OutOfDomain(_OUTSIDE_OPEN_INTERVAL)
        # uncompactify: the line point t/d, its sheet, and r/d in [0, 1),
        # read back as the sign-normalized base [p : q]
        t = 2 * n - m
        d = m - abs(t)
        sheet, r = divmod(t, d)
        if 2 * r <= d:
            p, q = 2 * r, d - 2 * r
        else:
            p, q = 2 * (r - d), 2 * r - d
        # the Moebius image [x : y], sign-normalized
        lift = self.lift
        mo = lift.moebius
        x, y = mo.a * p + mo.b * q, mo.c * p + mo.d * q
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        # the sheet steps up when the image comes before the basepoint
        # image in the traversal order: a lower half (0 finite t >= 0, 1
        # infinity, 2 finite t < 0), or the same half and a negative cross
        # product
        v0 = lift.basepoint_image
        vn, vd = v0.base.num, v0.base.den
        sheet += v0.sheet
        hx = 1 if y == 0 else (0 if x >= 0 else 2)
        hv = 1 if vd == 0 else (0 if vn >= 0 else 2)
        if hx < hv or (hx == hv and x * vd < vn * y):
            sheet += 1
        # compactify: the traversal coordinate c/e of [x : y], the line
        # point lam/e, squashed into (0, 1)
        c, e = (x, 2 * (x + y)) if x >= 0 else (2 * y - x, 2 * (y - x))
        lam = sheet * e + c
        e += abs(lam)
        return lam + e, 2 * e

    def pieces_along(self, n0, h, den, last):
        """apply_pair along the grid x_j = (n0 + j h)/den, j = 0..last, as
        an iterator of pieces (j0, j1, form, matrix) in grid order, which
        read apply_pair only when they are reached; None when the grid
        has no step, leaves [0, 1], or meets more candidate breakpoints
        (sheets times offsets) than it has points, as a fine grid near 0
        or 1 does: its points are then best read one by one.

        A grid point on a breakpoint, and an end at 0 or at 1, is a piece
        of its own.  The other points fall into runs between breakpoints,
        where the lemma above holds: a run j0..j1 reads apply_pair at its
        two ends and takes the slopes of the linear forms by exact integer
        division.  `form` has the shape of MoebiusGermMap.pieces_along's,
        in the index i = j - j0: ((Q0, Q1, Q2), (L0, L1)) with
        apply_pair(n, den) = (y, L(i)) and y den - n L(i) = Q(i) at
        n = n0 + (j0 + i) h, for i = 0..j1 - j0.  `matrix` is (A, B, C, D)
        with apply_pair(n, m) = (A n + B m, C n + D m) at every n/m of the
        cell between two points of a run, or None for a one-point piece."""
        top = n0 + last * h
        if h <= 0 or n0 < 0 or top > den:
            return None
        # the inner points lo..hi lie in (0, 1); the ends 0 and 1 do not
        lo = 1 if n0 == 0 else 0
        hi = last - 1 if top == den else last
        cuts = []  # (j, exact): a breakpoint at j, or inside the cell j, j + 1
        if lo <= hi:
            k0 = uncompactify_triple(n0 + lo * h, den)[2]
            k1 = uncompactify_triple(n0 + hi * h, den)[2]
            if (k1 - k0 + 1) * len(self.offsets) > last + 1:
                return None
            for k in range(k0, k1 + 1):
                for tn, td in self.offsets:
                    # the line point lam/td compactified to (lam + e)/(2 e),
                    # at the grid position j + r/(2 e h)
                    lam = k * td + tn
                    e = td + abs(lam)
                    j, r = divmod((lam + e) * den - 2 * e * n0, 2 * e * h)
                    if lo <= j and (j < hi or j == hi and not r):
                        cuts.append((j, not r))

        def piece(a, b):
            na = n0 + a * h
            ya, qa = self.apply_pair(na, den)
            y1 = q1 = 0
            matrix = None
            if b > a:
                yb, qb = self.apply_pair(n0 + b * h, den)
                y1, q1 = (yb - ya) // (b - a), (qb - qa) // (b - a)
                ma, mc = y1 // h, q1 // h
                matrix = (ma, (ya - ma * na) // den, mc, (qa - mc * na) // den)
            form = ((ya * den - na * qa, y1 * den - na * q1 - h * qa, -h * q1),
                    (qa, q1))
            return a, b, form, matrix

        def pieces():
            if lo:
                yield piece(0, 0)
            start = lo
            for j, exact in cuts:
                if start <= j - exact:
                    yield piece(start, j - exact)
                if exact:
                    yield piece(j, j)
                start = j + 1
            if start <= hi:
                yield piece(start, hi)
            if hi < last:
                yield piece(last, last)

        return pieces()

    def apply(self, x):
        x = Fraction(x)
        if x == 0 or x == 1:
            return x
        return compactify(self.lift.apply(uncompactify(x)))

    def inverse(self):
        return CompactifiedLift(self.lift.inverse())
