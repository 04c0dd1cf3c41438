"""Affine blow-ups of an interval action along a marked point sequence.

Each window is the hull of a point with its generator images, enlarged about
the point and clamped to the unit interval.  Rescaling the window so the
largest generator displacement becomes 1 gives a normalized local picture;
translation deviation and fixed-point persistence are exact statistics of
that picture.  Germs with a C1-like limit flatten to translations, while the
obstructed actions keep a generator fixed point inside every window.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import (
    BadInterval,
    Degenerate,
    EmptyDisplacement,
    EmptyGridDomain,
    OutOfDomain,
    Unsupported,
)
from .groupact import UNIT_INTERVAL, MarkedAction, pair_form
from .projline import canonical_entries
from .record import Record

ZERO = Fraction(0)
# Halvings of a grid cell across which a displacement changes sign.
BISECTION_STEPS = 12
# Factor by which a window's generator hull is enlarged about its point.
WINDOW_ENLARGEMENT = 3


class MoebiusGermMap(Record):
    """Increasing fractional-linear germ x -> (a x + b)/(c x + d), defined
    away from its pole.

    The entries are stored as the canonical integer representative of their
    projective class, so field equality is equality of germs.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = (Fraction(v) for v in (a, b, c, d))
        if a * d - b * c <= 0:
            raise BadInterval("germ must be orientation preserving")
        Record.__init__(self, *canonical_entries((a, b, c, d)))

    def apply_pair(self, n, m):
        """g(n/m), m > 0, as the unreduced integer pair (num, den), den > 0."""
        num, den = self.a * n + self.b * m, self.c * n + self.d * m
        if den == 0:
            raise OutOfDomain("germ has a pole at %s" % (Fraction(n, m),))
        return (num, den) if den > 0 else (-num, -den)

    def apply(self, x):
        return Fraction(*self.apply_pair(*x.as_integer_ratio()))

    def pieces_along(self, n0, h, den, last):
        """The grid x_j = (n0 + j h)/den, j = 0..last, den > 0, as one piece
        (0, last, form, matrix) in the shape of CompactifiedLift's: integer
        coefficients ((Q0, Q1, Q2), (L0, L1)) with apply_pair(n0 + j h, den)
        = (y, q) for q = L(j) = L0 + L1 j and y den - (n0 + j h) q = Q(j) =
        Q0 + Q1 j + Q2 j^2, so that g(x_j) - x_j = Q(j)/(L(j) den), and the
        germ's entries (A, B, C, D).  Both are sign-normalized at j = 0, so
        L(0) > 0; on a grid whose span holds no pole L keeps that sign, Q
        has the sign of the displacement, and (A n + B m, C n + D m) is
        apply_pair(n, m) at every n/m of the span."""
        a, b, c, d = self.a, self.b, self.c, self.d
        q0 = c * n0 + d * den
        if q0 == 0:
            self.apply_pair(n0, den)  # the pole: raises its OutOfDomain
        if q0 < 0:
            a, b, c, d, q0 = -a, -b, -c, -d, -q0
        y0, y1, q1 = a * n0 + b * den, a * h, c * h
        return ((0, last, ((y0 * den - n0 * q0, y1 * den - n0 * q1 - h * q0,
                            -h * q1), (q0, q1)), (a, b, c, d)),)

    def undefined_pairs(self):
        """The points where the germ is undefined, as integer pairs (n, m),
        m > 0: its pole -d/c, or none when c = 0."""
        if self.c == 0:
            return ()
        return ((-self.d, self.c),) if self.c > 0 else ((self.d, -self.c),)

    def inverse(self) -> "MoebiusGermMap":
        return MoebiusGermMap(self.d, -self.b, -self.c, self.a)


def parabolic_germ() -> MoebiusGermMap:
    """x -> x/(1+x): parabolic at 0, pushes everything toward the origin."""
    return MoebiusGermMap(1, 0, 1, 1)


def germ_action() -> MarkedAction:
    return MarkedAction(("a",), (parabolic_germ(),), UNIT_INTERVAL)


class Window(Record):
    """One blow-up site: base point, generator hull, enlarged domain, as
    integer numerators over the least common denominator m of the values.
    Its frame (m, pn, e0, e1, un) holds the point, the enlarged ends and the
    unit, and `hull` the hull's two ends over the same m; the checks and
    everything downstream read the frame.

    The values are integer numerators over the denominator `over`, as
    build_windows has them: the window divides them by their common factor
    and builds no Fraction."""

    __slots__ = ("index", "hull", "frame")

    def __init__(self, index, point, hull, enlarged, unit, over):
        nums = (point, hull[0], hull[1], enlarged[0], enlarged[1], unit)
        k = gcd(over, *nums)
        pn, h0, h1, e0, e1, un = [n // k for n in nums]
        if not h0 <= pn <= h1:
            raise BadInterval("base point outside its hull")
        if not (e0 <= h0 and h1 <= e1):
            raise BadInterval("hull outside the enlarged window")
        if h1 <= h0 or un <= 0:
            raise BadInterval("window must have positive size")
        Record.__init__(self, int(index), (h0, h1),
                        (over // k, pn, e0, e1, un))


def build_windows(act: MarkedAction, p_seq):
    """Hull each point p with its generator images g(p), then enlarge about
    the point by WINDOW_ENLARGEMENT, clamped to the unit interval.  The
    images come from the pair forms, and p and every image are put over one
    common denominator, so the unit, the hull and the enlargement are taken
    on integer numerators, which each Window receives as they are and puts
    on its own frame."""
    if act.domain != UNIT_INTERVAL:
        raise Unsupported("windows need an interval action")
    windows = []
    for index, p in enumerate(p_seq):
        p = act.check_point(p)
        n, d = p.as_integer_ratio()
        images = [pair_form(g)(n, d) for g in act.maps]
        m = lcm(d, *(q for _, q in images))
        pn = n * (m // d)
        shifts = [y * (m // q) - pn for y, q in images]
        unit = max(map(abs, shifts))
        if unit == 0:
            raise EmptyDisplacement(
                "every generator fixes the marked point %s" % (p,))
        lo, hi = min(0, *shifts), max(0, *shifts)
        enlarged = (max(0, pn + WINDOW_ENLARGEMENT * lo),
                    min(m, pn + WINDOW_ENLARGEMENT * hi))
        windows.append(Window(index, pn, (pn + lo, pn + hi), enlarged, unit,
                              over=m))
    return tuple(windows)


class RescaledSystem(Record):
    """A window blown up to unit scale: the base point moves to the origin and
    each generator becomes the partial map x -> (g(p + u x) - p)/u of the
    rescaled enlarged window, with p the base point and u the unit.  Building
    one checks that the largest generator displacement of the origin is
    exactly 1; the statistics below sample the window in `grid` cells.

    The statistics never build the rescaled map: g_hat(x) - x is
    (g(X) - X)/u at the window point X = p + u x, so they run each generator
    at the window points themselves and rescale only the results.  They
    and `apply` read the window's frame: the window points are integer
    numerators over one denominator, and a generator with a pair form maps
    them to integer pairs, so no Fraction is added, multiplied or divided.
    Both read each generator as pieces of its grid (_closed_form): a few
    grid points per piece that its quadratic picks, where the generator
    has a closed form (MoebiusGermMap in one piece, CompactifiedLift in a
    few), and each grid point as a piece of its own where it has none.

    `displacements_at_0` keeps, per generator name, the displacement of the
    origin that the unit check computed, so a caller that reports it does
    not evaluate the generator at the base point again.
    """

    __slots__ = ("window", "act", "grid", "displacements_at_0")

    def __init__(self, window, act, grid):
        if grid < 2:
            raise ValueError("grid resolution must be at least 2")
        at_0 = {}
        Record.__init__(self, window, act, int(grid), at_0)
        at_0.update((name, self.apply(name, ZERO)) for name in self.names)
        if max(abs(v) for v in at_0.values()) != 1:
            raise AssertionError("the largest rescaled displacement is not 1")

    @property
    def names(self):
        return self.act.names

    def apply(self, name, x):
        # x = xn/xd is the window point X = (pn xd + un xn)/(m xd), and
        # g(X) = y/q rescales to (y m - pn q)/(q un)
        m, pn, e0, e1, un = self.window.frame
        xn, xd = Fraction(x).as_integer_ratio()
        if not (e0 - pn) * xd <= un * xn <= (e1 - pn) * xd:
            raise OutOfDomain("%s is outside the rescaled window" % (x,))
        g = self.act.maps[self.names.index(name)]
        y, q = g.apply(Fraction(pn * xd + un * xn, m * xd)).as_integer_ratio()
        return Fraction(y * m - pn * q, q * un)


def _grid_over(a, b, m, grid):
    """The points (a + (b - a) k/grid)/m, k = 0..grid, a <= b, as integer
    numerators over one denominator, (numerators, denominator).  Dividing
    a, b and m by their gcd leaves m the least common denominator of the
    ends."""
    k = gcd(a, b, m)
    a, b, m = a // k, b // k, m // k
    if a == b:
        return [a * grid] * (grid + 1), m * grid
    return list(range(a * grid, b * grid + 1, b - a)), m * grid


def _check_defined(g, a, b, den):
    """Raise g's own OutOfDomain when g is undefined at a point of
    [a/den, b/den].  A map undefined somewhere names those points through
    `undefined_pairs`, as integer pairs (n, m) with m > 0, and evaluating
    it at one raises; a map without the method is defined everywhere."""
    undefined = getattr(g, "undefined_pairs", None)
    if undefined is not None:
        for n, m in undefined():
            if a * m <= n * den <= b * m:
                pair_form(g)(n, m)


def _closed_form(g, nums, den):
    """g's displacement along the arithmetic grid nums/den, piece by piece:
    pieces (j0, j1, form, matrix) in grid order, each form
    ((Q0, Q1, Q2), (L0, L1)) in the index i = j - j0, with g(x) - x =
    Q(i)/(L(i) den) at the piece's points, and matrix g's integer matrix
    on the cells inside the piece, None only for a one-point piece.  A map's
    `pieces_along` gives them (MoebiusGermMap one piece, CompactifiedLift
    a few); a map without it, or whose pieces_along gives None, is one
    piece per grid point, read through its pair form when reached:
    ((y den - n q, 0, 0), (q, 0)) at g(n/den) = y/q.  The grid must hold
    no pole: _check_defined has run."""
    along = getattr(g, "pieces_along", None)
    if along is not None:
        pieces = along(nums[0], nums[1] - nums[0], den, len(nums) - 1)
        if pieces is not None:
            return pieces
    pair = pair_form(g)

    def points():
        for j, n in enumerate(nums):
            y, q = pair(n, den)
            yield j, j, ((y * den - n * q, 0, 0), (q, 0)), None
    return points()


def _extremum_candidates(form, last):
    """The grid indices, in 0..last, at which the largest |g(x) - x - s|
    over the grid lies, whatever the constant s, for a displacement
    Q(j)/(L(j) den) with L positive on [0, last].

    Lemma: dividing, Q/L = (alpha j + beta) + r/L, and r/L is convex on
    [0, last] when r >= 0 and concave when r <= 0, so Q/L - s is convex,
    concave or affine there.  Its largest value over the grid, when convex
    (its least, when concave), is at an end; its least (largest) is at an
    end or at the floor or ceiling of the one root in [0, last] of its
    derivative, whose numerator is R(j) = Q'(j) L(j) - Q(j) L1 =
    Q2 L1 j^2 + 2 Q2 L0 j + (Q1 L0 - Q0 L1).  On a grid of step h,
    Q2 = -h L1, so R is a quadratic unless L1 = 0, when Q/L is affine and
    the ends suffice.  math.isqrt gives each root of R to within
    1/(2 |Q2 L1|) <= 1/2, so the four integers from its floor minus 1 hold
    both the root's floor and its ceiling."""
    (q0, q1, q2), (l0, l1) = form
    a, b, c = q2 * l1, 2 * q2 * l0, q1 * l0 - q0 * l1
    out = {0, last}
    if a:
        disc = b * b - 4 * a * c
        if disc >= 0:
            root = isqrt(disc)
            for t in (-b - root, -b + root):
                k = t // (2 * a)
                out.update(range(k - 1, k + 3))
    return sorted(j for j in out if 0 <= j <= last)


def generator_deviation(rs: RescaledSystem, name, radius):
    """Largest |g_hat(x) - x - g_hat(0)| over the system's grid of the
    rescaled window within the radius; a lower bound for the sup, exact at
    every sampled point.

    Each piece of g along the grid (_closed_form) is read at the grid
    points _extremum_candidates names, at most ten, from the piece's form;
    a one-point piece at its point.  All compare the same cross-multiplied
    integers."""
    g = rs.act.maps[rs.names.index(name)]
    m, pn, e0, e1, un = rs.window.frame
    pair = pair_form(g)
    # the shift g(p) - p as the pair sn/sd, in lowest terms so that the
    # products in the loop below stay small
    y, q = pair(pn, m)
    sn, sd = y * m - pn * q, q * m
    k = gcd(sn, sd)
    sn, sd = sn // k, sd // k
    radius = Fraction(radius)
    # the window p -+ u radius, clamped to the enlarged window, on integer
    # numerators over the denominator m rd
    rn, rd = radius.as_integer_ratio()
    lo = max(e0 * rd, pn * rd - un * rn)
    hi = min(e1 * rd, pn * rd + un * rn)
    if lo > hi:
        raise EmptyGridDomain(
            "window does not meet the requested radius %s" % (radius,))
    # at x = n/den, g(x) = y/q, so g(x) - x = (y den - n q)/(q den) and
    # |g(x) - x - sn/sd| = |(y den - n q) sd - sn q den|/(q den sd): with
    # den and sd fixed, the largest |(y den - n q) sd - sn q den|/q wins,
    # found by cross-multiplying
    nums, den = _grid_over(lo, hi, m * rd, rs.grid)
    _check_defined(g, nums[0], nums[-1], den)
    snd = sn * den
    best, best_q = 0, 1
    for v, q in _candidate_displacements(_closed_form(g, nums, den)):
        dev = abs(v * sd - snd * q)
        if dev * best_q > best * q:
            best, best_q = dev, q
    # divided by the unit un/m
    return Fraction(best * m, best_q * den * sd * un)


def _candidate_displacements(pieces):
    """(y den - n q, q) for g(n/den) = y/q, q > 0, at each grid point where
    the largest deviation may lie: the _extremum_candidates of each piece,
    as (Q(i), L(i)) from its form, which are those very integers.  A
    one-point piece is its own only candidate."""
    for j0, j1, form, _ in pieces:
        (q0, q1, q2), (l0, l1) = form
        if j1 == j0:
            yield q0, l0
            continue
        for i in _extremum_candidates(form, j1 - j0):
            yield q0 + (q1 + q2 * i) * i, l0 + l1 * i


def _bisect_displacement(pair, a, sa, b, den):
    """Halve the grid cell [a/den, b/den], across which g(x) - x changes
    sign from sa at a/den, BISECTION_STEPS times, with g's pair form: each
    step doubles den, so the midpoint is the integer numerator of the two
    old ends' sum, and y den - mid q at g(mid/den) = y/q, q > 0, has the
    sign of g(x) - x there.  Returns the bracket as two numerators over the
    final denominator, ((a, b), den), degenerate at an exact zero."""
    for _ in range(BISECTION_STEPS):
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        y, q = pair(mid, den)
        v = y * den - mid * q
        if v == 0:
            return (mid, mid), den
        if (v > 0) == (sa > 0):
            a = mid
        else:
            b = mid
    return (a, b), den


def _piece_stop(pair, pieces):
    """Where the bracket of the grid lies, from the pieces of _closed_form,
    read lazily: None when every grid point is fixed, else (sa, k, v, cell)
    with sa the numerator Q(0) at the left end.  k is the least index at
    which the numerator v is zero or has the sign opposite to sa, 0 when sa
    is 0, or None when every point keeps the sign of sa; cell bisects the
    cell before k.  Each piece's first point is checked against sa, then
    _quadratic_stop runs on the form of a piece of two or more points.  A
    cell inside one piece is bisected through the piece's matrix, which
    gives the integers the pair form gives there; a cell between two
    pieces through the pair form.  With sa = 0, a piece of three or more
    points fixes them all only when its Q is identically 0, as a quadratic
    with three zeros is; a shorter one is read point by point."""
    pieces = iter(pieces)
    first = next(pieces)
    sa = first[2][0][0]
    if sa == 0:
        for j0, j1, (q, _), _ in chain((first,), pieces):
            last = j1 - j0
            if any(q) if last >= 2 else \
                    any(q[0] + (q[1] + q[2] * i) * i for i in range(last + 1)):
                return 0, 0, 0, pair
        return None
    for j0, j1, (q, _), matrix in chain((first,), pieces):
        v = q[0]
        if j0 and (v == 0 or (v > 0) != (sa > 0)):
            return sa, j0, v, pair
        stop = _quadratic_stop(q, j1 - j0) if j1 > j0 else None
        if stop is not None:
            i, v = stop
            a, b, c, d = matrix

            def cell(n, m):
                return a * n + b * m, c * n + d * m
            return sa, j0 + i, v, cell
    return sa, None, None, pair


def _quadratic_stop(coefficients, last):
    """The least k in 1..last with s Q(k) <= 0 for Q(k) = Q0 + Q1 k +
    Q2 k^2 and s the sign of Q0 != 0, with Q(k); None when there is none.

    Lemma: P = s Q has P(0) > 0.  A concave or linear P is positive up to
    its one root right of 0 and not after it, so on 1..last P(k) <= 0 is
    false and then true, and a binary search finds its first k.  A convex
    P falls up to its vertex and rises after it: the search runs up to the
    floor of the vertex, and past it only the next k can hold."""
    q0, q1, q2 = coefficients
    s = 1 if q0 > 0 else -1
    p0, p1, p2 = s * q0, s * q1, s * q2

    def value(k):
        return p0 + (p1 + p2 * k) * k

    hi = last
    if p2 > 0:
        hi = min(max(-p1 // (2 * p2), 1), last)
        if value(hi) > 0:
            hi += 1
            return (hi, s * value(hi)) if hi <= last and value(hi) <= 0 \
                else None
    elif value(hi) > 0:
        return None
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if value(mid) <= 0:
            hi = mid
        else:
            lo = mid + 1
    return lo, s * value(lo)


def fixed_point_in_window(rs: RescaledSystem):
    """Per generator: an exact bracket in the rescaled window across which the
    displacement g_hat(x) - x changes sign (degenerate at an exact zero), or
    None when the displacement keeps one sign at grid granularity.

    The bracket is at the first grid point, from the left, that is a zero
    or where the sign differs from the left end's; at a sign change it is
    bisected from the cell before.  The pieces of each generator along
    the grid (_closed_form) find that point piece by piece, by
    _quadratic_stop's binary search on each piece's quadratic, a
    one-point piece by its own sign (_piece_stop).  Only a zero at the
    left end reads on, since a generator that fixes every grid point is
    Degenerate.  A generator undefined at some point of the window raises
    its own OutOfDomain first, wherever that point lies."""
    m, pn, e0, e1, un = rs.window.frame
    nums, den = _grid_over(e0, e1, m, rs.grid)
    first = nums[0]
    out = {}
    for name, g in zip(rs.names, rs.act.maps):
        _check_defined(g, first, nums[-1], den)
        stop = _piece_stop(pair_form(g), _closed_form(g, nums, den))
        if stop is None:
            raise Degenerate(
                "generator %s is the identity on the window" % name)
        sa, k, v, cell = stop
        bracket = None
        if k is not None:
            if v == 0:
                # a zero, at the left end or at the stop, is the bracket
                bracket = (nums[k], nums[k]), den
            else:
                bracket = _bisect_displacement(cell, nums[k - 1], sa,
                                               nums[k], den)
        if bracket is not None:
            # the window point n/d is (n m - pn d)/(d un) rescaled
            ends, d = bracket
            bracket = tuple(Fraction(n * m - pn * d, d * un) for n in ends)
        out[name] = bracket
    return out
