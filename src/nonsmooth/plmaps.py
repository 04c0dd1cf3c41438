"""Piecewise-linear homeomorphisms of [0,1] built over a fixed dyadic chart.

The chart sends the integer i to the anchor c_i = 2^i/(2^i + 1) and is linear
in between, so translation by an integer in chart coordinates becomes an exact
rational PL map of (0,1) whose breakpoints accumulate only at 0 and 1.
Each cell [c_i, c_(i+1)] carries its own shift (cell_shift); ZZAction is a
product of them, and zz_base_link reads the base cell shift at cell 0's
midpoint.  No other module finds a point's cell or builds a cell shift.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

from .errors import AccumulationPoint, BadInterval, OutOfDomain
from .record import Record

LEFT = "left"
RIGHT = "right"


def _check_side(side):
    if side not in (LEFT, RIGHT):
        raise ValueError("side must be LEFT or RIGHT, got %r" % (side,))


def anchor_pair(i):
    """c_i = 2^i/(2^i + 1) as the coprime pair (2^i, 2^i + 1); (1, 2^-i + 1)
    when i < 0."""
    if i >= 0:
        return 1 << i, (1 << i) + 1
    return 1, (1 << -i) + 1


def anchor(i):
    return Fraction(*anchor_pair(i))


def _width_pair(i):
    # c_(i+1) - c_i as a positive integer pair: 2^i/((2^(i+1)+1)(2^i+1))
    # for i >= 0 and, with j = -i, 2^(j-1)/((2^(j-1)+1)(2^j+1)) for i < 0;
    # either denominator is a multiple of anchor_pair(i)'s
    if i >= 0:
        p = 1 << i
        return p, ((p << 1) + 1) * (p + 1)
    p = 1 << (-i - 1)
    return p, (p + 1) * ((p << 1) + 1)


def _width_ratio(j, power):
    # the width of cell j + power over that of cell j, one Fraction
    a0, b0 = _width_pair(j)
    a1, b1 = _width_pair(j + power)
    return Fraction(a1 * b0, b1 * a0)


def midpoint_pair(i):
    """(c_i + c_(i+1))/2 as a coprime pair, in closed form: P(4P + 3) over
    2(P + 1)(2P + 1) with P = 2^i for i >= 0, and (3Q + 4) over
    2(Q + 1)(Q + 2) with Q = 2^-i for i < 0.  The odd part of each
    denominator is prime to its numerator (4P + 3 = 4(P + 1) - 1 =
    2(2P + 1) + 1, 3Q + 4 = 3(Q + 1) + 1 = 3(Q + 2) - 2), so the one common
    factor is a power of two, at most the one in the denominator."""
    if i >= 0:
        p = 1 << i
        num, den = p * (4 * p + 3), 2 * (p + 1) * (2 * p + 1)
    else:
        q = 1 << -i
        num, den = 3 * q + 4, 2 * (q + 1) * (q + 2)
    g = gcd(num, den & -den)
    return num // g, den // g


def _pow2_le(b, i, a):
    # 2^i * b <= a with integer a, b > 0 and i of either sign
    if i >= 0:
        return (b << i) <= a
    return b <= (a << (-i))


def chart_index_pair(n, m):
    """Index i with anchor(i) <= n/m < anchor(i+1), for integers 0 < n < m.

    With a = n and b = m - n, anchor(i) <= n/m iff 2^i b <= a, as
    2^i/(2^i + 1) <= n/m iff 2^i (m - n) <= n.  Scaling the pair scales a
    and b alike and leaves that test as it is, so the pair need not be
    reduced."""
    # With la the bit length of a and i = la - (bit length of b):
    # 2^(i+1) * b >= 2^la > a, so i + 1 never qualifies, and
    # 2^(i-1) * b < 2^(la-1) <= a, so i - 1 always does.
    a, b = n, m - n
    i = a.bit_length() - b.bit_length()
    return i if _pow2_le(b, i, a) else i - 1


def at_anchor(i, n, m):
    """Whether n/m, at any scaling of the pair, is anchor(i): 2^i (m - n) == n."""
    return ((m - n) << i == n) if i >= 0 else (m - n == n << -i)


def chart_index(x):
    """Index i with anchor(i) <= x < anchor(i+1), for x in (0,1)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise OutOfDomain("chart covers (0,1) only, got %s" % x)
    return chart_index_pair(x.numerator, x.denominator)


def from_chart(t):
    """Chart-to-interval map: t = i goes to anchor(i), linear in between."""
    p, q = Fraction(t).as_integer_ratio()
    i, r = divmod(p, q)
    (a, b), (w, d) = anchor_pair(i), _width_pair(i)
    # anchor(i) + (t - i) * cell width = a/b + r w/(q d), over q d
    return Fraction(a * q * (d // b) + r * w, q * d)


def to_chart(x):
    i = chart_index(x)
    n, m = Fraction(x).as_integer_ratio()
    (a, b), (w, d) = anchor_pair(i), _width_pair(i)
    # i + (x - anchor(i)) / cell width = i + (n b - a m) d/(m b w), over m w
    return Fraction(i * m * w + (n * b - a * m) * (d // b), m * w)


class PLMap(Record):
    """Increasing PL bijection of [0,1] given by finitely many breakpoints."""

    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints):
        pts = [(Fraction(x), Fraction(y)) for x, y in breakpoints]
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 1):
            raise BadInterval("breakpoints must run from (0,0) to (1,1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 >= x1 or y0 >= y1:
                raise BadInterval("breakpoints must increase strictly in both coordinates")
        # drop interior points where the slope does not change
        kept = [pts[0]]
        for j in range(1, len(pts) - 1):
            (x0, y0), (x1, y1), (x2, y2) = kept[-1], pts[j], pts[j + 1]
            if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
                kept.append(pts[j])
        kept.append(pts[-1])
        Record.__init__(self, tuple(kept))

    def _xs(self):
        return [p[0] for p in self.breakpoints]

    def apply(self, x):
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise OutOfDomain("point %s outside [0,1]" % x)
        pts = self.breakpoints
        j = min(bisect_right(self._xs(), x), len(pts) - 1) - 1
        (x0, y0), (x1, y1) = pts[j], pts[j + 1]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    def inverse(self):
        return PLMap([(y, x) for x, y in self.breakpoints])

    def one_sided_slope(self, x, side):
        _check_side(side)
        x = Fraction(x)
        if not 0 < x < 1:
            raise OutOfDomain("slope requested outside (0,1): %s" % x)
        xs = self._xs()
        j = (bisect_right(xs, x) if side == RIGHT else bisect_left(xs, x)) - 1
        (x0, y0), (x1, y1) = self.breakpoints[j], self.breakpoints[j + 1]
        return (y1 - y0) / (x1 - x0)


class ModelTranslation(Record):
    """Integer chart translation conjugated into a subinterval, identity outside.

    With support [l, r] and power k this is theta o psi o (+k) o psi^-1 o
    theta^-1 on (l, r), where psi is the dyadic chart and theta the affine map
    of (0,1) onto (l, r).  Breakpoints accumulate exactly at l and r.
    """

    __slots__ = ("lo", "hi", "power")

    def __init__(self, support, power):
        lo, hi = (Fraction(v) for v in support)
        if not (0 <= lo < hi <= 1):
            raise BadInterval("support must satisfy 0 <= l < r <= 1, got [%s, %s]" % (lo, hi))
        Record.__init__(self, lo, hi, int(power))

    @property
    def support(self):
        return (self.lo, self.hi)

    def apply(self, x):
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise OutOfDomain("point %s outside [0,1]" % x)
        if self.power == 0 or x <= self.lo or x >= self.hi:
            return x
        # the affine steps stay Fraction operations, which reduce through
        # the coprime denominators of reduced operands: a pair built and
        # reduced here would cost a full gcd at the point's size
        lo, width = self.lo, self.hi - self.lo
        return lo + from_chart(to_chart((x - lo) / width) + self.power) * width

    def inverse(self):
        return ModelTranslation(self.support, -self.power)

    def one_sided_slope(self, x, side):
        _check_side(side)
        x = Fraction(x)
        if not 0 < x < 1:
            raise OutOfDomain("slope requested outside (0,1): %s" % x)
        if self.power == 0 or x < self.lo or x > self.hi:
            return Fraction(1)
        if x == self.lo:
            if side == LEFT:
                return Fraction(1)
            raise AccumulationPoint("breakpoints accumulate at %s from the right" % x)
        if x == self.hi:
            if side == RIGHT:
                return Fraction(1)
            raise AccumulationPoint("breakpoints accumulate at %s from the left" % x)
        # (x - lo)/(hi - lo) as an integer pair, not reduced, and its cell
        (l, L), (h, H), (n, m) = (v.as_integer_ratio() for v in (self.lo, self.hi, x))
        n, m = (n * L - l * m) * H, m * (h * L - l * H)
        i = chart_index_pair(n, m)
        if side == LEFT and at_anchor(i, n, m):
            i -= 1
        return _width_ratio(i, self.power)


def chart_shift(power=1):
    """The chart translation on all of [0,1]; shifts anchor(i) to anchor(i+power)."""
    return ModelTranslation((0, 1), power)


def base_cell_shift(power=1):
    """Chart translation supported on the base cell [anchor(0), anchor(1)]."""
    return cell_shift(0, power)


def cell_shift(i, power=1):
    """Chart translation supported on cell i; equals the base cell shift
    conjugated by the i-th power of the chart shift."""
    return ModelTranslation((anchor(i), anchor(i + 1)), power)


class ZZAction(Record):
    """Product of cell translations, one per table entry: identity off the
    listed cells, the k-th power of the cell shift on cell i when table[i]=k."""

    __slots__ = ("table",)

    def apply_pair(self, n, m):
        """The image of n/m, 0 <= n <= m, as a pair: the input pair itself
        wherever the product is the identity (at 0 and 1, off the listed
        cells, and at each cell's left anchor), so a point it fixes is
        never reduced or rebuilt."""
        if n == 0 or n == m:
            return n, m
        i = chart_index_pair(n, m)
        k = self.table.get(i, 0)
        if k == 0 or at_anchor(i, n, m):
            return n, m
        return cell_shift(i, k).apply(Fraction(n, m)).as_integer_ratio()


def zz_base_link(k):
    """The base cell shift to the power k at cell 0's midpoint 7/12, as
    (s, left, right), where s is the chart coordinate of the image and left
    and right are the two one-sided slopes there."""
    y, base = Fraction(*midpoint_pair(0)), base_cell_shift(k)  # y = from_chart(1/2)
    return (to_chart(base.apply(y)), base.one_sided_slope(y, LEFT),
            base.one_sided_slope(y, RIGHT))
