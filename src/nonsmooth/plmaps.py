"""Piecewise-linear homeomorphisms of [0,1] built over a fixed dyadic chart.

The chart sends the integer i to the anchor c_i = 2^i/(2^i + 1) and is linear
in between, so translation by an integer in chart coordinates becomes an exact
rational PL map of (0,1) whose breakpoints accumulate only at 0 and 1.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import (
    AccumulationPoint,
    BadInterval,
    NotModelGerm,
    OutOfDomain,
    Unsupported,
)
from .record import Record

LEFT = "left"
RIGHT = "right"


def _check_side(side):
    if side not in (LEFT, RIGHT):
        raise ValueError("side must be LEFT or RIGHT, got %r" % (side,))


def pow2(k):
    return Fraction(2) ** k


def anchor(i):
    p = pow2(i)
    return p / (p + 1)


def cell_width(i):
    return anchor(i + 1) - anchor(i)


def cell_midpoint(i):
    return (anchor(i) + anchor(i + 1)) / 2


def _pow2_le(b, i, a):
    # 2^i * b <= a with integer a, b > 0 and i of either sign
    if i >= 0:
        return (b << i) <= a
    return b <= (a << (-i))


def chart_index(x):
    """Index i with anchor(i) <= x < anchor(i+1), for x in (0,1)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise OutOfDomain("chart covers (0,1) only, got %s" % x)
    a, b = x.numerator, x.denominator - x.numerator
    i = a.bit_length() - b.bit_length()
    while _pow2_le(b, i + 1, a):
        i += 1
    while not _pow2_le(b, i, a):
        i -= 1
    return i


def from_chart(t):
    """Chart-to-interval map: t = i goes to anchor(i), linear in between."""
    t = Fraction(t)
    i = t.numerator // t.denominator
    return anchor(i) + (t - i) * cell_width(i)


def to_chart(x):
    x = Fraction(x)
    i = chart_index(x)
    return i + (x - anchor(i)) / cell_width(i)


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

    @classmethod
    def identity(cls):
        return cls([(0, 0), (1, 1)])

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

    def compose(self, other):
        """Exact PL composition self after other, by merging breakpoints."""
        inv = other.inverse()
        xs = sorted({x for x, _ in other.breakpoints}
                    | {inv.apply(x) for x, _ in self.breakpoints})
        return PLMap([(x, self.apply(other.apply(x))) for x in xs])

    def __repr__(self):
        return "PLMap(%s)" % (list(self.breakpoints),)


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
        u = (x - self.lo) / (self.hi - self.lo)
        return self.lo + from_chart(to_chart(u) + self.power) * (self.hi - self.lo)

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
        u = (x - self.lo) / (self.hi - self.lo)
        i = chart_index(u)
        if side == LEFT and u == anchor(i):
            i -= 1
        return cell_width(i + self.power) / cell_width(i)

    def __repr__(self):
        return "ModelTranslation([%s, %s], %d)" % (self.lo, self.hi, self.power)


_ATOMS = (PLMap, ModelTranslation)


class IntervalMapExpr(Record):
    """Lazy composition of PL atoms: factors (f1, ..., fk) mean f1 o ... o fk."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        flat = []
        for f in factors:
            if isinstance(f, IntervalMapExpr):
                flat.extend(f.factors)
            elif isinstance(f, _ATOMS):
                flat.append(f)
            else:
                raise Unsupported("cannot compose %r" % (f,))
        Record.__init__(self, tuple(flat))

    @classmethod
    def identity(cls):
        return cls()

    def apply(self, x):
        y = Fraction(x)
        if not 0 <= y <= 1:
            raise OutOfDomain("point %s outside [0,1]" % y)
        for f in reversed(self.factors):
            y = f.apply(y)
        return y

    def compose(self, other):
        return IntervalMapExpr((self, as_expr(other)))

    def inverse(self):
        return IntervalMapExpr(tuple(f.inverse() for f in reversed(self.factors)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return IntervalMapExpr(self.factors * n)

    def one_sided_slope(self, x, side):
        _check_side(side)
        acc, y = Fraction(1), Fraction(x)
        for f in reversed(self.factors):
            acc *= f.one_sided_slope(y, side)
            y = f.apply(y)
        return acc

    def __repr__(self):
        return "IntervalMapExpr(%s)" % (list(self.factors),)


def as_expr(m):
    if isinstance(m, IntervalMapExpr):
        return m
    if isinstance(m, _ATOMS):
        return IntervalMapExpr((m,))
    raise Unsupported("not an interval map: %r" % (m,))


def one_sided_slope(m, x, side):
    return as_expr(m).one_sided_slope(x, side)


def _atom_germ_slope(atom, x, side):
    try:
        return atom.one_sided_slope(x, side)
    except AccumulationPoint:
        # model translation seen from inside its support endpoint
        if side == RIGHT and x == atom.lo:
            return pow2(atom.power)
        return pow2(-atom.power)


def germ_slope(m, x, side):
    """One-sided slope with the closed-form limit at accumulation endpoints."""
    _check_side(side)
    acc, y = Fraction(1), Fraction(x)
    for f in reversed(as_expr(m).factors):
        acc *= _atom_germ_slope(f, y, side)
        y = f.apply(y)
    return acc


def limit_slope(m, endpoint):
    """Secant-limit slope of a model-translation power at a support endpoint."""
    _check_side(endpoint)
    factors = [f for f in as_expr(m).factors
               if not (isinstance(f, ModelTranslation) and f.power == 0)]
    if any(not isinstance(f, ModelTranslation) for f in factors):
        raise NotModelGerm("expression contains a non-model factor")
    supports = {f.support for f in factors}
    if len(supports) > 1:
        raise NotModelGerm("factors have mismatched supports %s" % (sorted(supports),))
    net = sum(f.power for f in factors)
    return pow2(net) if endpoint == LEFT else pow2(-net)


def _merge_pieces(pieces):
    pieces = sorted(pieces)
    out = []
    for lo, hi in pieces:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _pl_fixed_set(f):
    pieces = []
    for (x0, y0), (x1, y1) in zip(f.breakpoints, f.breakpoints[1:]):
        d0, d1 = y0 - x0, y1 - x1
        if d0 == 0 and d1 == 0:
            pieces.append((x0, x1))
        elif d0 == 0:
            pieces.append((x0, x0))
        elif d1 == 0:
            pieces.append((x1, x1))
        elif (d0 < 0) != (d1 < 0):
            z = x0 + (x1 - x0) * d0 / (d0 - d1)
            pieces.append((z, z))
    return _merge_pieces(pieces)


def fixed_set(m):
    """Exact fixed set, as a tuple of disjoint closed intervals (lo, hi).

    Supported inputs: finite-breakpoint PL maps and their compositions, and
    products of model-translation powers whose supports have pairwise disjoint
    interiors.
    """
    factors = as_expr(m).factors
    if not factors:
        return ((Fraction(0), Fraction(1)),)
    if all(isinstance(f, PLMap) for f in factors):
        acc = PLMap.identity()
        for f in factors:
            acc = acc.compose(f)
        return _pl_fixed_set(acc)
    if all(isinstance(f, ModelTranslation) for f in factors):
        net = {}
        for f in factors:
            net[f.support] = net.get(f.support, 0) + f.power
        spans = sorted(s for s, k in net.items() if k != 0)
        for (_, hi0), (lo1, _) in zip(spans, spans[1:]):
            if lo1 < hi0:
                raise Unsupported("support interiors overlap: cannot describe the fixed set")
        cuts = [Fraction(0)]
        for lo, hi in spans:
            cuts.extend((lo, hi))
        cuts.append(Fraction(1))
        pieces = [(cuts[j], cuts[j + 1]) for j in range(0, len(cuts), 2)
                  if cuts[j] <= cuts[j + 1]]
        return _merge_pieces(pieces)
    raise Unsupported("mixed PL and model factors: fixed set not computed")


class AffineChart(Record):
    """Increasing affine bijection of (0,1) onto a subinterval (lo, hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not (0 < lo < hi < 1):
            raise BadInterval("chart target must satisfy 0 < l < r < 1, got [%s, %s]" % (lo, hi))
        Record.__init__(self, lo, hi)

    def apply(self, u):
        return self.lo + Fraction(u) * (self.hi - self.lo)

    def invert(self, x):
        return (Fraction(x) - self.lo) / (self.hi - self.lo)

    def _conjugate_atom(self, f):
        if isinstance(f, ModelTranslation):
            return ModelTranslation((self.apply(f.lo), self.apply(f.hi)), f.power)
        pts = [(Fraction(0), Fraction(0))]
        pts.extend((self.apply(x), self.apply(y)) for x, y in f.breakpoints)
        pts.append((Fraction(1), Fraction(1)))
        return PLMap(pts)

    def conjugate(self, m):
        """Transport a map of [0,1] into the target interval, identity outside."""
        if isinstance(m, _ATOMS):
            return self._conjugate_atom(m)
        return IntervalMapExpr(tuple(self._conjugate_atom(f) for f in as_expr(m).factors))

    def __repr__(self):
        return "AffineChart(%s, %s)" % (self.lo, self.hi)


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
