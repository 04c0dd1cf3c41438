"""Affine blow-ups of an interval action along a marked point sequence.

Each window is the hull of a point with its generator images, enlarged about
the point and clamped to the unit interval.  Rescaling the window so the
largest generator displacement becomes 1 gives a normalized local picture;
translation deviation and fixed-point persistence are exact statistics of
that picture.  Germs with a C1-like limit flatten to translations, while the
obstructed actions keep a generator fixed point inside every window.
"""

from fractions import Fraction

from .errors import (
    BadInterval,
    Degenerate,
    EmptyDisplacement,
    EmptyGridDomain,
    OutOfDomain,
    Unsupported,
)
from .groupact import UNIT_INTERVAL, MarkedAction, word_eval
from .projline import canonical_entries
from .record import Record

ZERO = Fraction(0)
ONE = Fraction(1)


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

    def apply(self, x):
        # the entries are integers: with x = n/m, one normalization suffices
        n, m = x.as_integer_ratio()
        den = self.c * n + self.d * m
        if den == 0:
            raise OutOfDomain("germ has a pole at %s" % (x,))
        return Fraction(self.a * n + self.b * m, den)

    def inverse(self) -> "MoebiusGermMap":
        return MoebiusGermMap(self.d, -self.b, -self.c, self.a)

    def __repr__(self):
        return "MoebiusGermMap(%s, %s, %s, %s)" % (self.a, self.b, self.c, self.d)


def parabolic_germ() -> MoebiusGermMap:
    """x -> x/(1+x): parabolic at 0, pushes everything toward the origin."""
    return MoebiusGermMap(1, 0, 1, 1)


def halving_germ() -> MoebiusGermMap:
    """x -> x/2: hyperbolic contraction at 0."""
    return MoebiusGermMap(1, 0, 0, 2)


def germ_action(germ=None) -> MarkedAction:
    return MarkedAction(("a",), (parabolic_germ() if germ is None else germ,),
                        UNIT_INTERVAL)


class Window(Record):
    """One blow-up site: base point, generator hull, enlarged domain."""

    __slots__ = ("index", "point", "hull", "enlarged", "length", "unit")

    def __init__(self, index, point, hull, enlarged, unit):
        point = Fraction(point)
        hull = (Fraction(hull[0]), Fraction(hull[1]))
        enlarged = (Fraction(enlarged[0]), Fraction(enlarged[1]))
        unit = Fraction(unit)
        if not hull[0] <= point <= hull[1]:
            raise BadInterval("base point outside its hull")
        if not (enlarged[0] <= hull[0] and hull[1] <= enlarged[1]):
            raise BadInterval("hull outside the enlarged window")
        if hull[1] - hull[0] <= 0 or unit <= 0:
            raise BadInterval("window must have positive size")
        Record.__init__(self, int(index), point, hull, enlarged,
                        hull[1] - hull[0], unit)

    def __repr__(self):
        return "Window(%d, point=%s, hull=%r)" % (self.index, self.point, self.hull)


def build_windows(act: MarkedAction, p_seq, enlargement=3):
    """Hull each point with its generator images, then enlarge about the point
    by the given factor, clamped to the unit interval."""
    if act.domain != UNIT_INTERVAL:
        raise Unsupported("windows need an interval action")
    factor = Fraction(enlargement)
    if factor < 1:
        raise ValueError("enlargement factor must be at least 1")
    windows = []
    for index, p in enumerate(p_seq):
        p = act.check_point(p)
        images = [m.apply(p) for m in act.maps]
        unit = max(abs(x - p) for x in images)
        if unit == 0:
            raise EmptyDisplacement(
                "every generator fixes the marked point %s" % (p,))
        lo = min(images + [p])
        hi = max(images + [p])
        enlarged = (max(ZERO, p + factor * (lo - p)),
                    min(ONE, p + factor * (hi - p)))
        windows.append(Window(index, p, (lo, hi), enlarged, unit))
    return tuple(windows)


class RescaledSystem(Record):
    """A window blown up to unit scale: the base point moves to the origin and
    each generator becomes a partial map of the rescaled enlarged window.

    The per-window work happens once, here: the rescaled domain is stored,
    and each germ generator is stored already conjugated by the rescaling.
    Every other generator is applied through the affine sandwich
    x -> (g(p + u x) - p)/u, with p the base point and u the unit.
    """

    __slots__ = ("window", "act", "grid", "domain", "_germs", "_bound")

    def __init__(self, window, act, grid):
        if grid < 2:
            raise ValueError("grid resolution must be at least 2")
        p, u = window.point, window.unit
        domain = ((window.enlarged[0] - p) / u, (window.enlarged[1] - p) / u)
        bound = dict(zip(act.names, act.maps))
        germs = {name: _conjugate_germ(g, p, u) for name, g in bound.items()
                 if isinstance(g, MoebiusGermMap)}
        Record.__init__(self, window, act, int(grid), domain, germs, bound)

    @property
    def names(self):
        return self.act.names

    def apply(self, name, x):
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise OutOfDomain("%s is outside the rescaled window" % (x,))
        germ = self._germs.get(name)
        if germ is not None:
            return germ.apply(x)
        x = Fraction(x)
        w = self.window
        return (self._bound[name].apply(w.point + w.unit * x) - w.point) / w.unit

    def displacement_at_0(self, name):
        return self.apply(name, ZERO)


def _conjugate_germ(g, p, u):
    """The germ x -> (g(p + u x) - p)/u; its determinant is u^2 (ad - bc)."""
    a, b, c, d = g.a, g.b, g.c, g.d
    s = a - c * p
    return MoebiusGermMap(s * u, s * p + b - d * p, c * u * u, u * (c * p + d))


def rescale(w: Window, act: MarkedAction, grid=64) -> RescaledSystem:
    """Normalized local picture of the action on a window; the largest
    generator displacement of the origin is exactly 1."""
    rs = RescaledSystem(w, act, grid)
    if max(abs(rs.displacement_at_0(n)) for n in rs.names) != 1:
        raise AssertionError("the largest rescaled displacement is not 1")
    return rs


def _grid_points(rs: RescaledSystem, radius, grid):
    radius = Fraction(radius)
    lo, hi = rs.domain
    lo, hi = max(lo, -radius), min(hi, radius)
    if lo > hi:
        raise EmptyGridDomain(
            "window does not meet the requested radius %s" % (radius,))
    span = hi - lo
    return [lo + span * Fraction(k, grid) for k in range(grid + 1)]


def generator_deviation(rs: RescaledSystem, name, radius, grid):
    """Largest |g_hat(x) - x - g_hat(0)| over the rational grid; a lower bound
    for the sup, exact at every sampled point."""
    if grid < 2:
        raise ValueError("grid resolution must be at least 2")
    shift = rs.displacement_at_0(name)
    best = ZERO
    for x in _grid_points(rs, radius, grid):
        dev = abs(rs.apply(name, x) - x - shift)
        if dev > best:
            best = dev
    return best


def translation_deviation(rs: RescaledSystem, radius, grid):
    """How far the rescaled system is from a system of translations."""
    return max(generator_deviation(rs, name, radius, grid)
               for name in rs.names)


def _bisect_displacement(rs, name, a, va, b, refine):
    for _ in range(refine):
        mid = (a + b) / 2
        v = rs.apply(name, mid) - mid
        if v == 0:
            return (mid, mid)
        if (v > 0) == (va > 0):
            a, va = mid, v
        else:
            b = mid
    return (a, b)


def fixed_point_in_window(rs: RescaledSystem, refine=12):
    """Per generator: an exact bracket in the rescaled window across which the
    displacement g_hat(x) - x changes sign (degenerate at an exact zero), or
    None when the displacement keeps one sign at grid granularity."""
    lo, hi = rs.domain
    span = hi - lo
    pts = [lo + span * Fraction(k, rs.grid) for k in range(rs.grid + 1)]
    out = {}
    for name in rs.names:
        vals = [rs.apply(name, x) - x for x in pts]
        if all(v == 0 for v in vals):
            raise Degenerate("generator %s is the identity on the window" % name)
        bracket = None
        for k, v in enumerate(vals):
            if v == 0:
                bracket = (pts[k], pts[k])
                break
            if k and (vals[k - 1] > 0) != (v > 0):
                bracket = _bisect_displacement(
                    rs, name, pts[k - 1], vals[k - 1], pts[k], refine)
                break
        out[name] = bracket
    return out


def hull_displacement(rs: RescaledSystem, w):
    """How far the word moves the base point, in units of the hull length."""
    p = rs.window.point
    return abs(word_eval(rs.act, w, p) - p) / rs.window.length
