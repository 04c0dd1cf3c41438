"""Shared deterministic random generators for the property suites, and the
oracles only the tests use."""

from fractions import Fraction

from nonsmooth.cli import point_obj
from nonsmooth.cover import TORUS_A, TORUS_B, CoverPoint, lift_through
from nonsmooth.errors import BadInterval
from nonsmooth.plmaps import IntervalMapExpr, ModelTranslation, PLMap, as_expr, cell_shift
from nonsmooth.projline import MoebiusMap, ProjPoint, ordering_name
from nonsmooth.record import Record


def rand_rat(rng, lim=12):
    return Fraction(rng.randint(-lim, lim), rng.randint(1, lim))


def rand_pos_rat(rng, lim=12):
    return Fraction(rng.randint(1, lim), rng.randint(1, lim))


def rand_proj(rng, lim=12, p_inf=0.05):
    if rng.random() < p_inf:
        return ProjPoint.infinity()
    return ProjPoint.from_affine(rand_rat(rng, lim))


def rand_cover(rng, lim=12, sheets=4):
    return CoverPoint(rand_proj(rng, lim), rng.randint(-sheets, sheets))


def rand_sl2(rng, steps=6):
    m = MoebiusMap(1, 0, 0, 1)
    for _ in range(steps):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = m.compose(MoebiusMap(1, k, 0, 1))
        else:
            m = m.compose(MoebiusMap(1, 0, k, 1))
    return m


def rand_torus_word_matrix(rng, length=5):
    gens = (TORUS_A, TORUS_B, TORUS_A.inverse(), TORUS_B.inverse())
    m = MoebiusMap(1, 0, 0, 1)
    for _ in range(rng.randint(1, length)):
        m = m.compose(rng.choice(gens))
    return m


def rand_lift(rng):
    # an arbitrary lift (any deck power) of a random word in the two generators
    return lift_through(rand_torus_word_matrix(rng), rng.randint(-2, 2))


def rand_interior(rng, den=720):
    return Fraction(rng.randint(1, den - 1), den)


def rand_plmap(rng, pieces=4):
    xs = sorted({Fraction(rng.randint(1, 23), 24) for _ in range(pieces)})
    ys = sorted({Fraction(rng.randint(1, 23), 24) for _ in range(pieces)})
    k = min(len(xs), len(ys))
    pts = [(Fraction(0), Fraction(0))]
    pts.extend(zip(xs[:k], ys[:k]))
    pts.append((Fraction(1), Fraction(1)))
    return PLMap(pts)


def rand_model(rng, grid=12, powers=3):
    a, b = sorted(rng.sample(range(grid + 1), 2))
    return ModelTranslation((Fraction(a, grid), Fraction(b, grid)),
                            rng.randint(-powers, powers))


def rand_pl_expr(rng, size=3):
    factors = []
    for _ in range(rng.randint(1, size)):
        if rng.random() < 0.5:
            factors.append(rand_plmap(rng))
        else:
            factors.append(rand_model(rng))
    return IntervalMapExpr(tuple(factors))


def rand_word_letters(rng, gens=2, length=6):
    return tuple((rng.randrange(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, length)))


def slope_quotient_oracle(m, x, side, need=3):
    # independent slope oracle: exact difference quotients, shrink the step
    # until the same value appears `need` times in a row
    from nonsmooth.plmaps import RIGHT, as_expr

    e = as_expr(m)
    fx = e.apply(x)
    h = Fraction(1, 16)
    prev, run = None, 0
    for _ in range(300):
        x1 = x + h if side == RIGHT else x - h
        if 0 < x1 < 1:
            q = (e.apply(x1) - fx) / (x1 - x)
            if q == prev:
                run += 1
                if run >= need - 1:
                    return q
            else:
                prev, run = q, 0
        h /= 2
    raise AssertionError("difference quotient did not stabilize at %s" % x)


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
        if isinstance(m, (PLMap, ModelTranslation)):
            return self._conjugate_atom(m)
        return IntervalMapExpr(tuple(self._conjugate_atom(f) for f in as_expr(m).factors))

    def __repr__(self):
        return "AffineChart(%s, %s)" % (self.lo, self.hi)


def word_expr(act, w):
    """Materialize a word of an interval action as a composition expression."""
    factors = []
    for idx, exp in w.letters:
        factors.append(as_expr(act.bound_map(idx, exp)))
    return IntervalMapExpr(tuple(factors))


def zz_expr(z):
    """A cell-shift product action as a composition of its cell shifts."""
    return IntervalMapExpr(tuple(cell_shift(i, k) for i, k in sorted(z.table.items())))


def row_obj(row):
    """A domination row as the report lists it under certificate.rows; the
    oracle that cli.ROW_TEMPLATE must agree with."""
    return {"m": row.m,
            "generator": row.generator,
            "sign": row.sign,
            "moved": point_obj(row.moved),
            "dominator": point_obj(row.dominator),
            "ordering": ordering_name(row.ordering),
            "bracket_route": row.bracket_route}


def sandwich_apply(window, m, x):
    """A generator rescaled to a window by the affine sandwich
    x -> (m(p + u x) - p)/u, with p the base point and u the unit; the
    oracle that the conjugated germs of RescaledSystem must agree with."""
    p, u = window.point, window.unit
    return (m.apply(p + u * x) - p) / u
