"""Shared deterministic random generators for the property suites, and the
oracles only the tests use."""

from fractions import Fraction

from nonsmooth.cli import point_obj
from nonsmooth.cover import TORUS_A, TORUS_B, CoverPoint, lift_through
from nonsmooth.errors import BadInterval, Degenerate, EmptyGridDomain, WordSyntaxError
from nonsmooth.groupact import (
    DEFAULT_NAMES,
    _check_length,
    _reduce,
    _reduced_word,
    commutator,
)
from nonsmooth.plmaps import (
    LEFT,
    RIGHT,
    IntervalMapExpr,
    ModelTranslation,
    PLMap,
    as_expr,
    base_cell_shift,
    cell_midpoint,
    cell_shift,
    chart_shift,
)
from nonsmooth.projline import MoebiusMap, ProjPoint, ordering_name
from nonsmooth.record import Record
from nonsmooth.renorm import BISECTION_STEPS


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


def parse_word_oracle(text, names=DEFAULT_NAMES):
    """groupact.parse_word as recursive descent, one nested call per group,
    so a word nested deeper than the recursion limit allows does not parse;
    the oracle for the explicit stack."""
    index = {}
    for i, name in enumerate(names):
        if len(name) != 1 or not name.islower():
            raise WordSyntaxError("letter names must be single lowercase characters")
        index[name] = i
    s = text
    n = len(s)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def parse_int():
        nonlocal pos
        start = pos
        if pos < n and s[pos] in "+-":
            pos += 1
        if pos >= n or not s[pos].isdigit():
            raise WordSyntaxError("expected an integer at position %d of %r" % (start, text))
        while pos < n and s[pos].isdigit():
            pos += 1
        return int(s[start:pos])

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= n or s[pos] != ch:
            raise WordSyntaxError("expected %r at position %d of %r" % (ch, pos, text))
        pos += 1

    def parse_atom():
        # the atom's letters, freely reduced and checked
        nonlocal pos
        ch = s[pos]
        if ch == "(":
            pos += 1
            letters = parse_seq(")")
            expect(")")
            return letters
        if ch == "[":
            pos += 1
            first = parse_seq(",")
            expect(",")
            second = parse_seq("]")
            expect("]")
            return commutator(_reduced_word(first), _reduced_word(second)).letters
        low = ch.lower()
        if low in index:
            pos += 1
            return ((index[low], 1 if ch == low else -1),)
        raise WordSyntaxError("unexpected character %r at position %d of %r" % (ch, pos, text))

    def parse_seq(stop):
        # the sequence's letters as one freely reduced list: each flat letter
        # is reduced once, on its way into the list, and never again
        nonlocal pos
        acc = []
        while True:
            skip_ws()
            if pos >= n:
                if stop is None:
                    return acc
                raise WordSyntaxError("missing %r in %r" % (stop, text))
            if stop is not None and s[pos] == stop:
                return acc
            letters = parse_atom()
            skip_ws()
            if pos < n and s[pos] == "^":
                pos += 1
                skip_ws()
                letters = (_reduced_word(letters) ** parse_int()).letters
            _check_length(len(acc) + len(letters))
            _reduce(letters, acc)

    try:
        return _reduced_word(parse_seq(None))
    except RecursionError:
        raise WordSyntaxError("word nests parentheses or brackets too deeply "
                              "to parse") from None


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


def zz_slope_mid_oracle(z, i):
    """groupact.zz_slope_mid as a walk of interval points: the midpoint of
    cell i goes through chart_shift(-i), the base cell shift power and
    chart_shift(i), each factor moving the point once and multiplying its
    left and right slopes into their own products; the oracle for the
    chart-coordinate walk."""
    k = z.table.get(int(i), 0)
    if k == 0:
        return Fraction(1)
    y = cell_midpoint(i)
    left = right = Fraction(1)
    for f in (chart_shift(-i), base_cell_shift(k), chart_shift(i)):
        left *= f.one_sided_slope(y, LEFT)
        right *= f.one_sided_slope(y, RIGHT)
        y = f.apply(y)
    return max(left, right)


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
    oracle that RescaledSystem.apply must agree with."""
    p, u = window.point, window.unit
    return (m.apply(p + u * x) - p) / u


def generator_deviation_oracle(rs, name, radius, grid):
    """renorm.generator_deviation with every value taken through
    RescaledSystem.apply in rescaled coordinates; the oracle for the window
    coordinates the library evaluates in."""
    if grid < 2:
        raise ValueError("grid resolution must be at least 2")
    shift = rs.displacement_at_0(name)
    radius = Fraction(radius)
    lo, hi = rs.domain
    lo, hi = max(lo, -radius), min(hi, radius)
    if lo > hi:
        raise EmptyGridDomain(
            "window does not meet the requested radius %s" % (radius,))
    span = hi - lo
    best = Fraction(0)
    for x in [lo + span * Fraction(k, grid) for k in range(grid + 1)]:
        dev = abs(rs.apply(name, x) - x - shift)
        if dev > best:
            best = dev
    return best


def fixed_point_oracle(rs):
    """renorm.fixed_point_in_window with every value taken through
    RescaledSystem.apply in rescaled coordinates; the oracle for the window
    coordinates the library evaluates in."""
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
                a, va, b = pts[k - 1], vals[k - 1], pts[k]
                for _ in range(BISECTION_STEPS):
                    mid = (a + b) / 2
                    v = rs.apply(name, mid) - mid
                    if v == 0:
                        a = b = mid
                        break
                    if (v > 0) == (va > 0):
                        a, va = mid, v
                    else:
                        b = mid
                bracket = (a, b)
                break
        out[name] = bracket
    return out
