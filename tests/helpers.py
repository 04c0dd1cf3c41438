"""Shared deterministic random generators for the property suites, the
oracles only the tests use, and the reference code that only the tests
call: composition expressions with their germ slopes, slope characters,
PL composition, the displacement growth check, the expansion of a
DeckRows into its rows, the per-row torus render, the per-cell zz
slope chain, the zz midpoint as a sum of anchors, the zz group law, the
compactified lift as a chain of integer steps, word evaluation through
the maps' apply, the window hull and its checks on Fractions, a
window's values as Fractions, the integer grid of a window, the root
bisection on Fractions and the renorm statistics of the dichotomy; and a
call counter."""

import contextlib
import json
from collections import Counter
from fractions import Fraction
from math import lcm
from unittest import mock

from nonsmooth.cli import ROW_TEMPLATE, coordinate, point_obj, support_lines
from nonsmooth.cover import (
    TORUS_A,
    TORUS_B,
    CoverPoint,
    compactify_triple,
    cover_cmp,
    lift_through,
    uncompactify_triple,
)
from nonsmooth.errors import (
    AccumulationPoint,
    BadInterval,
    BracketOutsideWindow,
    Degenerate,
    DegenerateSequence,
    EmptyDisplacement,
    EmptyGridDomain,
    NonsmoothError,
    NotCommutatorClass,
    OutOfDomain,
    SearchExhausted,
    Unsupported,
    WordSyntaxError,
)
from nonsmooth.groupact import (
    COVER_LINE,
    DEFAULT_NAMES,
    UNIT_INTERVAL,
    _check_length,
    _reduce,
    _reduced_word,
    commutator,
    orbit_sequence,
    pair_form,
    word_eval,
)
from nonsmooth.obstruction import (
    HALF,
    DominationCertificate,
    DominationRow,
    _cmp_points,
    certify_interleaving,
    is_commutator_class_trivial,
)
from nonsmooth.plmaps import (
    LEFT,
    RIGHT,
    ModelTranslation,
    PLMap,
    ZZAction,
    _check_side,
    _width_pair,
    _width_ratio,
    anchor,
    base_cell_shift,
    cell_shift,
    chart_shift,
    from_chart,
    to_chart,
)
from nonsmooth.projline import (
    GREATER,
    LESS,
    MoebiusMap,
    ProjPoint,
    _clear_to_int,
    ordering_name,
)
from nonsmooth.rational import fmt_rat
from nonsmooth.record import Record
from nonsmooth.renorm import (
    BISECTION_STEPS,
    WINDOW_ENLARGEMENT,
    Window,
    generator_deviation,
)

# Most factors a power of an expression may expand to; the factors are
# materialized, so this bounds the memory one power can take.
MAX_EXPR_FACTORS = 100_000


class NotFixed(NonsmoothError):
    """Slope character requested at a point some generator does not fix."""


def pow2(k):
    return Fraction(2) ** k


def pl_compose(f, g):
    """Exact PL composition f after g, by merging breakpoints."""
    inv = g.inverse()
    xs = sorted({x for x, _ in g.breakpoints}
                | {inv.apply(x) for x, _ in f.breakpoints})
    return PLMap([(x, f.apply(g.apply(x))) for x in xs])


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
        if len(self.factors) * n > MAX_EXPR_FACTORS:
            raise Unsupported("power would expand to %d factors, more than the "
                              "cap of %d" % (len(self.factors) * n, MAX_EXPR_FACTORS))
        return IntervalMapExpr(self.factors * n)

    def one_sided_slope(self, x, side):
        _check_side(side)
        acc, y = Fraction(1), Fraction(x)
        for f in reversed(self.factors):
            acc *= f.one_sided_slope(y, side)
            y = f.apply(y)
        return acc


def as_expr(m):
    if isinstance(m, IntervalMapExpr):
        return m
    if isinstance(m, _ATOMS):
        return IntervalMapExpr((m,))
    raise Unsupported("not an interval map: %r" % (m,))


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


class SlopeCharacter(Record):
    """Multiplicative character: each generator's exact germ slope at a common
    fixed point."""

    __slots__ = ("point", "side", "table")

    def of_word(self, w, names):
        sigma = Fraction(1)
        for idx, exp in w.letters:
            s = self.table[names[idx]]
            sigma *= s if exp > 0 else 1 / s
        return sigma


def slope_character(act, p, side=RIGHT):
    if act.domain != UNIT_INTERVAL:
        raise Unsupported("slope characters live on interval actions")
    p = Fraction(p)
    table = {}
    for name, bound in zip(act.names, act.maps):
        expr = as_expr(bound)
        if expr.apply(p) != p:
            raise NotFixed("generator %s moves the base point %s" % (name, p))
        table[name] = germ_slope(expr, p, side)
    return SlopeCharacter(p, side, table)


def displacement_growth_check(f, x, n):
    """Exact check that the n-th iterate of the lift f pushes the cover point
    x above x + (n - 1) deck units."""
    if n < 1:
        raise ValueError("n must be positive")
    cur = x
    for _ in range(n):
        cur = f.apply(cur)
    return cover_cmp(cur, x.deck(n - 1)) == GREATER


class ExpandedRows:
    """Every row a DeckRows stands for, as a sequence that builds each row
    when it is asked for: row j of step m is row j of step 0 with m added
    to its m and its moved and dominating points moved up m sheets."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows.period) * (self.rows.depth + 1)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return tuple(map(self._row, picked))
        return self._row(picked)

    def _row(self, i):
        m, j = divmod(i, len(self.rows.period))
        r = self.rows.period[j]
        route = r.bracket_route if m == 0 or self.rows.carries_routes else None
        return DominationRow(r.m + m, r.generator, r.sign, r.moved.deck(m),
                             r.dominator.deck(m), r.ordering, route)


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
    return lift_through(rand_torus_word_matrix(rng)).deck(rng.randint(-2, 2))


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


def word_expr(act, w):
    """Materialize a word of an interval action as a composition expression."""
    factors = []
    for idx, exp in w.letters:
        factors.append(as_expr(act.bound_map(idx, exp)))
    return IntervalMapExpr(tuple(factors))


class ZZGroupAction(ZZAction):
    """A cell-shift product action with its group law: built from a dict or
    an iterable of (cell, power) pairs, summing repeated cells and dropping
    zero powers, so equal products compare equal."""

    def __init__(self, support):
        items = support.items() if isinstance(support, dict) else support
        table = {}
        for i, k in items:
            i, k = int(i), int(k)
            if k != 0:
                table[i] = table.get(i, 0) + k
        Record.__init__(self, {i: k for i, k in table.items() if k != 0})

    def apply(self, x):
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise OutOfDomain("point %s outside [0,1]" % x)
        return Fraction(*self.apply_pair(x.numerator, x.denominator))

    def inverse(self):
        return ZZGroupAction({i: -k for i, k in self.table.items()})

    def compose(self, other):
        merged = dict(self.table)
        for i, k in other.table.items():
            merged[i] = merged.get(i, 0) + k
        return ZZGroupAction(merged)


def zz_expr(z):
    """A cell-shift product action as a composition of its cell shifts."""
    return IntervalMapExpr(tuple(cell_shift(i, k) for i, k in sorted(z.table.items())))


def cell_width(i):
    """c_(i+1) - c_i, from the closed form of plmaps._width_pair."""
    return Fraction(*_width_pair(i))


def cell_midpoint_oracle(i):
    """The midpoint of cell i as the half sum of its two anchors; the
    oracle for plmaps.midpoint_pair and the entries' midpoint strings."""
    return (anchor(i) + anchor(i + 1)) / 2


def zz_slope_mid_oracle(z, i):
    """groupact.zz_slope_mid as a walk of interval points: the midpoint of
    cell i goes through chart_shift(-i), the base cell shift power and
    chart_shift(i), each factor moving the point once and multiplying its
    left and right slopes into their own products; the oracle for the
    chart-coordinate walk."""
    k = z.table.get(int(i), 0)
    if k == 0:
        return Fraction(1)
    y = cell_midpoint_oracle(i)
    left = right = Fraction(1)
    for f in (chart_shift(-i), base_cell_shift(k), chart_shift(i)):
        left *= f.one_sided_slope(y, LEFT)
        right *= f.one_sided_slope(y, RIGHT)
        y = f.apply(y)
    return max(left, right)


def chart_shift_slope(t, power, side):
    """One-sided slope of chart_shift(power) at the point of chart coordinate
    t.  The shift is t -> t + power in chart coordinates, so on cell j it is
    affine with slope cell_width(j + power) / cell_width(j); j = floor(t), or
    t - 1 on the left at an integer t.  The ratio is formed on the integer
    width pairs, so no interval point and no width Fraction is built."""
    _check_side(side)
    t = Fraction(t)
    j = t.numerator // t.denominator
    if side == LEFT and t == j:
        j -= 1
    return _width_ratio(j, power)


def zz_slope_chain(i, k):
    """The slope at the midpoint of cell i of the cell shift of cell i to
    the power k, by the chain rule through the shift by -i, the base cell
    shift to the power k and the shift back by i, with each outer shift one
    chart_shift_slope in chart coordinates, where the midpoint of cell i is
    i + 1/2.  The larger one-sided slope is returned.  The oracle for
    groupact.zz_slope_mid, which by the cell lemma drops the two outer
    ratios because their product is 1."""
    y = from_chart(HALF)
    base = base_cell_shift(k)
    s = to_chart(base.apply(y))
    outer = (chart_shift_slope(Fraction(2 * i + 1, 2), -i, RIGHT)
             * chart_shift_slope(s, i, RIGHT))
    return outer * max(base.one_sided_slope(y, LEFT),
                       base.one_sided_slope(y, RIGHT))


class ZZWitnessEntry(Record):
    """One cell's zz witness entry, as the report lists it."""

    __slots__ = ("index", "power", "slope", "rejected_slope")


def witness_entries(w):
    """A zz witness expanded cell by cell: the one entry of the cell lemma,
    stated for each cell of the truncation."""
    return tuple(ZZWitnessEntry(i, w.power, w.slope, w.rejected_slope)
                 for i in w.cells)


def witness_support(w):
    """The table of a zz witness's product: each cell to the one power."""
    return {i: w.power for i in w.cells}


def zz_entry_chain(i, cap):
    """The zz witness entry of cell i from its own least-power search over
    zz_slope_chain; the oracle for the one search zz_witness runs on cell 0."""
    rejected = None
    for n in range(1, cap + 1):
        slope = zz_slope_chain(i, n)
        if slope < HALF:
            return ZZWitnessEntry(i, n, slope, rejected)
        rejected = slope
    raise SearchExhausted("no power up to %d brings the midpoint slope of "
                          "cell %d below 1/2" % (cap, i))


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


def row_lines_oracle(rows, names):
    """cli.row_lines as one item per row: each row of a DeckRows through
    ROW_TEMPLATE, with m added to its m and to both sheets at step m."""
    quoted = {name: json.dumps(name) for name in names}
    period = [("null" if r.bracket_route is None else '"%s"' % r.bracket_route,
               r.dominator.sheet, coordinate(r.dominator.base),
               quoted[r.generator], r.m,
               r.moved.sheet, coordinate(r.moved.base),
               ordering_name(r.ordering), r.sign) for r in rows.period]
    carries = rows.carries_routes
    for m in range(rows.depth + 1):
        for route, dsheet, dt, name, row_m, msheet, mt, ordering, sign in period:
            yield ROW_TEMPLATE % (route if m == 0 or carries else "null",
                                  dsheet + m, dt, name, row_m + m,
                                  msheet + m, mt, ordering, sign)


def certify_domination_oracle(act, h, seq, depth):
    """obstruction.certify_domination as a loop over every row: each word is
    evaluated at every step, and the rows are a tuple.  The certificate must
    agree with it wherever it derives the rows from step 0.

    Comparison table certifying h strictly dominates every generator and
    inverse along the advancing sequence, plus the structural extension when
    the bracket route applies."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not is_commutator_class_trivial(h):
        raise NotCommutatorClass(
            "dominating word has nonzero exponent sum: %r" % (h,))
    base, advancing = seq
    base = act.check_point(base)
    adv_img = word_eval(act, advancing, base)
    if adv_img == base:
        raise DegenerateSequence("advancing word fixes the base point")

    structural = False
    interleaving = None
    brackets = {}
    if act.domain == COVER_LINE:
        h_img = word_eval(act, h, base)
        deck_step = (adv_img == base.deck(1))
        deck_jump = (h_img.base == base.base and h_img.sheet > base.sheet)
        if deck_step and deck_jump:
            try:
                interleaving = certify_interleaving(act, base)
            except BracketOutsideWindow:
                interleaving = None
            if interleaving is not None:
                structural = True
                brackets = {name: bracket
                            for name, bracket, _ in interleaving.entries}

    rows = []
    valid = True
    for m, p_m in enumerate(orbit_sequence(act, advancing, base, depth)):
        dominator = word_eval(act, h, p_m)
        for idx, name in enumerate(act.names):
            for sign in (1, -1):
                moved = act.bound_map(idx, sign).apply(p_m)
                ordering = _cmp_points(act.domain, moved, dominator)
                if ordering != LESS:
                    valid = False
                route = None
                if structural:
                    route_ordering = cover_cmp(moved, brackets[name].hi.deck(m))
                    route = ordering_name(route_ordering)
                    if route_ordering != LESS:
                        # the two routes must agree; a miss voids the extension
                        structural = False
                rows.append(DominationRow(m, name, sign, moved, dominator,
                                          ordering, route))

    structural = structural and valid
    flags = []
    if depth == 0:
        flags.append("ShallowDepth")
    if structural:
        flags.append("StructurallyExtended")
    return DominationCertificate(
        h, act.names, base, advancing, depth, tuple(rows), valid, tuple(flags),
        structural, interleaving, dict(act.meta))


def entry_obj(entry):
    """A zz witness entry as the report lists it under certificate.entries;
    the oracle that cli.ENTRY_TEMPLATE must agree with."""
    return {"index": entry.index,
            "power": entry.power,
            "midpoint": fmt_rat(cell_midpoint_oracle(entry.index)),
            "slope": fmt_rat(entry.slope),
            "rejected_slope": (None if entry.rejected_slope is None
                               else fmt_rat(entry.rejected_slope))}


def refine_oracle(a, b, c, lo, hi, s_lo, max_width):
    """projline._refine as a loop of Fractions: each midpoint is a Fraction,
    and the quadratic is evaluated there."""
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        v = (a * mid + b) * mid + c
        if v == 0:
            w = min((mid - lo) / 2, (hi - mid) / 2, max_width / 2)
            return (mid - w, mid + w)
        if (v > 0) == (s_lo > 0):
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def bracket_roots_oracle(coeffs, max_width):
    """projline.bracket_roots on Fractions throughout: the linear root, the
    discriminant and the vertex from the Fraction coefficients, and each
    simple root's bracket from refine_oracle."""
    a, b, c = (Fraction(v) for v in coeffs)
    if a == 0:
        w = max_width / 2
        return [] if b == 0 else [(-c / b - w, -c / b + w)]
    disc = b * b - 4 * a * c
    vertex = -b / (2 * a)
    if disc <= 0:
        return [] if disc < 0 else [(vertex, vertex)]
    bound = Fraction(1 + max(map(abs, _clear_to_int((a, b, c)))))
    s_out = 1 if a > 0 else -1
    return [refine_oracle(a, b, c, -bound, vertex, s_out, max_width),
            refine_oracle(a, b, c, vertex, bound, -s_out, max_width)]


def support_obj(w):
    """A zz witness's support map as the report writes it under
    certificate.support, read back from cli.support_lines."""
    return json.loads("{%s}" % "".join(support_lines(w.cells, w.power)))


def compactified_lift_chain(f, n, m):
    """A CompactifiedLift's image of n/m, m > 0, as the chain of integer
    steps uncompactify_triple, LiftedMap.apply_triple (MoebiusMap.apply_pair
    and traversal_cmp_pair) and compactify_triple; the oracle that the one
    frame of CompactifiedLift.apply_pair must agree with, tuple for tuple."""
    if n == 0 or n == m:
        return n, m
    return compactify_triple(*f.lift.apply_triple(*uncompactify_triple(n, m)))


def word_eval_objects(act, w, x):
    """groupact.word_eval with one call of the bound map's apply per letter,
    on whatever point objects the action moves; the oracle for the integer
    pairs that an interval action's orbit moves through."""
    y = act.check_point(x)
    for idx, exp in reversed(w.letters):
        if idx >= len(act.maps):
            raise WordSyntaxError("word uses generator %d, action has %d"
                                  % (idx, len(act.maps)))
        y = act.bound_map(idx, exp).apply(y)
    return act.check_point(y)


def window_from_values(index, point, hull, enlarged, unit):
    """A renorm.Window from values, any that Fraction accepts: they are put
    over their least common denominator, whose numerators the window takes
    with `over`."""
    fields = [Fraction(x) for x in (point, hull[0], hull[1], enlarged[0],
                                    enlarged[1], unit)]
    m = lcm(*(x.denominator for x in fields))
    pn, h0, h1, e0, e1, un = (x.numerator * (m // x.denominator)
                              for x in fields)
    return Window(index, pn, (h0, h1), (e0, e1), un, over=m)


def window_values(w):
    """A renorm.Window's values as Fractions, (index, point, hull,
    enlarged, length, unit), read off its integer hull and frame: the tuple
    window_oracle gives, and the values window_from_values takes back.  The
    one place the tests read a window's values."""
    m, pn, e0, e1, un = w.frame
    h0, h1 = w.hull
    return (w.index, Fraction(pn, m), (Fraction(h0, m), Fraction(h1, m)),
            (Fraction(e0, m), Fraction(e1, m)), Fraction(h1 - h0, m),
            Fraction(un, m))


def window_oracle(index, point, hull, enlarged, unit):
    """renorm.Window's checks on Fraction comparisons and its length by
    Fraction subtraction: the fields (index, point, hull, enlarged, length,
    unit), or the BadInterval the window raises; the oracle for the integer
    frame that the library checks on."""
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
    return int(index), point, hull, enlarged, hull[1] - hull[0], unit


def build_windows_oracle(act, p_seq):
    """renorm.build_windows with the shifts g(p) - p, the unit, the hull and
    the clamped enlargement taken as Fractions through each map's apply; the
    oracle for the integer numerators over one denominator that the library
    hulls on."""
    if act.domain != UNIT_INTERVAL:
        raise Unsupported("windows need an interval action")
    windows = []
    for index, p in enumerate(p_seq):
        p = act.check_point(p)
        shifts = [g.apply(p) - p for g in act.maps]
        unit = max(abs(s) for s in shifts)
        if unit == 0:
            raise EmptyDisplacement(
                "every generator fixes the marked point %s" % (p,))
        lo, hi = min(shifts + [0]), max(shifts + [0])
        enlarged = (max(Fraction(0), p + WINDOW_ENLARGEMENT * lo),
                    min(Fraction(1), p + WINDOW_ENLARGEMENT * hi))
        windows.append(window_from_values(index, p, (p + lo, p + hi),
                                          enlarged, unit))
    return tuple(windows)


def sandwich_apply(window, m, x):
    """A generator rescaled to a window by the affine sandwich
    x -> (m(p + u x) - p)/u, with p the base point and u the unit; the
    oracle that RescaledSystem.apply must agree with."""
    _, p, _, _, _, u = window_values(window)
    return (m.apply(p + u * x) - p) / u


def window_grid(lo, hi, grid):
    """The points lo + (hi - lo) k/grid, k = 0..grid, each one a Fraction."""
    span = hi - lo
    return [lo + span * Fraction(k, grid) for k in range(grid + 1)]


def integer_grid(lo, hi, grid):
    """The points lo + (hi - lo) k/grid, k = 0..grid, as integer numerators
    over grid times the least common denominator of lo and hi:
    (numerators, denominator).  The oracle for the grids renorm samples,
    which renorm._grid_over builds from the ends' numerators over any
    common denominator."""
    lo, hi = Fraction(lo), Fraction(hi)
    m = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (m // lo.denominator)
    b = hi.numerator * (m // hi.denominator)
    return [a * grid + (b - a) * k for k in range(grid + 1)], m * grid


def rescaled_domain(rs):
    """The rescaled enlarged window of rs, ((e0 - pn)/un, (e1 - pn)/un) on
    its window's frame, as two Fractions."""
    m, pn, e0, e1, un = rs.window.frame
    return Fraction(e0 - pn, un), Fraction(e1 - pn, un)


def generator_deviation_oracle(rs, name, radius):
    """renorm.generator_deviation with every value taken through
    RescaledSystem.apply in rescaled coordinates; the oracle for the window
    coordinates the library evaluates in."""
    shift = rs.apply(name, 0)
    radius = Fraction(radius)
    lo, hi = rescaled_domain(rs)
    lo, hi = max(lo, -radius), min(hi, radius)
    if lo > hi:
        raise EmptyGridDomain(
            "window does not meet the requested radius %s" % (radius,))
    best = Fraction(0)
    for x in window_grid(lo, hi, rs.grid):
        dev = abs(rs.apply(name, x) - x - shift)
        if dev > best:
            best = dev
    return best


def fixed_point_oracle(rs):
    """renorm.fixed_point_in_window with every value taken through
    RescaledSystem.apply in rescaled coordinates; the oracle for the window
    coordinates the library evaluates in."""
    pts = window_grid(*rescaled_domain(rs), rs.grid)
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


def window_deviation_oracle(rs, name, radius):
    """renorm.generator_deviation with one Fraction per window point and
    per value; the oracle for the integer pairs the library compares."""
    g = rs.act.maps[rs.names.index(name)]
    _, p, _, (lo, hi), _, u = window_values(rs.window)
    shift = g.apply(p) - p
    radius = Fraction(radius)
    lo, hi = max(lo, p - u * radius), min(hi, p + u * radius)
    if lo > hi:
        raise EmptyGridDomain(
            "window does not meet the requested radius %s" % (radius,))
    return max(abs(g.apply(x) - x - shift)
               for x in window_grid(lo, hi, rs.grid)) / u


def displacements(g, nums, den):
    """g(x) - x at each grid point x = n/den, as an unreduced integer pair
    (v, q) with q > 0, through g's pair form."""
    pair = pair_form(g)
    out = []
    for n in nums:
        p, q = pair(n, den)
        out.append((p * den - n * q, q * den))
    return out


def translation_deviation(rs, radius):
    """How far the rescaled system is from a system of translations: the
    germ's 4/i deviation rate of the renorm dichotomy (acceptance c6a)."""
    return max(generator_deviation(rs, name, radius) for name in rs.names)


def hull_displacement(rs, w):
    """How far the word moves the base point, in units of the hull length:
    the torus side of the renorm dichotomy (acceptance c6b)."""
    _, p, _, _, length, _ = window_values(rs.window)
    return abs(word_eval(rs.act, w, p) - p) / length


def bisect_displacement_oracle(g, a, va, b):
    """Halve [a, b], across which g(x) - x changes sign from the sign of va
    at a, BISECTION_STEPS times on Fraction midpoints; degenerate at an
    exact zero.  The oracle for renorm._bisect_displacement, which bisects
    on grid numerators."""
    for _ in range(BISECTION_STEPS):
        mid = (a + b) / 2
        v = g.apply(mid) - mid
        if v == 0:
            return (mid, mid)
        if (v > 0) == (va > 0):
            a, va = mid, v
        else:
            b = mid
    return (a, b)


def window_fixed_point_oracle(rs):
    """renorm.fixed_point_in_window with one Fraction per window point and
    per value; the oracle for the integer pairs whose signs the library
    scans."""
    _, p, _, enlarged, _, u = window_values(rs.window)
    pts = window_grid(*enlarged, rs.grid)
    out = {}
    for name, g in zip(rs.names, rs.act.maps):
        vals = [g.apply(x) - x for x in pts]
        if all(v == 0 for v in vals):
            raise Degenerate("generator %s is the identity on the window" % name)
        bracket = None
        for k, v in enumerate(vals):
            if v == 0:
                bracket = (pts[k], pts[k])
                break
            if k and (vals[k - 1] > 0) != (v > 0):
                bracket = bisect_displacement_oracle(
                    g, pts[k - 1], vals[k - 1], pts[k])
                break
        out[name] = None if bracket is None else tuple((x - p) / u for x in bracket)
    return out


@contextlib.contextmanager
def counting_calls(method, *classes):
    """Count the calls of the named method of each class inside the block,
    keyed by class name; a module in place of a class counts its module
    function of that name."""
    counts = Counter()
    with contextlib.ExitStack() as stack:
        for cls in classes:
            def counted(self, *args, _cls=cls, _method=getattr(cls, method),
                        **kwargs):
                counts[_cls.__name__] += 1
                return _method(self, *args, **kwargs)
            stack.enter_context(mock.patch.object(cls, method, counted))
        yield counts
