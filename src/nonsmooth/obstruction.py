"""Certificates that an action cannot be conjugated into the C1 world.

Two routes are certified with exact arithmetic: commutator domination over a
point sequence (with a structural extension to all indices via interleaved
fixed-point brackets and deck periodicity), and the derivative witness for the
abelian product action (slopes below one half at midpoints accumulating on a
fixed-point sequence).
"""

from fractions import Fraction

from .cover import COVER_BASEPOINT, cover_cmp, fixed_point_lift
from .errors import (
    BracketOutsideWindow,
    DegenerateSequence,
    NotCommutatorClass,
    NotFixed,
    SearchExhausted,
    Unsupported,
)
from .groupact import (
    COVER_LINE,
    UNIT_INTERVAL,
    ZZAction,
    orbit_sequence,
    word_eval,
    zz_slope_mid,
)
from .plmaps import RIGHT, anchor, as_expr, germ_slope
from .projline import LESS, ordering_name
from .record import Record

HALF = Fraction(1, 2)


def _cmp_points(domain, x, y):
    if domain == COVER_LINE:
        return cover_cmp(x, y)
    return (x > y) - (x < y)


class OrderResult(Record):
    """Outcome of comparing two words at a point: where each image landed."""

    __slots__ = ("ordering", "image1", "image2")

    @property
    def name(self):
        return ordering_name(self.ordering)

    def __repr__(self):
        return "OrderResult(%s)" % self.name


def order_cmp(act, w1, w2, p):
    """Compare two words by where they send p; Equal marks a stabilizer coset."""
    image1 = word_eval(act, w1, p)
    image2 = word_eval(act, w2, p)
    return OrderResult(_cmp_points(act.domain, image1, image2), image1, image2)


def is_commutator_class_trivial(w):
    return all(w.exponent_sum(i) == 0 for i in range(w.max_index() + 1))


class DominationRow(Record):
    __slots__ = ("m", "generator", "sign", "moved", "dominator", "ordering",
                 "bracket_route")


class InterleavingCertificate(Record):
    """Per-generator fixed-point brackets placed inside one deck window."""

    __slots__ = ("window", "entries")


class DominationCertificate(Record):
    __slots__ = ("h", "generators", "base", "advancing", "depth", "rows",
                 "valid", "flags", "structural", "interleaving", "normalization")


def certify_interleaving(act, window_base=None):
    """Bracket a fixed point of every generator strictly inside the window
    (base, base+1); deck periodicity then repeats the picture on every sheet.
    """
    if act.domain != COVER_LINE:
        raise Unsupported("interleaving certificates need a cover-line action")
    base = COVER_BASEPOINT if window_base is None else window_base
    window = (base, base.deck(1))
    entries = []
    for name, bound in zip(act.names, act.maps):
        fixed, cert = fixed_point_lift(bound.moebius)
        if fixed != bound:
            raise BracketOutsideWindow(
                "generator %s is a deck shift of its fixed-point lift" % name)
        placed = None
        # prefer the smallest deck shift so unshifted brackets win
        for k in sorted(range(-3, 4), key=abs):
            for bracket in cert.brackets:
                moved = bracket.deck(k)
                if (cover_cmp(window[0], moved.lo) == LESS
                        and cover_cmp(moved.hi, window[1]) == LESS):
                    placed = (moved, k)
                    break
            if placed:
                break
        if placed is None:
            raise BracketOutsideWindow(
                "no fixed-point bracket of %s fits inside the window" % name)
        moved, k = placed
        if not moved.degenerate:
            # exact sign re-verification under the bound lift
            if cover_cmp(bound.apply(moved.lo), moved.lo) != moved.sign_lo:
                raise BracketOutsideWindow("stale bracket sign for %s" % name)
            if cover_cmp(bound.apply(moved.hi), moved.hi) != moved.sign_hi:
                raise BracketOutsideWindow("stale bracket sign for %s" % name)
        entries.append((name, moved, k))
    return InterleavingCertificate(window, tuple(entries))


def certify_domination(act, h, seq, depth):
    """Comparison table certifying h strictly dominates every generator and
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
                interleaving = certify_interleaving(act, window_base=base)
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


class ZZWitnessEntry(Record):
    __slots__ = ("index", "power", "slope", "rejected_slope")


class ZZWitness(Record):
    __slots__ = ("truncation", "cap", "entries", "support", "anchors_checked",
                 "anchors_fixed")

    @property
    def valid(self):
        return (self.anchors_fixed
                and all(e.slope < HALF for e in self.entries))


def _least_power(i, cap):
    """Least power n <= cap whose slope at the midpoint of cell i is below
    one half, as (n, slope, slope at n - 1 or None when n == 1)."""
    rejected = None
    for n in range(1, cap + 1):
        slope = zz_slope_mid(ZZAction({i: n}), i)
        if slope < HALF:
            return n, slope, rejected
        rejected = slope
    raise SearchExhausted(
        "no power up to %d brings the midpoint slope of cell %d below 1/2"
        % (cap, i))


def zz_witness(truncation, cap=64):
    """Find for each cell the least power whose midpoint slope drops below
    one half, then verify the assembled product fixes all nearby anchors.

    The search runs once, on cell 0: conjugating by the chart shift carries
    cell 0's slope chain to every cell.  Each other cell is re-verified
    exactly through its own chain, at that power and at the power before it;
    a cell whose two slopes differ from cell 0's gets its own search.
    """
    if truncation < 0:
        raise ValueError("truncation radius must be nonnegative")
    if cap < 1:
        raise ValueError("search cap must be positive")
    shared = _least_power(0, cap)
    power = shared[0]
    entries = []
    support = {}
    for i in range(-truncation, truncation + 1):
        found = shared
        if i != 0:
            found = (power, zz_slope_mid(ZZAction({i: power}), i),
                     zz_slope_mid(ZZAction({i: power - 1}), i) if power > 1 else None)
            if found != shared:
                found = _least_power(i, cap)
        support[i] = found[0]
        entries.append(ZZWitnessEntry(i, *found))
    product = ZZAction(support)
    lo, hi = -truncation - 2, truncation + 2
    anchors_fixed = all(product.apply(anchor(j)) == anchor(j)
                        for j in range(lo, hi + 1))
    return ZZWitness(truncation, cap, tuple(entries), support, (lo, hi),
                     anchors_fixed)
