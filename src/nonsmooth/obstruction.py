"""Certificates that an action cannot be conjugated into the C1 world.

Two routes are certified with exact arithmetic: commutator domination over a
point sequence (with a structural extension to all indices via interleaved
fixed-point brackets and deck periodicity), and the derivative witness for the
abelian product action (slopes below one half at midpoints accumulating on a
fixed-point sequence).
"""

from fractions import Fraction

from .cover import cover_cmp, fixed_point_lift
from .errors import (
    BracketOutsideWindow,
    DegenerateSequence,
    NotCommutatorClass,
    SearchExhausted,
    Unsupported,
)
from .groupact import COVER_LINE, word_eval, zz_slope_mid
from .plmaps import ZZAction, anchor_pair
from .projline import LESS, ordering_name
from .record import Record

HALF = Fraction(1, 2)
# Largest power the zz witness tries before it gives up.
ZZ_SEARCH_CAP = 64


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


def order_cmp(act, w1, w2, p):
    """Compare two words by where they send p; Equal marks a stabilizer coset."""
    image1 = word_eval(act, w1, p)
    image2 = word_eval(act, w2, p)
    return OrderResult(_cmp_points(act.domain, image1, image2), image1, image2)


def is_commutator_class_trivial(w):
    return all(w.exponent_sum(i) == 0 for i in {i for i, _ in w.letters})


class DominationRow(Record):
    __slots__ = ("m", "generator", "sign", "moved", "dominator", "ordering",
                 "bracket_route")


class InterleavingCertificate(Record):
    """Per-generator fixed-point brackets placed inside one deck window."""

    __slots__ = ("window", "entries")


class DeckRows(Record):
    """The rows of a domination table whose advancing word moves the base
    one sheet up, as step 0 (``period``) and the last step ``depth``: row j
    of step m is row j of step 0 with its moved and dominating points moved
    up m sheets.  cli.row_lines renders it one deck step at a time, each
    step from one block template filled in once per report, so the table
    is never held whole.
    """

    __slots__ = ("period", "depth")

    @property
    def carries_routes(self):
        """Whether steps m >= 1 repeat step 0's bracket routes.  The table
        stops routing at its first miss, so they repeat only when every
        step-0 route is Less; otherwise every later route is None."""
        return all(r.bracket_route == ordering_name(LESS) for r in self.period)


class DominationCertificate(Record):
    __slots__ = ("h", "generators", "base", "advancing", "depth", "rows",
                 "valid", "flags", "structural", "interleaving", "normalization")


def certify_interleaving(act, base):
    """Bracket a fixed point of every generator strictly inside the window
    (base, base+1); deck periodicity then repeats the picture on every sheet.
    """
    if act.domain != COVER_LINE:
        raise Unsupported("interleaving certificates need a cover-line action")
    window = (base, base.deck(1))
    entries = []
    for name, bound in zip(act.names, act.maps):
        fixed, brackets = fixed_point_lift(bound.moebius)
        if fixed != bound:
            raise BracketOutsideWindow(
                "generator %s is a deck shift of its fixed-point lift" % name)
        placed = None
        # prefer the smallest deck shift so unshifted brackets win
        for k in sorted(range(-3, 4), key=abs):
            for bracket in brackets:
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
    the bracket route applies.

    The action must be on the cover line and the advancing word must move
    the base one sheet up; only step 0 is evaluated, and the rows are a
    DeckRows."""
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
    if act.domain != COVER_LINE or adv_img != base.deck(1):
        raise Unsupported("domination tables need a cover-line action whose "
                          "advancing word moves the base one sheet up")

    # The lifts commute with the deck map (LiftedMap.apply adds x.sheet to
    # the image's sheet), so a one-sheet advancing step gives
    # p_m = base.deck(m), and every point of step m is its step-0 point
    # moved up m sheets.  cover_cmp compares sheets first and then the
    # bases, so cover_cmp(x.deck(m), y.deck(m)) == cover_cmp(x, y): each
    # ordering and bracket route of step m is that of step 0, and step 0
    # alone decides `valid` and the structural route.
    dominator = word_eval(act, h, base)
    interleaving = None
    if dominator.base == base.base and dominator.sheet > base.sheet:
        try:
            interleaving = certify_interleaving(act, base)
        except BracketOutsideWindow:
            pass
    structural = interleaving is not None
    brackets = ({name: bracket for name, bracket, _ in interleaving.entries}
                if structural else {})

    period = []
    valid = True
    for idx, name in enumerate(act.names):
        for sign in (1, -1):
            moved = act.bound_map(idx, sign).apply(base)
            ordering = cover_cmp(moved, dominator)
            if ordering != LESS:
                valid = False
            route = None
            if structural:
                route_ordering = cover_cmp(moved, brackets[name].hi)
                route = ordering_name(route_ordering)
                if route_ordering != LESS:
                    # the two routes must agree; a miss voids the extension
                    structural = False
            period.append(DominationRow(0, name, sign, moved, dominator,
                                        ordering, route))

    structural = structural and valid
    flags = []
    if depth == 0:
        flags.append("ShallowDepth")
    if structural:
        flags.append("StructurallyExtended")
    return DominationCertificate(
        h, act.names, base, advancing, depth, DeckRows(tuple(period), depth),
        valid, tuple(flags), structural, interleaving, dict(act.meta))


class ZZWitness(Record):
    """The cell lemma's one entry for every cell, and the anchor check."""

    __slots__ = ("truncation", "cap", "power", "slope", "rejected_slope",
                 "anchors_checked", "anchors_fixed")

    @property
    def cells(self):
        return range(-self.truncation, self.truncation + 1)

    @property
    def valid(self):
        return self.anchors_fixed and self.slope < HALF


def zz_witness(truncation):
    """Find the least power whose midpoint slope drops below one half, give
    it to every cell of the truncation, then verify that the assembled
    product fixes all nearby anchors.

    The search runs once, on cell 0, and the witness states cell 0's power,
    slope and rejected slope once, as every listed cell's.  This is exact,
    by the cell lemma: for every cell i and power k, the cell shift of cell
    i to the power k has at the midpoint of cell i the same two one-sided
    slopes as the base cell shift B_k to the power k at 7/12, the midpoint
    of cell 0.

    Proof.  Let T_p be the chart shift by p, t -> t + p in chart
    coordinates, and w(j) the width of cell j; the cell shift of cell i is
    T_i o B_k o T_-i.  The chart is affine on each cell, so T_-i maps cell
    i affinely onto cell 0, with slope w(0)/w(i), and sends the midpoint of
    cell i to 7/12.  Let s be the chart coordinate of B_k(7/12).  If
    0 < s < 1, B_k(7/12) is interior to cell 0, which T_i maps affinely
    onto cell i with slope w(i)/w(0).  Both outer maps thus have one slope
    at their point, the same on both sides, and by the chain rule each
    one-sided slope of the composite is w(0)/w(i) times that side's slope
    of B_k at 7/12 times w(i)/w(0).  The two outer ratios multiply to
    exactly 1.  The premise 0 < s < 1 holds because B_k maps cell 0 onto
    itself, fixing its ends, and 7/12 is interior; zz_slope_mid checks it
    once per probed power and raises when it fails, so no entry rests on it
    unchecked.

    Each of the 2T + 5 checked anchors returns from ZZAction.apply_pair at
    its first test, `k == 0 or at_anchor(i, n, m)`, before any cell shift
    is built: four lie off the table, the rest at their cells' left ends.
    """
    if truncation < 0:
        raise ValueError("truncation radius must be nonnegative")
    rejected = None
    for power in range(1, ZZ_SEARCH_CAP + 1):
        slope = zz_slope_mid(power)
        if slope < HALF:
            break
        rejected = slope
    else:
        raise SearchExhausted(
            "no power up to %d brings the midpoint slope below 1/2"
            % ZZ_SEARCH_CAP)
    product = ZZAction(dict.fromkeys(range(-truncation, truncation + 1), power))
    lo, hi = -truncation - 2, truncation + 2
    anchors_fixed = all(product.apply_pair(*c) == c
                        for c in map(anchor_pair, range(lo, hi + 1)))
    return ZZWitness(truncation, ZZ_SEARCH_CAP, power, slope, rejected,
                     (lo, hi), anchors_fixed)
