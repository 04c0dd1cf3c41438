"""Free-group words, marked actions, word evaluation, orbits, and the
constructors of the torus, compactified and cell-shift letter actions.

A MarkedAction binds generator letters to invertible maps over one of two
domains: the covered projective line (cover points) or the unit interval
(rationals).  Words act on the left, so the rightmost letter is applied first.
The maps live with their geometry, in cover and plmaps.
"""

from collections import deque
from fractions import Fraction
from math import gcd

from .cover import (
    COVER_BASEPOINT,
    CompactifiedLift,
    CoverPoint,
    TORUS_A,
    TORUS_B,
    fixed_point_lift,
)
from .errors import OutOfDomain, Unsupported, WordSyntaxError
from .plmaps import base_cell_shift, chart_shift, zz_base_link
from .record import Record, _rebuild

COVER_LINE = "cover-line"
UNIT_INTERVAL = "unit-interval"
DEFAULT_NAMES = ("a", "b")
# Longest product or power a word may expand to before free reduction; the
# expansion is materialized, so this bounds the memory one word can take.
MAX_WORD_LETTERS = 100_000


def _reduce(letters, out=None):
    """Append letters to out, a freely reduced list (a new one by default),
    cancelling each against the end of the list; return the list."""
    out = [] if out is None else out
    for idx, exp in letters:
        idx, exp = int(idx), int(exp)
        if exp not in (1, -1):
            raise WordSyntaxError("letter exponent must be +1 or -1, got %d" % exp)
        if idx < 0:
            raise WordSyntaxError("generator index must be nonnegative, got %d" % idx)
        if out and out[-1] == (idx, -exp):
            out.pop()
        else:
            out.append((idx, exp))
    return out


def _check_length(n):
    if n > MAX_WORD_LETTERS:
        raise WordSyntaxError("word would expand to %d letters, more than the "
                              "cap of %d" % (n, MAX_WORD_LETTERS))


class Word(Record):
    """Freely reduced word in abstract generators, as (index, exponent) letters."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        Record.__init__(self, tuple(_reduce(letters)))

    def __mul__(self, other):
        _check_length(len(self.letters) + len(other.letters))
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((i, -e) for i, e in reversed(self.letters)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        _check_length(len(self.letters) * n)
        return Word(self.letters * n)

    def exponent_sum(self, index):
        return sum(e for i, e in self.letters if i == index)

    def to_string(self, names=DEFAULT_NAMES):
        parts = []
        for i, e in self.letters:
            if i >= len(names):
                raise WordSyntaxError("no letter name for generator %d" % i)
            parts.append(names[i] if e > 0 else names[i].upper())
        return "".join(parts)


def _reduced_word(letters):
    # the Word of letters that _reduce has already freely reduced and checked
    return _rebuild(Word, (tuple(letters),))


def commutator(w1, w2):
    return w1 * w2 * w1.inverse() * w2.inverse()


def parse_word(text, names=DEFAULT_NAMES):
    """Parse a word: letters with capitals as inverses, ^n powers, [x,y]
    commutators, parentheses for grouping, whitespace ignored.

    One pass over the text with an explicit stack of open groups, so no
    depth of nesting is too deep to parse; MAX_WORD_LETTERS is the only
    bound.  An open sequence is its letters, freely reduced as they arrive
    (each flat letter once), the character that closes it, and, in the
    second half of a commutator, the first half.
    """
    index = {}
    for i, name in enumerate(names):
        if len(name) != 1 or not name.islower():
            raise WordSyntaxError("letter names must be single lowercase characters")
        index[name] = i
    n = len(text)
    pos = 0
    stack = []
    acc, close, first = deque(), None, None
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            if close is None:
                return _reduced_word(acc)
            raise WordSyntaxError("missing %r in %r" % (close, text))
        ch = text[pos]
        pos += 1
        if ch == close == ",":
            acc, close, first = deque(), "]", acc
            continue
        if ch == "(" or ch == "[":
            stack.append((acc, close, first))
            acc, close, first = deque(), ")" if ch == "(" else ",", None
            continue
        if ch == close:
            # a closed group: its letters, freely reduced and checked
            letters = acc if close == ")" else commutator(
                _reduced_word(first), _reduced_word(acc)).letters
            acc, close, first = stack.pop()
        elif ch.lower() in index:
            low = ch.lower()
            letters = ((index[low], 1 if ch == low else -1),)
        else:
            raise WordSyntaxError("unexpected character %r at position %d of %r"
                                  % (ch, pos - 1, text))
        while pos < n and text[pos].isspace():
            pos += 1
        if pos < n and text[pos] == "^":
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
            start = pos
            if pos < n and text[pos] in "+-":
                pos += 1
            digits = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            if pos == digits:
                raise WordSyntaxError("expected an integer at position %d of %r"
                                      % (start, text))
            # an exponent with more digits than the cap is never converted
            figures = text[digits:pos].lstrip("0") or "0"
            if len(figures) <= len(str(MAX_WORD_LETTERS)):
                letters = (_reduced_word(letters)
                           ** int(text[start:digits] + figures)).letters
            elif letters:  # an empty group's power stays empty
                raise WordSyntaxError("word would expand to at least 10^%d "
                                      "letters, more than the cap of %d"
                                      % (len(figures) - 1, MAX_WORD_LETTERS))
        _check_length(len(acc) + len(letters))
        if len(letters) > len(acc) and isinstance(letters, deque):
            # a group longer than the letters before it takes them at its
            # front, so each join costs its shorter side and a deep nest
            # does not re-reduce its inner letters once per level
            while acc and acc[-1] == (letters[0][0], -letters[0][1]):
                acc.pop()
                letters.popleft()
            letters.extendleft(reversed(acc))
            acc = letters
        else:
            _reduce(letters, acc)


class MarkedAction(Record):
    """Generator letters bound to invertible maps over a tagged domain."""

    __slots__ = ("names", "maps", "inverses", "domain", "meta")

    def __init__(self, names, maps, domain, meta=None):
        names, maps = tuple(names), tuple(maps)
        if not names or len(names) != len(maps):
            raise Unsupported("need one bound map per generator name")
        if domain not in (COVER_LINE, UNIT_INTERVAL):
            raise Unsupported("unknown domain tag %r" % (domain,))
        Record.__init__(self, names, maps, tuple(m.inverse() for m in maps),
                        domain, dict(meta or {}))

    def check_point(self, x):
        if self.domain == COVER_LINE:
            if not isinstance(x, CoverPoint):
                raise OutOfDomain("this action moves cover points, got %r" % (x,))
            return x
        if isinstance(x, CoverPoint):
            raise OutOfDomain("this action moves rationals in [0,1], got %r" % (x,))
        if not isinstance(x, Fraction):
            x = Fraction(x)
        n, d = x.as_integer_ratio()
        if not 0 <= n <= d:
            raise OutOfDomain("a point %s is outside [0,1]" % ("below 0" if n < 0 else "above 1"))
        return x

    def bound_map(self, index, exp):
        return self.maps[index] if exp > 0 else self.inverses[index]

    def parse(self, text):
        return parse_word(text, self.names)


def own_pair_form(g):
    """g's own map of integer pairs, its `apply_pair`: n/m, m > 0, to an
    unreduced (num, den) with den > 0; None when g has none."""
    return getattr(g, "apply_pair", None)


def pair_form(g):
    """g as a map of integer pairs: its own pair form, evaluated on the
    integers, or else g.apply through Fraction."""
    pair = own_pair_form(g)
    if pair is None:
        def pair(n, m):
            return g.apply(Fraction(n, m)).as_integer_ratio()
    return pair


def word_eval(act, w, x):
    """Image of x under the word, rightmost letter first; exact.

    On the unit interval a letter whose map has its own pair form moves the
    point as an integer pair, reduced by one gcd, so no step is larger than
    the reduced point; any other letter applies to a Fraction, with no
    round trip through a pair.  The point changes form only where the kind
    of letter changes."""
    y = act.check_point(x)
    interval = act.domain == UNIT_INTERVAL
    pair = None  # the point, while pair forms move it
    for idx, exp in reversed(w.letters):
        if idx >= len(act.maps):
            raise WordSyntaxError("word uses generator %d, action has %d" % (idx, len(act.maps)))
        g = act.bound_map(idx, exp)
        form = own_pair_form(g) if interval else None
        if form is None:
            if pair is not None:
                y, pair = Fraction(*pair), None
            y = g.apply(y)
        else:
            n, m = form(*(y.as_integer_ratio() if pair is None else pair))
            k = gcd(n, m)
            pair = n // k, m // k
    return act.check_point(y if pair is None else Fraction(*pair))


def orbit_sequence(act, w, x0, n):
    """Yield x0, w(x0), ..., w^n(x0), each point as soon as it is computed,
    so a caller that stops or fails early pays for no later point."""
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    x = act.check_point(x0)
    yield x
    for _ in range(n):
        x = word_eval(act, w, x)
        yield x


def punctured_torus_action():
    """The two-generator action on the covered line by fixed-point lifts.

    The commutator of the lifts of TORUS_A and TORUS_B moves the basepoint
    up one sheet, so the generators keep their order; the metadata records
    that identity normalization."""
    a, _ = fixed_point_lift(TORUS_A)
    b, _ = fixed_point_lift(TORUS_B)
    k = a.compose(b).compose(a.inverse()).compose(b.inverse())
    moved = k.apply(COVER_BASEPOINT)
    if moved != COVER_BASEPOINT.deck(1):
        raise Unsupported("commutator displacement is not one sheet: %r" % (moved,))
    return MarkedAction(("a", "b"), (a, b), COVER_LINE,
                        meta={"orientation_normalization": "identity"})


def compactified_action(act):
    if act.domain != COVER_LINE:
        raise Unsupported("only cover-line actions can be compactified")
    meta = dict(act.meta)
    meta["coordinates"] = "compactified"
    return MarkedAction(act.names, tuple(CompactifiedLift(m) for m in act.maps),
                        UNIT_INTERVAL, meta=meta)


def zz_slope_mid(k):
    """Slope at the midpoint of every cell i of the cell shift of cell i to
    the power k: by the cell lemma (obstruction.zz_witness) it is the slope
    of the base cell shift to the power k at 7/12, the midpoint of cell 0.
    The midpoint is a breakpoint, so the two one-sided slopes differ; the
    larger one is returned (the derivative exists iff they agree).  At
    k = 0 the slope is exactly 1.

    The lemma's one premise is checked here, for the power k: the image of
    7/12 has chart coordinate s with 0 < s < 1.  The check raises, so it
    also holds under python -O.
    """
    s, left, right = zz_base_link(k)
    if not 0 < s < 1:
        raise AssertionError(
            "the base cell shift to the power %d sends 7/12 to chart "
            "coordinate %s, outside (0, 1)" % (k, s))
    return max(left, right)


def zz_letter_action():
    """Letters for the abelian example: a is the chart shift, b the base cell shift."""
    return MarkedAction(("a", "b"), (chart_shift(), base_cell_shift()), UNIT_INTERVAL)
