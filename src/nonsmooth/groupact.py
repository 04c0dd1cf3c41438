"""Free-group words, marked actions, orbits, and the abelian product action.

A MarkedAction binds generator letters to invertible maps over one of two
domains: the covered projective line (cover points) or the unit interval
(rationals).  Words act on the left, so the rightmost letter is applied first.
"""

from collections import deque
from fractions import Fraction

from .cover import (
    COVER_BASEPOINT,
    CoverPoint,
    TORUS_A,
    TORUS_B,
    compactify,
    fixed_point_lift,
    uncompactify,
)
from .errors import OutOfDomain, Unsupported, WordSyntaxError
from .plmaps import (
    LEFT,
    RIGHT,
    anchor,
    base_cell_shift,
    cell_shift,
    chart_index,
    chart_shift,
    chart_shift_slope,
    from_chart,
    to_chart,
)
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

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def generator(cls, index, exp=1):
        return cls(((index, exp),))

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

    def __len__(self):
        return len(self.letters)

    def exponent_sum(self, index):
        return sum(e for i, e in self.letters if i == index)

    def max_index(self):
        return max((i for i, _ in self.letters), default=-1)

    def to_string(self, names=DEFAULT_NAMES):
        parts = []
        for i, e in self.letters:
            if i >= len(names):
                raise WordSyntaxError("no letter name for generator %d" % i)
            parts.append(names[i] if e > 0 else names[i].upper())
        return "".join(parts)

    def __repr__(self):
        return "Word(%r)" % (list(self.letters),)


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
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == digits:
                raise WordSyntaxError("expected an integer at position %d of %r"
                                      % (start, text))
            letters = (_reduced_word(letters) ** int(text[start:pos])).letters
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
        return Fraction(x)

    def bound_map(self, index, exp=1):
        return self.maps[index] if exp > 0 else self.inverses[index]

    def parse(self, text):
        return parse_word(text, self.names)


def word_eval(act, w, x):
    """Image of x under the word, rightmost letter first; exact."""
    y = act.check_point(x)
    for idx, exp in reversed(w.letters):
        if idx >= len(act.maps):
            raise WordSyntaxError("word uses generator %d, action has %d" % (idx, len(act.maps)))
        y = act.bound_map(idx, exp).apply(y)
    return y


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


class CompactifiedLift(Record):
    """A lift of the covered line viewed inside (0,1), endpoints fixed."""

    __slots__ = ("lift",)

    def apply(self, x):
        x = Fraction(x)
        if x == 0 or x == 1:
            return x
        return compactify(self.lift.apply(uncompactify(x)))

    def inverse(self):
        return CompactifiedLift(self.lift.inverse())

    def __repr__(self):
        return "CompactifiedLift(%r)" % (self.lift,)


def punctured_torus_action():
    """The two-generator action on the covered line by fixed-point lifts.

    Generators are normalized so the commutator moves the basepoint up one
    sheet; the applied normalization is recorded in the action metadata.
    """
    a, _ = fixed_point_lift(TORUS_A)
    b, _ = fixed_point_lift(TORUS_B)
    k = a.compose(b).compose(a.inverse()).compose(b.inverse())
    moved = k.apply(COVER_BASEPOINT)
    if moved == COVER_BASEPOINT.deck(1):
        names, maps, note = ("a", "b"), (a, b), "identity"
    elif moved == COVER_BASEPOINT.deck(-1):
        # swapping the generators inverts the commutator
        names, maps, note = ("a", "b"), (b, a), "swapped-generators"
    else:
        raise Unsupported("commutator displacement is not one sheet: %r" % (moved,))
    return MarkedAction(names, maps, COVER_LINE,
                        meta={"orientation_normalization": note})


def compactified_action(act):
    if act.domain != COVER_LINE:
        raise Unsupported("only cover-line actions can be compactified")
    meta = dict(act.meta)
    meta["coordinates"] = "compactified"
    return MarkedAction(act.names, tuple(CompactifiedLift(m) for m in act.maps),
                        UNIT_INTERVAL, meta=meta)


class ZZAction(Record):
    """Product of cell translations, one per table entry: identity off the
    listed cells, the k-th power of the cell shift on cell i when table[i]=k."""

    __slots__ = ("table",)

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
        if x == 0 or x == 1:
            return x
        i = chart_index(x)
        k = self.table.get(i, 0)
        if k == 0 or x == anchor(i):
            return x
        return cell_shift(i, k).apply(x)

    def inverse(self):
        return ZZAction({i: -k for i, k in self.table.items()})

    def compose(self, other):
        merged = dict(self.table)
        for i, k in other.table.items():
            merged[i] = merged.get(i, 0) + k
        return ZZAction(merged)

    def __repr__(self):
        return "ZZAction(%r)" % (self.table,)


def zz_slope_mid(z, i):
    """Slope of the product action at the midpoint of cell i: the chain rule
    through the shift by -i, the base cell shift power, and the shift back by
    i.  The midpoint is a breakpoint, so the two one-sided slopes differ; the
    larger one is returned (the derivative exists iff they agree).

    The two outer shifts are walked in chart coordinates, where the midpoint
    of cell i is t = i + 1/2 and the shift by p is t -> t + p: each costs one
    closed-form width ratio (chart_shift_slope), and no point the size of
    cell i is built.  The shift by -i lands on cell 0's midpoint, where the
    base cell shift moves a 7-bit point and gives its two one-sided slopes.
    Its image is interior to cell 0, and so is t, so each outer shift has one
    slope there, the same on both sides.  The image under the shift back is
    never needed.
    """
    k = z.table.get(int(i), 0)
    if k == 0:
        return Fraction(1)
    t = Fraction(2 * i + 1, 2)
    y = from_chart(t - i)
    base = base_cell_shift(k)
    outer = (chart_shift_slope(t, -i, RIGHT)
             * chart_shift_slope(to_chart(base.apply(y)), i, RIGHT))
    return max(outer * base.one_sided_slope(y, LEFT),
               outer * base.one_sided_slope(y, RIGHT))


def zz_letter_action():
    """Letters for the abelian example: a is the chart shift, b the base cell shift."""
    return MarkedAction(("a", "b"), (chart_shift(), base_cell_shift()), UNIT_INTERVAL)
