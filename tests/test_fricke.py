"""The torus certificate across the Teichmueller space of the punctured
torus, against the per-row oracle.

For A and B in SL(2, R) the Fricke identity gives
tr[A, B] = x^2 + y^2 + z^2 - xyz - 2, with x = tr A, y = tr B and
z = tr AB.  The real characters with tr[A, B] = -2 and x, y, z > 2 are the
holonomies of the complete hyperbolic once-punctured tori (Goldman 2003,
as in tests/test_nielsen.py).  An integer matrix M with positive
determinant acts as M / sqrt(det M), whose squared trace is tr^2/det, and
the commutator of two such matrices is A B adj(A) adj(B) / (det A det B).

The sweep takes every ordered pair of integer matrices with entries in
[-4, 4], positive determinant and positive trace, with A's lower-left entry
nonnegative, whose commutator has trace -2 and is not scalar, and whose
squared traces of A, B and AB all exceed 4 but are not all integers.  It
finds 548 pairs with 21 squared-trace triples, each with an irrational
trace, so none of these groups is conjugate into SL(2, Z), unlike the
Nielsen bases of tests/test_nielsen.py.  The paper's criterion is about
every such torus, so each pair must certify as (A, B) does.

Each generator is bound to its fixed-point lift, the base point is the
commutator's parabolic fixed point, and the advancing word is whichever of
abAB and baBA moves the base one sheet up, as in tests/test_nielsen.py.
"""

from collections import defaultdict
from fractions import Fraction
from math import isqrt

import pytest
from helpers import ExpandedRows, certify_domination_oracle

from nonsmooth import obstruction
from nonsmooth.cover import CoverPoint, fixed_point_lift, line_point
from nonsmooth.groupact import COVER_LINE, MarkedAction, parse_word, word_eval
from nonsmooth.obstruction import DominationCertificate, certify_domination
from nonsmooth.projline import MoebiusMap, ProjPoint

AB, BA = parse_word("abAB"), parse_word("baBA")
DEPTHS = range(9)


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def adj(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def tr(m):
    return m[0] + m[3]


def squared_trace(m):
    return Fraction(tr(m) ** 2, det(m))


def sweep():
    """Each ordered pair (A, B) of the sweep, as entry tuples."""
    span = range(-4, 5)
    mats = [m for m in ((a, b, c, d) for a in span for b in span
                        for c in span for d in span)
            if det(m) > 0 and tr(m) > 0 and squared_trace(m) > 4]
    pairs = []
    for x in mats:
        if x[2] < 0:
            continue
        for y in mats:
            xy = mul(x, y)
            k = mul(mul(xy, adj(x)), adj(y))
            if (tr(k) != -2 * det(x) * det(y)
                    or (k[1] == k[2] == 0 and k[0] == k[3])
                    or squared_trace(xy) <= 4):
                continue
            if all(squared_trace(m).denominator == 1 for m in (x, y, xy)):
                continue
            pairs.append((x, y))
    return pairs


PAIRS = sweep()


def triple(pair):
    """The squared traces of A, B and AB, in increasing order."""
    x, y = pair
    return tuple(sorted(squared_trace(m) for m in (x, y, mul(x, y))))


BY_TRIPLE = defaultdict(list)
for _pair in PAIRS:
    BY_TRIPLE[triple(_pair)].append(_pair)


def is_rational_square(q):
    return all(isqrt(v) ** 2 == v for v in (q.numerator, q.denominator))


def commutator_fixed_point(x, y):
    """The parabolic fixed point of A B adj(A) adj(B) as a cover point:
    line_point of a finite one, and infinity on sheet 0."""
    a, _, c, d = mul(mul(mul(x, y), adj(x)), adj(y))
    if c == 0:
        return CoverPoint(ProjPoint.infinity(), 0)
    return line_point(Fraction(a - d, 2 * c))


def test_sweep_size():
    assert len(PAIRS) == 548
    assert len(BY_TRIPLE) == 21
    assert {(Fraction(16, 3), 16, Fraction(64, 3)),
            (Fraction(9, 2), 36, Fraction(81, 2)),
            (Fraction(25, 3), Fraction(25, 3), 25)} <= set(BY_TRIPLE)
    assert triple(((1, 1, 1, 4), (1, -1, -1, 4))) == (
        Fraction(25, 3), Fraction(25, 3), 25)
    assert ((1, 1, 1, 4), (1, -1, -1, 4)) in PAIRS


def test_fricke_identity():
    # tr[A, B] of the normalized pair, from the integer commutator, against
    # x^2 + y^2 + z^2 - xyz - 2; xyz is rational, as xyz = tr A tr B tr AB
    # over det A det B
    for x, y in PAIRS:
        xy = mul(x, y)
        dets = det(x) * det(y)
        comm = Fraction(tr(mul(mul(xy, adj(x)), adj(y))), dets)
        xyz = Fraction(tr(x) * tr(y) * tr(xy), dets)
        fricke = (squared_trace(x) + squared_trace(y) + squared_trace(xy)
                  - xyz - 2)
        assert comm == fricke == -2, (x, y)
        assert xyz > 8


def test_each_triple_has_an_irrational_trace():
    for squares in BY_TRIPLE:
        assert not all(map(is_rational_square, squares)), squares


# fixed_point_lift of each matrix the sweep has lifted
LIFTS = {}


@pytest.fixture
def shared_lifts(monkeypatch):
    # fixed_point_lift is a pure function of its matrix, and every
    # certificate of a pair recomputes the same two lifts; one lift per
    # matrix keeps the sweep near three seconds
    def lift(m):
        if m not in LIFTS:
            LIFTS[m] = fixed_point_lift(m)
        return LIFTS[m]

    monkeypatch.setattr(obstruction, "fixed_point_lift", lift)
    return lift


@pytest.mark.parametrize("squares", sorted(BY_TRIPLE), ids=lambda t: ",".join(
    map(str, t)))
def test_pairs_certify_like_the_oracle(shared_lifts, squares):
    # the oracle's rows of step m do not depend on the depth, so it runs
    # once, at depth 8, and the certificate at depth d must equal its
    # first d + 1 steps, with the oracle's fields at that depth
    for x, y in BY_TRIPLE[squares]:
        act = MarkedAction(("a", "b"), (shared_lifts(MoebiusMap(*x))[0],
                                        shared_lifts(MoebiusMap(*y))[0]),
                           COVER_LINE)
        base = commutator_fixed_point(x, y)
        advance = AB if word_eval(act, AB, base) == base.deck(1) else BA
        assert word_eval(act, advance, base) == base.deck(1), (x, y)
        oracle = certify_domination_oracle(act, advance ** 2, (base, advance),
                                           DEPTHS[-1])
        per_step = 2 * len(act.names)
        for depth in DEPTHS:
            cert = certify_domination(act, advance ** 2, (base, advance), depth)
            assert (tuple(ExpandedRows(cert.rows))
                    == oracle.rows[:per_step * (depth + 1)]), (x, y, depth)
            flags = (("ShallowDepth",) if depth == 0 else ()) + oracle.flags
            for field in DominationCertificate.__slots__:
                want = {"rows": cert.rows, "depth": depth,
                        "flags": flags}.get(field, getattr(oracle, field))
                assert getattr(cert, field) == want, (x, y, depth, field)
            assert cert.valid and cert.structural, (x, y, depth)
