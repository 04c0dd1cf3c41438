"""The torus certificate for every basis of the group within three Nielsen
moves of (A, B), against the per-row oracle.

A Nielsen move keeps the group, so the paper's criterion must hold for each
basis, not only for (A, B).  The moves below are (X, Y) -> (X, XY),
(XY, Y), (X, X^-1 Y), (YX, Y) and (Y, X).  In the free group the first four
carry [X, Y] to a conjugate of itself and the swap to its inverse, so the
commutator of a basis is conjugate to [A, B] or to [A, B]^-1, by the parity
of its swaps.  By the Fricke identity tr[X, Y] = x^2 + y^2 + z^2 - xyz - 2,
with x = tr X, y = tr Y and z = tr XY, so trace -2 makes (x, y, z) a Markov
triple.

Each generator is bound to its fixed-point lift, and the base point is the
commutator's parabolic fixed point.  Deck translations are central, so the
lifted commutator is that of any lifts, and it is conjugate to the lift of
[a, b] or of its inverse.  The lift of [a, b] moves its fixed point up one
sheet, so a conjugate moves its own fixed point up one sheet too, and one of
[A, B]^-1 moves it one sheet down.  That is why the bases of odd swap parity
advance by baBA = [b, a] instead of abAB.
"""

from fractions import Fraction

import pytest
from helpers import ExpandedRows, certify_domination_oracle

from nonsmooth.cover import TORUS_A, TORUS_B, CoverPoint, fixed_point_lift, line_point
from nonsmooth.groupact import COVER_LINE, MarkedAction, parse_word, word_eval
from nonsmooth.obstruction import DominationCertificate, certify_domination
from nonsmooth.projline import ProjPoint

AB, BA = parse_word("abAB"), parse_word("baBA")

# The bases, as the entries of (X, Y), whose route advances by baBA.
BA_BASES = frozenset([
    ((1, -1, -1, 2), (1, 1, 1, 2)),
    ((0, 1, -1, 3), (1, 1, 1, 2)),
    ((1, -1, -1, 2), (0, 1, -1, 3)),
    ((3, -4, -2, 3), (1, 1, 1, 2)),
    ((1, -1, -1, 2), (0, -1, 1, 3)),
    ((0, -1, 1, 3), (1, 1, 1, 2)),
    ((1, -1, -1, 2), (3, 4, 2, 3)),
    ((-1, 4, -2, 7), (1, 1, 1, 2)),
    ((0, 1, -1, 3), (-1, 4, -2, 7)),
    ((0, 1, -1, 3), (1, 2, 2, 5)),
    ((1, 2, 2, 5), (1, 1, 1, 2)),
    ((0, 1, -1, 3), (2, 1, 1, 1)),
    ((-1, 2, -4, 7), (0, 1, -1, 3)),
    ((1, -1, -1, 2), (-1, 2, -4, 7)),
    ((4, -5, 1, -1), (0, 1, -1, 3)),
    ((1, -1, -1, 2), (1, -2, -2, 5)),
    ((1, -2, -2, 5), (0, 1, -1, 3)),
    ((1, -1, -1, 2), (-1, 5, -1, 4)),
    ((3, -4, -2, 3), (1, -1, -1, 2)),
    ((8, -11, -5, 7), (1, 1, 1, 2)),
    ((3, -4, -2, 3), (-1, -5, 1, 4)),
    ((-1, -5, 1, 4), (1, 1, 1, 2)),
    ((3, -4, -2, 3), (7, 11, 5, 8)),
    ((1, -2, -2, 5), (0, -1, 1, 3)),
    ((2, -1, -1, 1), (0, -1, 1, 3)),
    ((1, -1, -1, 2), (-1, -4, 2, 7)),
    ((-1, -4, 2, 7), (0, -1, 1, 3)),
    ((0, -1, 1, 3), (-1, -2, 4, 7)),
    ((-1, -2, 4, 7), (1, 1, 1, 2)),
    ((0, -1, 1, 3), (4, 5, -1, -1)),
    ((1, 1, 1, 2), (3, 4, 2, 3)),
    ((1, -1, -1, 2), (8, 11, 5, 7)),
    ((-1, 5, -1, 4), (3, 4, 2, 3)),
])


def nielsen_bases(depth):
    """Each basis within depth moves of (A, B), mapped to the parity of the
    swaps that reach it; a basis reached with both parities fails."""
    bases = {(TORUS_A, TORUS_B): 0}
    frontier = list(bases)
    for _ in range(depth):
        reached = []
        for x, y in frontier:
            parity = bases[x, y]
            for basis, swap in (((x, x.compose(y)), 0), ((x.compose(y), y), 0),
                                ((x, x.inverse().compose(y)), 0),
                                ((y.compose(x), y), 0), ((y, x), 1)):
                if basis in bases:
                    assert bases[basis] == parity ^ swap, basis
                else:
                    bases[basis] = parity ^ swap
                    reached.append(basis)
        frontier = reached
    return bases


BASES = nielsen_bases(3)


def commutator_fixed_point(x, y):
    """The parabolic fixed point of [X, Y] as a cover point: line_point of
    a finite one, and infinity on sheet 0."""
    k = x.compose(y).compose(x.inverse()).compose(y.inverse())
    assert k.trace() == -2, k
    a, _, c, d = k.entries
    if c == 0:
        return CoverPoint(ProjPoint.infinity(), 0)
    return line_point(Fraction(a - d, 2 * c))


def test_walk_size():
    assert len(BASES) == 93
    assert max(abs(e) for basis in BASES for m in basis for e in m.entries) == 31
    assert sum(commutator_fixed_point(x, y).base.is_infinite
               for x, y in BASES) == 6
    assert BA_BASES == {(x.entries, y.entries)
                        for (x, y), odd in BASES.items() if odd}
    assert len(BA_BASES) == 33


@pytest.mark.parametrize("basis", list(BASES), ids=lambda b: "%s,%s" % (
    b[0].entries, b[1].entries))
def test_basis_certifies_like_the_oracle(basis):
    x, y = basis
    tx, ty, txy = x.trace(), y.trace(), x.compose(y).trace()
    assert tx * tx + ty * ty + txy * txy == tx * ty * txy
    base = commutator_fixed_point(x, y)
    act = MarkedAction(("a", "b"), (fixed_point_lift(x)[0], fixed_point_lift(y)[0]),
                       COVER_LINE)
    needs_ba = (x.entries, y.entries) in BA_BASES
    assert needs_ba == bool(BASES[basis])
    advance = BA if needs_ba else AB
    assert word_eval(act, advance, base) == base.deck(1)
    assert word_eval(act, AB, base) == base.deck(-1 if needs_ba else 1)
    for depth in range(9):
        cert = certify_domination(act, advance ** 2, (base, advance), depth)
        oracle = certify_domination_oracle(act, advance ** 2, (base, advance), depth)
        assert tuple(ExpandedRows(cert.rows)) == oracle.rows
        for field in DominationCertificate.__slots__:
            if field != "rows":
                assert getattr(cert, field) == getattr(oracle, field), field
        assert cert.valid and cert.structural
