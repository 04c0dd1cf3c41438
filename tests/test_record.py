"""Immutable records: every value type refuses assignment, and equal
instances hash equal."""

from fractions import Fraction

import pytest

from nonsmooth.cover import (
    COVER_BASEPOINT,
    TORUS_A,
    CoverBracket,
    CoverPoint,
    FixedPointCertificate,
    LiftedMap,
    fixed_point_lift,
    lift_through,
)
from nonsmooth.groupact import (
    UNIT_INTERVAL,
    CompactifiedLift,
    MarkedAction,
    Word,
    ZZAction,
    compactified_action,
    parse_word,
    punctured_torus_action,
)
from nonsmooth.obstruction import (
    DominationCertificate,
    DominationRow,
    InterleavingCertificate,
    OrderResult,
    SlopeCharacter,
    ZZWitness,
    ZZWitnessEntry,
    certify_domination,
    certify_interleaving,
    order_cmp,
    slope_character,
    zz_witness,
)
from nonsmooth.plmaps import (
    AffineChart,
    IntervalMapExpr,
    ModelTranslation,
    PLMap,
    cell_shift,
    chart_shift,
)
from nonsmooth.projline import MoebiusMap, ProjPoint
from nonsmooth.record import Record
from nonsmooth.renorm import (
    MoebiusGermMap,
    RescaledSystem,
    Window,
    build_windows,
    germ_action,
    parabolic_germ,
    rescale,
)


def domination():
    return certify_domination(punctured_torus_action(), parse_word("[a,b]^2"),
                              (COVER_BASEPOINT, parse_word("[a,b]")), 1)


def germ_window():
    return build_windows(germ_action(), [Fraction(1, 10)])[0]


# one builder per record type; each call builds a fresh, equal instance
BUILDERS = {
    ProjPoint: lambda: ProjPoint(2, -4),
    MoebiusMap: lambda: MoebiusMap(1, 1, 1, 2),
    CoverPoint: lambda: CoverPoint(ProjPoint(1, 3), -2),
    LiftedMap: lambda: lift_through(TORUS_A, 1),
    CoverBracket: lambda: fixed_point_lift(TORUS_A)[1].brackets[0],
    FixedPointCertificate: lambda: fixed_point_lift(TORUS_A)[1],
    Word: lambda: parse_word("[a,b]^2"),
    MarkedAction: punctured_torus_action,
    CompactifiedLift: lambda: compactified_action(punctured_torus_action()).maps[0],
    ZZAction: lambda: ZZAction({0: 4, -1: 2}),
    OrderResult: lambda: order_cmp(punctured_torus_action(), parse_word("a"),
                                   parse_word("b"), COVER_BASEPOINT),
    DominationRow: lambda: domination().rows[0],
    InterleavingCertificate: lambda: certify_interleaving(punctured_torus_action()),
    DominationCertificate: domination,
    SlopeCharacter: lambda: slope_character(
        MarkedAction(("s",), (cell_shift(0, 1),), UNIT_INTERVAL), Fraction(1, 2)),
    ZZWitnessEntry: lambda: zz_witness(1).entries[0],
    ZZWitness: lambda: zz_witness(1),
    PLMap: lambda: PLMap([(0, 0), (Fraction(1, 2), Fraction(1, 3)), (1, 1)]),
    ModelTranslation: lambda: cell_shift(0, 1),
    IntervalMapExpr: lambda: IntervalMapExpr((cell_shift(0, 1), chart_shift(2))),
    AffineChart: lambda: AffineChart(Fraction(1, 3), Fraction(3, 4)),
    MoebiusGermMap: parabolic_germ,
    Window: germ_window,
    RescaledSystem: lambda: rescale(germ_window(), germ_action(), 8),
}


def test_every_record_type_is_covered():
    assert set(BUILDERS) == set(Record.__subclasses__())


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_immutable_and_hash_consistent(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, cls.__slots__[0], None)
    assert a == b
