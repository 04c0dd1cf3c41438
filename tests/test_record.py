"""Immutable records: every value type refuses assignment, equal instances
hash equal, copy, deepcopy and pickle give back an equal record, and the
repr names every field in slot order."""

import copy
import pickle
from fractions import Fraction

import pytest

from helpers import (
    AffineChart,
    IntervalMapExpr,
    SlopeCharacter,
    ZZWitnessEntry,
    slope_character,
    witness_entries,
)
from nonsmooth.cover import (
    COVER_BASEPOINT,
    TORUS_A,
    CoverBracket,
    CoverPoint,
    LiftedMap,
    fixed_point_lift,
    lift_through,
)
from nonsmooth.groupact import (
    UNIT_INTERVAL,
    CompactifiedLift,
    MarkedAction,
    Word,
    compactified_action,
    parse_word,
    punctured_torus_action,
)
from nonsmooth.obstruction import (
    DeckRows,
    DominationCertificate,
    DominationRow,
    InterleavingCertificate,
    OrderResult,
    ZZWitness,
    certify_domination,
    certify_interleaving,
    order_cmp,
    zz_witness,
)
from nonsmooth.plmaps import (
    ModelTranslation,
    PLMap,
    ZZAction,
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
    LiftedMap: lambda: lift_through(TORUS_A).deck(1),
    CoverBracket: lambda: fixed_point_lift(TORUS_A)[1][0],
    Word: lambda: parse_word("[a,b]^2"),
    MarkedAction: punctured_torus_action,
    CompactifiedLift: lambda: compactified_action(punctured_torus_action()).maps[0],
    ZZAction: lambda: ZZAction({0: 4, -1: 2}),
    OrderResult: lambda: order_cmp(punctured_torus_action(), parse_word("a"),
                                   parse_word("b"), COVER_BASEPOINT),
    DominationRow: lambda: domination().rows.period[0],
    DeckRows: lambda: domination().rows,
    InterleavingCertificate: lambda: certify_interleaving(
        punctured_torus_action(), COVER_BASEPOINT),
    DominationCertificate: domination,
    SlopeCharacter: lambda: slope_character(
        MarkedAction(("s",), (cell_shift(0, 1),), UNIT_INTERVAL), Fraction(1, 2)),
    ZZWitnessEntry: lambda: witness_entries(zz_witness(1))[0],
    ZZWitness: lambda: zz_witness(1),
    PLMap: lambda: PLMap([(0, 0), (Fraction(1, 2), Fraction(1, 3)), (1, 1)]),
    ModelTranslation: lambda: cell_shift(0, 1),
    IntervalMapExpr: lambda: IntervalMapExpr((cell_shift(0, 1), chart_shift(2))),
    AffineChart: lambda: AffineChart(Fraction(1, 3), Fraction(3, 4)),
    MoebiusGermMap: parabolic_germ,
    Window: germ_window,
    RescaledSystem: lambda: RescaledSystem(germ_window(), germ_action(), 8),
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


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
}


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trip(cls, how):
    a = BUILDERS[cls]()
    b = ROUND_TRIPS[how](a)
    assert type(b) is cls and b == a and hash(b) == hash(a)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field_in_slot_order(cls):
    x = BUILDERS[cls]()
    fields = ["%s=%r" % (name, getattr(x, name)) for name in cls.__slots__]
    assert repr(x) == "%s(%s)" % (cls.__name__, ", ".join(fields))


def test_repr_of_nested_records():
    assert repr(ProjPoint(2, -4)) == "ProjPoint(num=-1, den=2)"
    assert repr(CoverPoint(ProjPoint(1, 3), -2)) == (
        "CoverPoint(base=ProjPoint(num=1, den=3), sheet=-2)")
