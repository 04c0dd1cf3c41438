"""Exact-arithmetic constructions and certificates for interval group
actions with no C1 smoothing.

Everything runs on rational arithmetic: projective points, covered-line
lifts, piecewise-linear charts, certificates, and the renormalization probe
are exact, and every reported number is a rational string.
"""

from .cover import (
    COVER_BASEPOINT,
    CoverBracket,
    CoverPoint,
    FixedPointCertificate,
    LiftedMap,
    compactify,
    cover_cmp,
    displacement_growth_check,
    fixed_point_lift,
    line_point,
    uncompactify,
)
from .groupact import (
    MarkedAction,
    Word,
    ZZAction,
    commutator,
    compactified_action,
    orbit_sequence,
    parse_word,
    punctured_torus_action,
    word_eval,
    zz_letter_action,
    zz_slope_mid,
)
from .obstruction import (
    DominationCertificate,
    InterleavingCertificate,
    SlopeCharacter,
    ZZWitness,
    certify_domination,
    certify_interleaving,
    order_cmp,
    slope_character,
    zz_witness,
)
from .plmaps import (
    IntervalMapExpr,
    ModelTranslation,
    PLMap,
    anchor,
    cell_midpoint,
    cell_shift,
    chart_index,
    germ_slope,
)
from .projline import MoebiusMap, ProjPoint
from .rational import fmt_rat, parse_rat, rat_to_decimal
from .renorm import (
    MoebiusGermMap,
    RescaledSystem,
    Window,
    build_windows,
    fixed_point_in_window,
    germ_action,
    halving_germ,
    hull_displacement,
    parabolic_germ,
    translation_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "COVER_BASEPOINT",
    "CoverBracket",
    "CoverPoint",
    "DominationCertificate",
    "FixedPointCertificate",
    "InterleavingCertificate",
    "IntervalMapExpr",
    "LiftedMap",
    "MarkedAction",
    "ModelTranslation",
    "MoebiusGermMap",
    "MoebiusMap",
    "PLMap",
    "ProjPoint",
    "RescaledSystem",
    "SlopeCharacter",
    "Window",
    "Word",
    "ZZAction",
    "ZZWitness",
    "anchor",
    "build_windows",
    "cell_midpoint",
    "cell_shift",
    "certify_domination",
    "certify_interleaving",
    "chart_index",
    "commutator",
    "compactified_action",
    "compactify",
    "cover_cmp",
    "displacement_growth_check",
    "fixed_point_in_window",
    "fixed_point_lift",
    "fmt_rat",
    "germ_action",
    "germ_slope",
    "halving_germ",
    "hull_displacement",
    "line_point",
    "orbit_sequence",
    "order_cmp",
    "parabolic_germ",
    "parse_rat",
    "parse_word",
    "punctured_torus_action",
    "rat_to_decimal",
    "slope_character",
    "translation_deviation",
    "uncompactify",
    "word_eval",
    "zz_letter_action",
    "zz_slope_mid",
    "zz_witness",
]
