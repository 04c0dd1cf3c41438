"""Shared exception taxonomy.

Every certified operation fails loudly and precisely; nothing in the library
falls back to approximate answers. The CLI maps these onto exit codes.
"""


class NonsmoothError(Exception):
    """Base class for all contract violations raised by this package."""


class OutOfDomain(NonsmoothError):
    """A point fed to a map lies outside the map's domain of definition."""


class DegenerateQuadratic(NonsmoothError):
    """All three quadratic coefficients vanish; the root set is not discrete."""


class NoRealFixedPoint(NonsmoothError):
    """The fixed quadratic of a Moebius map has no real root to bracket."""


class BadInterval(NonsmoothError):
    """Breakpoints or support endpoints violate strict monotonicity."""


class AccumulationPoint(NonsmoothError):
    """One-sided slope of a model translation requested at an end of its
    support, from the side where its breakpoints accumulate."""


class Unsupported(NonsmoothError):
    """An input the operation does not handle: a malformed action, an action
    on a domain the operation does not take, or an advancing word that does
    not move the base exactly one sheet up."""


class WordSyntaxError(NonsmoothError):
    """A group word string does not parse."""


class NotCommutatorClass(NonsmoothError):
    """The dominating word is not in the commutator subgroup (abelianization)."""


class DegenerateSequence(NonsmoothError):
    """The advancing word fixes the base point; the point sequence stalls."""


class BracketOutsideWindow(NonsmoothError):
    """A fixed-point bracket cannot be placed strictly inside the fundamental
    window, which signals a mis-selected lift."""


class SearchExhausted(NonsmoothError):
    """No power within the cap satisfies the slope bound; raise the cap."""


class EmptyDisplacement(NonsmoothError):
    """Every generator fixes the window base point; there is nothing to rescale."""


class EmptyGridDomain(NonsmoothError):
    """The requested radius does not intersect the rescaled window."""


class Degenerate(NonsmoothError):
    """A generator acts as the identity on the whole window."""
