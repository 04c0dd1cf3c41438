"""Immutable value records: the one place the package defines immutability.

A subclass lists its fields in ``__slots__``.  A subclass that normalizes or
validates its arguments keeps its own ``__init__`` and ends it with
``Record.__init__(self, *fields)``; a check that needs the subclass's own
methods runs after that call, once the fields are set.  A pure record has no
``__init__`` at all.  Every record's repr comes from its slots.
"""


def _rebuild(cls, values):
    # restore the fields without re-running a normalizing subclass __init__
    obj = cls.__new__(cls)
    Record.__init__(obj, *values)
    return obj


class Record:
    """Fields set once, in slot order; equal when the type and every field
    are equal.  A dict field hashes by its items, so every record hashes."""

    __slots__ = ()

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(fields), len(values)))
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        # copy, deepcopy and pickle would otherwise set slots via __setattr__
        return _rebuild, (type(self), self._values())

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash((type(self).__name__,) + tuple(
            frozenset(v.items()) if isinstance(v, dict) else v
            for v in self._values()))
