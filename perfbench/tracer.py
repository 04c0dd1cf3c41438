"""Outside-in per-layer tracing of the nonsmooth package.

The tracer wraps chosen functions and methods of the installed ``nonsmooth``
modules without editing them.  A module-level function is rebound in every
``nonsmooth.*`` module that holds it under any name, because modules import
each other's functions by name (``obstruction`` calls its own binding of
``cover_cmp``); a method is rebound on its class.  ``uninstall`` restores the
originals.

For each wrapped function the tracer counts calls, accumulates self time
(inclusive time minus the inclusive time of traced callees) and, for
functions that return a rational or a point, the largest numerator or
denominator bit length returned.
"""

import functools
import sys
import time
from fractions import Fraction


def bit_length(value):
    """Largest numerator/denominator bit length of a Fraction, a ProjPoint
    or a CoverPoint (whose base is a ProjPoint)."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    base = getattr(value, "base", value)
    return max(base.num.bit_length(), base.den.bit_length())


class Tracer:
    """Counters for a set of functions named ``<module>.<qualname>``.

    ``targets`` maps each name to True when its return value is a rational
    or a point whose bit length should be recorded.
    """

    def __init__(self, targets):
        self.targets = dict(targets)
        self.stats = {name: [0, 0.0, 0] for name in self.targets}
        self._stack = []
        self._undo = []

    def reset(self):
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0]

    def snapshot(self):
        """{name: (calls, self_s, max_bits)} since the last reset."""
        return {name: tuple(entry) for name, entry in self.stats.items()}

    def _wrap(self, name, fn, record_bits):
        entry = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry[0] += 1
                entry[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if record_bits:
                bits = bit_length(result)
                if bits > entry[2]:
                    entry[2] = bits
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "nonsmooth"
                                         or key.startswith("nonsmooth."))]
        for name, record_bits in self.targets.items():
            module_name, _, qualname = name.partition(".")
            owner = sys.modules["nonsmooth." + module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, original,
                             self._wrap(name, original, record_bits))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(name, original, record_bits)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def _rebind(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._undo.append((holder, attr, original))

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)
