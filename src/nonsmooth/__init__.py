"""Exact-arithmetic constructions and certificates for interval group
actions with no C1 smoothing.

Everything runs on rational arithmetic: projective points, covered-line
lifts, piecewise-linear charts, certificates, and the renormalization probe
are exact, and every reported number is a rational string. Import each name
from the module that defines it.
"""
