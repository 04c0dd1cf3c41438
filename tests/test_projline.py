"""Projective points, the traversal order, Moebius action, root brackets."""

import random
from fractions import Fraction

import pytest
from helpers import bracket_roots_oracle, rand_proj, rand_sl2
from test_fricke import PAIRS

from nonsmooth.cli import coordinate
from nonsmooth.cover import LIFT_BRACKET_WIDTH, TORUS_A, TORUS_B
from nonsmooth.errors import DegenerateQuadratic
from nonsmooth.projline import (
    EQUAL,
    GREATER,
    LESS,
    MoebiusMap,
    ProjPoint,
    bracket_roots,
    canonical_entries,
    fixed_quadratic,
    traversal_cmp,
)

A = MoebiusMap(1, 1, 1, 2)
B = MoebiusMap(1, -1, -1, 2)
IDENT = MoebiusMap(1, 0, 0, 1)


def quad(coeffs, t):
    a, b, c = coeffs
    return (a * t + b) * t + c


def fraction_traversal_key(u):
    # independent oracle: the (class, Fraction) sort key of the cut circle
    if u.is_infinite:
        return (1, Fraction(0))
    t = u.affine()
    return (0, t) if t >= 0 else (2, t)


class TestProjPoint:
    def test_normalization(self):
        assert ProjPoint(2, 4) == ProjPoint(1, 2)
        assert ProjPoint(3, -6) == ProjPoint.from_affine(Fraction(-1, 2))
        assert ProjPoint(-5, 0) == ProjPoint.infinity()
        assert ProjPoint(0, 7) == ProjPoint.from_affine(0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint(0, 0)

    def test_affine_roundtrip(self):
        assert ProjPoint.from_affine(Fraction(22, 7)).affine() == Fraction(22, 7)
        with pytest.raises(ValueError):
            ProjPoint.infinity().affine()

    def test_serialization(self):
        p = ProjPoint.from_affine(Fraction(-3, 5))
        assert coordinate(p) == "-3/5"


class TestMoebius:
    def test_apply_frozen(self):
        # (t + 1)/(t + 2) at t = 0 and t = 1
        assert A.apply(ProjPoint(0, 1)) == ProjPoint(1, 2)
        assert A.apply(ProjPoint(1, 1)) == ProjPoint(2, 3)
        assert IDENT.apply(ProjPoint.infinity()) == ProjPoint.infinity()

    def test_determinant_sign_enforced(self):
        with pytest.raises(ValueError):
            MoebiusMap(1, 0, 0, -1)
        with pytest.raises(ValueError):
            MoebiusMap(1, 2, 2, 4)  # det 0

    def test_scalar_equality(self):
        assert MoebiusMap(2, 0, 0, 2) == IDENT
        assert MoebiusMap(-1, 0, 0, -1) == IDENT
        assert MoebiusMap(2, 2, 2, 4) == A
        assert hash(MoebiusMap(-3, -3, -3, -6)) == hash(A)

    def test_canonical_entries(self):
        assert canonical_entries((2, 0, 0, 4)) == (1, 0, 0, 2)
        assert canonical_entries((0, -3, 6, Fraction(-3, 2))) == (0, 2, -4, 1)
        assert canonical_entries((-1, -1, -1, -2)) == A.entries
        with pytest.raises(ValueError):
            canonical_entries((0, 0, 0, 0))

    def test_rational_entries_cleared(self):
        m = MoebiusMap(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1)
        assert m == A
        assert m.entries == (1, 1, 1, 2)

    def test_inverse_random(self):
        rng = random.Random(101)
        for _ in range(1000):
            m = rand_sl2(rng)
            u = rand_proj(rng)
            assert m.inverse().apply(m.apply(u)) == u

    def test_apply_respects_product(self):
        rng = random.Random(102)
        for _ in range(500):
            m, n = rand_sl2(rng), rand_sl2(rng)
            u = rand_proj(rng)
            assert m.compose(n).apply(u) == m.apply(n.apply(u))


class TestTraversalOrder:
    def test_frozen_comparisons(self):
        pt = ProjPoint.from_affine
        assert traversal_cmp(pt(0), pt(1)) == LESS
        assert traversal_cmp(pt(1), ProjPoint.infinity()) == LESS
        assert traversal_cmp(ProjPoint.infinity(), pt(Fraction(-1, 2))) == LESS
        assert traversal_cmp(pt(-1), pt(Fraction(-1, 2))) == LESS
        assert traversal_cmp(pt(Fraction(1, 2)), pt(Fraction(1, 2))) == EQUAL
        assert traversal_cmp(pt(-3), pt(100)) == GREATER

    def test_total_order_random(self):
        rng = random.Random(103)
        pts = [rand_proj(rng, p_inf=0.1) for _ in range(60)]
        for _ in range(2000):
            u, v, w = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            cuv, cvu = traversal_cmp(u, v), traversal_cmp(v, u)
            assert cuv == -cvu
            assert (cuv == EQUAL) == (u == v)
            if cuv == LESS and traversal_cmp(v, w) == LESS:
                assert traversal_cmp(u, w) == LESS

    def test_matches_fraction_key_oracle(self):
        rng = random.Random(105)
        special = [ProjPoint.infinity(), ProjPoint(0, 1), ProjPoint(1, 1),
                   ProjPoint(-1, 1), ProjPoint(-1, 7), ProjPoint(1, 7)]
        pts = special + [rand_proj(rng, lim=40, p_inf=0.1) for _ in range(200)]
        pairs = [(u, v) for u in special for v in special]
        pairs += [(rng.choice(pts), rng.choice(pts)) for _ in range(4000)]
        for u, v in pairs:
            ku, kv = fraction_traversal_key(u), fraction_traversal_key(v)
            assert traversal_cmp(u, v) == (ku > kv) - (ku < kv)


class TestFixedQuadratic:
    def test_frozen_coefficients(self):
        assert fixed_quadratic(A) == (1, 1, -1)
        assert fixed_quadratic(B) == (-1, 1, 1)
        assert fixed_quadratic(IDENT) == (0, 0, 0)

    def test_roots_are_fixed_points(self):
        # rational-root case: diag(4, 1) fixes t = 0 and infinity
        m = MoebiusMap(4, 0, 0, 1)
        coeffs = fixed_quadratic(m)
        assert quad(coeffs, Fraction(0)) == 0
        assert m.apply(ProjPoint(0, 1)) == ProjPoint(0, 1)


class TestBracketRoots:
    def test_golden_quadratic(self):
        brackets = bracket_roots((1, 1, -1))
        assert len(brackets) == 2
        for lo, hi in brackets:
            assert lo < hi
            assert quad((1, 1, -1), lo) * quad((1, 1, -1), hi) < 0
        # disjoint left to right
        assert brackets[0][1] <= brackets[1][0]
        # the positive root (golden ratio conjugate) sits in the second bracket
        assert brackets[1][0] > 0

    def test_no_real_roots(self):
        assert bracket_roots((1, 0, 1)) == []
        assert bracket_roots((0, 0, 5)) == []

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateQuadratic):
            bracket_roots((0, 0, 0))

    def test_double_root_exact(self):
        assert bracket_roots((1, -2, 1)) == [(Fraction(1), Fraction(1))]
        assert bracket_roots((-6, 0, 0)) == [(Fraction(0), Fraction(0))]

    def test_linear_case(self):
        ((lo, hi),) = bracket_roots((0, 2, -1))
        assert lo < Fraction(1, 2) < hi
        assert quad((0, 2, -1), lo) * quad((0, 2, -1), hi) < 0

    def test_rational_simple_roots(self):
        brackets = bracket_roots((1, 0, -1))
        assert len(brackets) == 2
        assert brackets[0][0] < -1 < brackets[0][1]
        assert brackets[1][0] < 1 < brackets[1][1]
        for lo, hi in brackets:
            assert quad((1, 0, -1), lo) * quad((1, 0, -1), hi) < 0

    def test_max_width_respected(self):
        for lo, hi in bracket_roots((1, 1, -1), max_width=Fraction(1, 8)):
            assert hi - lo <= Fraction(1, 8)

    def test_random_quadratics(self):
        rng = random.Random(104)
        for _ in range(800):
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            if a == 0 and b == 0 and c == 0:
                continue
            brackets = bracket_roots((a, b, c), max_width=Fraction(1, 4))
            if a != 0:
                disc = b * b - 4 * a * c
                expected = 2 if disc > 0 else (1 if disc == 0 else 0)
            else:
                expected = 1 if b != 0 else 0
            assert len(brackets) == expected
            prev_hi = None
            for lo, hi in brackets:
                if lo == hi:
                    assert quad((a, b, c), lo) == 0
                else:
                    assert hi - lo <= Fraction(1, 4)
                    assert quad((a, b, c), lo) * quad((a, b, c), hi) < 0
                if prev_hi is not None:
                    assert lo >= prev_hi
                prev_hi = hi

    def test_integer_bisection_matches_fraction_loop(self):
        """bracket_roots works on the integer quadratic, and _refine bisects
        on integer numerators over a doubling denominator; the brackets are
        those of the Fraction path."""
        rng = random.Random(3401)
        cases = [(fixed_quadratic(m), LIFT_BRACKET_WIDTH)
                 for m in (TORUS_A, TORUS_B)]
        cases += [(fixed_quadratic(MoebiusMap(*m)), LIFT_BRACKET_WIDTH)
                  for pair in PAIRS for m in pair]
        widths = (Fraction(1), Fraction(1, 4), Fraction(3, 7),
                  Fraction(1, 1000))
        for _ in range(300):
            cases.append((tuple(rng.randint(-40, 40) for _ in range(3)),
                          rng.choice(widths)))
            # rational roots p/q and r/s: (q t - p)(s t - r), scaled
            p, r = rng.randint(-20, 20), rng.randint(-20, 20)
            q, s_ = rng.choice((1, 2, 4, 8, 3)), rng.choice((1, 2, 4, 5))
            k = rng.choice((1, -1, 3))
            cases.append(((k * q * s_, -k * (q * r + p * s_), k * p * r),
                          rng.choice(widths)))
        rational_roots = 0
        for coeffs, width in cases:
            if coeffs == (0, 0, 0):
                continue
            got = bracket_roots(coeffs, max_width=width)
            assert got == bracket_roots_oracle(coeffs, width), (coeffs, width)
            rational_roots += sum(quad(coeffs, (lo + hi) / 2) == 0
                                  for lo, hi in got if lo != hi)
        # the exact-zero branch returns brackets centred on a root
        assert rational_roots > 50

