"""Acceptance gate.  One check per advertised guarantee; each test prints a
single [acceptance] PASS/FAIL line and the test name doubles as the criterion
label.  Bounds and sizes are pinned here on purpose: do not loosen them.

test_c6a_germ_deviation_bound pins the parabolic germ at i = 1000 (radius 2,
grid 64) to dev < 4/i, and to exact equality with the closed form
2(2i-1)/((i+1)^2-2).  Conjugating x/(1+x) by x -> 1/i + x/(i(i+1)) gives the
rescaled deviation -x(2i+1+x)/((i+1)^2+x) on the window [-3, 0]; clipped to
radius 2 its largest size is at the grid point x = -2.  That value is below
4/i for every i >= 1 and i*dev -> 4, since f'(p) - 1 ~ -2p over a window of
radius 2 in units of the displacement, so no bound like 1/i is attainable at
radius 2.  This is the README's 4/i rate; see README.
"""

import json
import os
import random
from fractions import Fraction

from helpers import (
    rand_cover,
    rand_interior,
    rand_lift,
    rand_plmap,
    rand_rat,
    rand_word_letters,
    slope_quotient_oracle,
)
from nonsmooth.cli import main
from nonsmooth.cover import (
    COVER_BASEPOINT,
    TORUS_A,
    TORUS_B,
    CoverPoint,
    compactify,
    cover_cmp,
    displacement_growth_check,
)
from nonsmooth.groupact import (
    UNIT_INTERVAL,
    MarkedAction,
    Word,
    ZZAction,
    commutator,
    compactified_action,
    parse_word,
    punctured_torus_action,
    word_eval,
)
from nonsmooth.obstruction import certify_domination, slope_character, zz_witness
from nonsmooth.plmaps import LEFT, RIGHT, anchor, cell_shift
from nonsmooth.projline import GREATER, LESS, MoebiusMap, ProjPoint, bracket_roots, fixed_quadratic
from nonsmooth.renorm import (
    build_windows,
    fixed_point_in_window,
    germ_action,
    hull_displacement,
    rescale,
    translation_deviation,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
HALF = Fraction(1, 2)


def verdict(label, ok, detail=""):
    line = "[acceptance] %s: %s" % (label, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


def torus_commutator_lift():
    act = punctured_torus_action()
    a, b = act.maps
    return act, a.compose(b).compose(a.inverse()).compose(b.inverse())


def test_c1_commutator_parabolicity():
    def matmul(m, n):
        return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
                 m[0][0] * n[0][1] + m[0][1] * n[1][1]),
                (m[1][0] * n[0][0] + m[1][1] * n[1][0],
                 m[1][0] * n[0][1] + m[1][1] * n[1][1]))

    a = ((1, 1), (1, 2))
    b = ((1, -1), (-1, 2))
    a_inv = ((2, -1), (-1, 1))
    b_inv = ((2, 1), (1, 1))
    oracle = matmul(matmul(a, b), matmul(a_inv, b_inv))
    ok = oracle == ((-1, 0), (-6, -1))
    ok = ok and oracle[0][0] + oracle[1][1] == -2

    comm = (TORUS_A.compose(TORUS_B)
            .compose(TORUS_A.inverse()).compose(TORUS_B.inverse()))
    ok = ok and comm == MoebiusMap(oracle[0][0], oracle[0][1],
                                   oracle[1][0], oracle[1][1])
    ok = ok and comm.trace() == -2
    # the fixed quadratic has the double root 0 and nothing else
    roots = bracket_roots(fixed_quadratic(comm))
    ok = ok and roots == [(Fraction(0), Fraction(0))]
    origin = ProjPoint.from_affine(0)
    ok = ok and comm.apply(origin) == origin
    ok = ok and all(comm.apply(ProjPoint.from_affine(t))
                    != ProjPoint.from_affine(t)
                    for t in (1, -1, Fraction(3, 2)))
    verdict("c1 commutator parabolicity", ok,
            "trace -2, unique fixed point t=0")


def test_c2_commutator_unit_displacement():
    act = punctured_torus_action()
    comm = parse_word("[a,b]")
    ok = act.meta == {"orientation_normalization": "identity"}
    ok = ok and word_eval(act, comm, COVER_BASEPOINT) == COVER_BASEPOINT.deck(1)
    x = COVER_BASEPOINT
    for n in range(1, 51):
        x = word_eval(act, comm, x)
        ok = ok and x == COVER_BASEPOINT.deck(n)
    verdict("c2 commutator unit displacement", ok,
            "[a,b]^n(p) = p + n for n <= 50")


def test_c3_displacement_growth():
    _, comm = torus_commutator_lift()
    rng = random.Random(20260803)
    pts = [CoverPoint(ProjPoint.from_affine(rand_rat(rng)),
                      rng.randint(-4, 4)) for _ in range(100)]
    ok = all(displacement_growth_check(comm, z, n)
             for z in pts for n in range(1, 21))
    verdict("c3 displacement growth", ok,
            "[a,b]^n(z) > z + n - 1 for n <= 20 at 100 points")


def test_c4_domination_certificate():
    act = punctured_torus_action()
    cert = certify_domination(act, parse_word("[a,b]^2"),
                              (COVER_BASEPOINT, parse_word("[a,b]")), 50)
    ok = cert.valid and cert.structural
    ok = ok and cert.flags == ("StructurallyExtended",)
    ok = ok and len(cert.rows) == 4 * 51
    # re-check every comparison from the stored points
    ok = ok and all(cover_cmp(r.moved, r.dominator) == LESS for r in cert.rows)
    ok = ok and cert.interleaving is not None
    verdict("c4 domination certificate", ok,
            "depth 50, every g^{+-1}(p_m) < [a,b]^2(p_m), structural flag set")


def test_c5_zz_witness():
    w = zz_witness(16, cap=64)
    ok = w.valid and w.anchors_checked == (-18, 18)
    ok = ok and len(w.entries) == 33
    ok = ok and all(e.slope < HALF for e in w.entries)
    # minimality: the rejected slope one power earlier was still >= 1/2
    ok = ok and all(e.rejected_slope is None or e.rejected_slope >= HALF
                    for e in w.entries)
    product = ZZAction(w.support)
    ok = ok and all(product.apply(anchor(j)) == anchor(j)
                    for j in range(-18, 19))
    # difference-quotient oracle on a sample of cells
    from nonsmooth.plmaps import cell_midpoint
    for e in (w.entries[0], w.entries[16], w.entries[32]):
        m = ZZAction({e.index: e.power}).as_expr()
        p = cell_midpoint(e.index)
        got = max(slope_quotient_oracle(m, p, LEFT),
                  slope_quotient_oracle(m, p, RIGHT))
        ok = ok and got == e.slope
    verdict("c5 zz witness", ok,
            "N=16 cap=64: slopes < 1/2, anchors -18..18 fixed")


def parabolic_system(i, grid=64):
    act = germ_action()
    w = build_windows(act, [Fraction(1, i)])[0]
    return rescale(w, act, grid)


def test_c6a_germ_deviation_bound():
    i = 1000
    dev = translation_deviation(parabolic_system(i), 2, 64)
    closed_form = Fraction(2 * (2 * i - 1), (i + 1) ** 2 - 2)
    ok = dev < Fraction(4, i) and dev == closed_form
    verdict("c6a germ deviation bound", ok,
            "i=1000 radius 2 grid 64: deviation %s ~ 4/%.1f"
            % (dev, 4 / dev))


def test_c6a_germ_deviation_monotone():
    devs = [translation_deviation(parabolic_system(i), 2, 64)
            for i in (10, 100, 1000)]
    ok = devs[0] >= devs[1] >= devs[2] > 0
    verdict("c6a germ deviation monotone", ok,
            "deviations at i=10,100,1000: %s" % ", ".join(map(str, devs)))


def test_c6b_torus_window_dichotomy():
    act = compactified_action(punctured_torus_action())
    pts = [compactify(COVER_BASEPOINT.deck(n)) for n in range(51)]
    comm = parse_word("[a,b]")
    ok = True
    for w in build_windows(act, pts):
        rs = rescale(w, act, grid=64)
        brackets = fixed_point_in_window(rs)
        ok = ok and any(b is not None for b in brackets.values())
        ok = ok and hull_displacement(rs, comm) >= 1
    verdict("c6b torus window dichotomy", ok,
            "windows n <= 50: generator bracket present, "
            "commutator moves >= 1 hull unit")


def test_c7a_word_evaluation_homomorphism():
    act = punctured_torus_action()
    rng = random.Random(7001)
    ok = True
    for _ in range(1000):
        u = Word(rand_word_letters(rng))
        v = Word(rand_word_letters(rng))
        z = rand_cover(rng)
        ok = ok and word_eval(act, u * v, z) == word_eval(
            act, u, word_eval(act, v, z))
    verdict("c7a word evaluation homomorphism", ok, "1000 cases")


def test_c7b_deck_equivariance_and_order():
    rng = random.Random(7002)
    ok = True
    for _ in range(1000):
        f = rand_lift(rng)
        z = rand_cover(rng)
        k = rng.randint(-4, 4)
        ok = ok and f.apply(z.deck(k)) == f.apply(z).deck(k)
        z2 = rand_cover(rng)
        ok = ok and cover_cmp(f.apply(z), f.apply(z2)) == cover_cmp(z, z2)
    verdict("c7b deck equivariance and order preservation", ok, "1000 cases")


def test_c7c_commutator_lift_independence():
    act, comm0 = torus_commutator_lift()
    a, b = act.maps
    rng = random.Random(7003)
    ok = True
    for _ in range(1000):
        fa = a.deck(rng.randint(-2, 2))
        fb = b.deck(rng.randint(-2, 2))
        c = fa.compose(fb).compose(fa.inverse()).compose(fb.inverse())
        ok = ok and c == comm0
        z = rand_cover(rng)
        ok = ok and c.apply(z) == comm0.apply(z)
    verdict("c7c commutator lift independence", ok,
            "deck shifts j,k in -2..2, 1000 cases")


def test_c7d_pl_composition_inversion():
    rng = random.Random(7004)
    ok = True
    for _ in range(1000):
        f = rand_plmap(rng)
        g = rand_plmap(rng)
        x = rand_interior(rng)
        ok = ok and f.compose(g).apply(x) == f.apply(g.apply(x))
        ok = ok and f.inverse().apply(f.apply(x)) == x
        ok = ok and g.compose(g.inverse()).apply(x) == x
    verdict("c7d pl composition and inversion", ok, "1000 cases")


def test_c7e_zz_additivity():
    rng = random.Random(7005)
    ok = True
    for _ in range(1000):
        f = {rng.randint(-8, 8): rng.randint(-3, 3)
             for _ in range(rng.randint(0, 4))}
        g = {rng.randint(-8, 8): rng.randint(-3, 3)
             for _ in range(rng.randint(0, 4))}
        total = {i: f.get(i, 0) + g.get(i, 0) for i in set(f) | set(g)}
        zf, zg, zt = ZZAction(f), ZZAction(g), ZZAction(total)
        ok = ok and zf.compose(zg) == zt
        x = rand_interior(rng)
        ok = ok and zf.apply(zg.apply(x)) == zt.apply(x)
    verdict("c7e zz additivity", ok, "Z_f o Z_g = Z_{f+g}, 1000 cases")


def test_c7f_slope_character_multiplicative():
    act = MarkedAction(("s", "d"), (cell_shift(0, 1), cell_shift(0, 2)),
                       UNIT_INTERVAL)
    chi = slope_character(act, Fraction(1, 2))
    rng = random.Random(7006)
    ok = True
    for _ in range(1000):
        u = Word(rand_word_letters(rng))
        v = Word(rand_word_letters(rng))
        ok = ok and chi.of_word(u * v, act.names) == (
            chi.of_word(u, act.names) * chi.of_word(v, act.names))
        ok = ok and chi.of_word(commutator(u, v), act.names) == 1
    verdict("c7f slope character multiplicative", ok,
            "sigma = 1 on commutators, 1000 cases")


def strip_header(text):
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line)


def test_c8_golden_reports(capsys, tmp_path):
    ok = True
    for target, args, golden in (
            ("punctured-torus", ["--depth", "50"],
             "certify-punctured-torus.json"),
            ("zz", ["--truncation", "16"], "certify-zz.json")):
        outs = []
        for run in range(2):
            path = tmp_path / ("%s-%d.json" % (target, run))
            code = main(["certify", target, *args, "--out", str(path)])
            capsys.readouterr()
            ok = ok and code == 0
            outs.append(path.read_text(encoding="utf-8"))
        ok = ok and strip_header(outs[0]) == strip_header(outs[1])
        frozen = open(os.path.join(GOLDEN, golden), encoding="utf-8").read()
        ok = ok and strip_header(outs[0]) == strip_header(frozen)
        ok = ok and json.loads(outs[0])["verdict"] == "certified"
    verdict("c8 golden reports", ok,
            "both certify targets byte-identical modulo timestamp")
